// Pins the reachable-row global encode (GlobalEncoder::Encode over
// QueryGraph::ReachableRows) against the full-width encode over all E
// entity rows: bit-for-bit equal rows for every aggregator kind and batch
// size, plus the model-level behaviour that must not move with it (LogCL-G
// still encodes every row; fixed-seed training losses, test MRR and one
// served logit row).

#include <bit>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/observability.h"
#include "core/global_encoder.h"
#include "core/logcl_model.h"
#include "synth/generator.h"
#include "synth/presets.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tkg/filters.h"
#include "tkg/history_index.h"

namespace logcl {
namespace {

constexpr int64_t kDim = 16;

TkgDataset ParityDataset() {
  SynthConfig config;
  config.seed = 121;
  config.num_entities = 400;
  config.num_relations = 6;
  config.num_timestamps = 30;
  return GenerateSyntheticTkg(config);
}

// Same-time queries over `batch` distinct subjects, the first of which has
// no history before `time` (an edgeless anchor) whenever one exists.
std::vector<Quadruple> Queries(const TkgDataset& data,
                               const HistoryIndex& history, int64_t time,
                               int64_t batch) {
  std::vector<Quadruple> queries;
  for (int64_t e = 0; e < data.num_entities(); ++e) {
    if (history.FactsTouchingBefore(e, time).empty()) {
      queries.push_back({e, 0, 0, time});
      break;
    }
  }
  for (const Quadruple& q : data.FactsAt(time)) {
    if (static_cast<int64_t>(queries.size()) >= batch) break;
    queries.push_back(q);
  }
  return queries;
}

bool RowsBitwiseEqual(const Tensor& a, int64_t row_a, const Tensor& b,
                      int64_t row_b) {
  const int64_t d = a.shape().cols();
  return std::memcmp(a.data().data() + row_a * d, b.data().data() + row_b * d,
                     static_cast<size_t>(d) * sizeof(float)) == 0;
}

struct FusedModeGuard {
  explicit FusedModeGuard(bool enabled)
      : previous_(ops::FusedMessagePassingEnabled()) {
    ops::SetFusedMessagePassingEnabled(enabled);
  }
  ~FusedModeGuard() { ops::SetFusedMessagePassingEnabled(previous_); }
  bool previous_;
};

// Encodes `queries` both ways and checks every reachable row and both query
// representations bit for bit.
void ExpectReachableParity(const GlobalEncoder& encoder,
                           const HistoryIndex& history,
                           const std::vector<Quadruple>& queries,
                           const Tensor& h0, const Tensor& r0,
                           int64_t num_entities) {
  NoGradGuard no_grad;
  QueryGraph subgraph = encoder.BuildQueryGraph(history, queries, num_entities);
  const RowGraph& all = subgraph.all_rows();
  const RowGraph& reachable = subgraph.ReachableRows();
  ASSERT_EQ(reachable.graph.num_edges(), all.graph.num_edges());
  ASSERT_LT(static_cast<int64_t>(reachable.nodes.size()), num_entities);

  Tensor full = encoder.Encode(all, h0, r0, /*training=*/false, nullptr);
  Tensor compact =
      encoder.Encode(reachable, h0, r0, /*training=*/false, nullptr);
  ASSERT_EQ(full.shape().rows(), num_entities);
  ASSERT_EQ(compact.shape().rows(),
            static_cast<int64_t>(reachable.nodes.size()));
  for (size_t row = 0; row < reachable.nodes.size(); ++row) {
    ASSERT_TRUE(RowsBitwiseEqual(full, reachable.nodes[row], compact,
                                 static_cast<int64_t>(row)))
        << "entity " << reachable.nodes[row];
  }
  for (bool attention : {true, false}) {
    Tensor want = encoder.QueryRepresentations(full, all, h0, queries,
                                               history, attention);
    Tensor got = encoder.QueryRepresentations(compact, reachable, h0, queries,
                                              history, attention);
    ASSERT_EQ(want.data(), got.data()) << "attention " << attention;
  }
}

TEST(GlobalEncoderParityTest, ReachableRowsMatchFullWidthBitwise) {
  TkgDataset data = ParityDataset();
  HistoryIndex history(data);
  for (const char* kind :
       {"rgcn", "compgcn_sub", "compgcn_mult", "kbgat"}) {
    Rng rng(122);
    GlobalEncoderOptions options;
    options.gcn_kind = GcnKindFromString(kind);
    GlobalEncoder encoder(kDim, options, &rng);
    Tensor h0 = Tensor::XavierUniform(Shape{data.num_entities(), kDim}, &rng);
    Tensor r0 = Tensor::XavierUniform(
        Shape{data.num_relations_with_inverse(), kDim}, &rng);
    for (bool fused : {true, false}) {
      FusedModeGuard mode(fused);
      for (int64_t batch : {1, 8, 32}) {
        SCOPED_TRACE(testing::Message() << kind << " batch " << batch
                                        << (fused ? " fused" : " composed"));
        std::vector<Quadruple> queries = Queries(data, history, 20, batch);
        ASSERT_EQ(static_cast<int64_t>(queries.size()), batch);
        ExpectReachableParity(encoder, history, queries, h0, r0,
                              data.num_entities());
      }
    }
  }
}

TEST(GlobalEncoderParityTest, EdgelessSubjectAndEmptySubgraph) {
  TkgDataset data = ParityDataset();
  HistoryIndex history(data);
  Rng rng(123);
  GlobalEncoder encoder(kDim, {}, &rng);
  Tensor h0 = Tensor::XavierUniform(Shape{data.num_entities(), kDim}, &rng);
  Tensor r0 = Tensor::XavierUniform(
      Shape{data.num_relations_with_inverse(), kDim}, &rng);

  // A batch-1 query whose subject has no history: no edges, one row.
  std::vector<Quadruple> edgeless = Queries(data, history, 20, 1);
  ASSERT_TRUE(history.FactsTouchingBefore(edgeless[0].subject, 20).empty());
  QueryGraph single =
      encoder.BuildQueryGraph(history, edgeless, data.num_entities());
  EXPECT_TRUE(single.all_rows().graph.empty());
  EXPECT_EQ(single.ReachableRows().nodes,
            std::vector<int64_t>{edgeless[0].subject});
  ExpectReachableParity(encoder, history, edgeless, h0, r0,
                        data.num_entities());

  // Nothing precedes t = 0: every query subject is an edgeless anchor.
  std::vector<Quadruple> first = {{3, 0, 5, 0}, {9, 1, 2, 0}, {3, 2, 7, 0}};
  QueryGraph empty = encoder.BuildQueryGraph(history, first,
                                             data.num_entities());
  EXPECT_TRUE(empty.all_rows().graph.empty());
  EXPECT_EQ(empty.ReachableRows().nodes, (std::vector<int64_t>{3, 9}));
  ExpectReachableParity(encoder, history, first, h0, r0, data.num_entities());
}

TEST(GlobalEncoderParityTest, CachedSubgraphMemoizesReachableRows) {
  TkgDataset data = ParityDataset();
  HistoryIndex history(data);
  Rng rng(124);
  GlobalEncoder encoder(kDim, {}, &rng);
  std::vector<Quadruple> queries = Queries(data, history, 20, 8);
  auto first = encoder.QuerySubgraph(history, queries, data.num_entities());
  auto second = encoder.QuerySubgraph(history, queries, data.num_entities());
  ASSERT_EQ(first.get(), second.get());
  EXPECT_EQ(&first->ReachableRows(), &second->ReachableRows());
  // Renumbering is monotonic, so the sorted edge order survives it.
  const RowGraph& rows = first->ReachableRows();
  for (int64_t e = 0; e < rows.graph.num_edges(); ++e) {
    const size_t i = static_cast<size_t>(e);
    EXPECT_EQ(rows.nodes[static_cast<size_t>(rows.graph.src[i])],
              first->all_rows().graph.src[i]);
    EXPECT_EQ(rows.nodes[static_cast<size_t>(rows.graph.dst[i])],
              first->all_rows().graph.dst[i]);
  }
}

// Global encodes run, and rows they ran over, since `before`.
struct EncodedRows {
  uint64_t calls = 0;
  uint64_t rows = 0;
};

HistogramSnapshot EncodedRowsHistogram() {
  return Metrics().Snapshot().HistogramValue("logcl.global.encoded_rows");
}

EncodedRows EncodedRowsSince(const HistogramSnapshot& before) {
  HistogramSnapshot now = EncodedRowsHistogram();
  return {now.count - before.count, now.sum - before.sum};
}

struct ObservabilityGuard {
  ObservabilityGuard() : previous_(ObservabilityEnabled()) {
    SetObservabilityEnabled(true);
  }
  ~ObservabilityGuard() { SetObservabilityEnabled(previous_); }
  bool previous_;
};

LogClConfig SmallModelConfig() {
  LogClConfig config;
  config.embedding_dim = kDim;
  config.local.history_length = 2;
  config.decoder.num_kernels = 4;
  config.seed = 125;
  return config;
}

TEST(GlobalEncoderParityTest, LogClGStillScoresEveryEntity) {
  ObservabilityGuard observe;
  TkgDataset data = ParityDataset();
  std::vector<Quadruple> queries;
  for (const Quadruple& q : data.FactsAt(20)) queries.push_back(q);
  queries.resize(4);

  LogClConfig global_only = SmallModelConfig();
  global_only.use_local = false;
  LogClModel model(&data, global_only);
  HistogramSnapshot before = EncodedRowsHistogram();
  std::vector<std::vector<float>> scores = model.ScoreQueries(queries);
  ASSERT_EQ(scores.size(), queries.size());
  for (const std::vector<float>& row : scores) {
    EXPECT_EQ(static_cast<int64_t>(row.size()), data.num_entities());
  }
  EncodedRows encoded = EncodedRowsSince(before);
  EXPECT_EQ(encoded.calls, 1u);
  EXPECT_EQ(encoded.rows, static_cast<uint64_t>(data.num_entities()));

  // With a local encoder the same eval encodes the reachable rows only.
  LogClModel full(&data, SmallModelConfig());
  before = EncodedRowsHistogram();
  full.ScoreQueries(queries);
  encoded = EncodedRowsSince(before);
  EXPECT_EQ(encoded.calls, 1u);
  EXPECT_LT(encoded.rows, static_cast<uint64_t>(data.num_entities()));
}

// The fixed-seed ICEWS14-like run (default LogClConfig, Adam lr 3e-3, two
// epochs): training stays full-width, and the reachable-row eval ranks
// exactly as the full-width one did.
TEST(GlobalEncoderParityTest, FixedSeedTrainingLossesAndTestMrr) {
  TkgDataset dataset = MakePaperDataset(PaperDataset::kIcews14Like);
  TimeAwareFilter filter(dataset);
  LogClModel model(&dataset, LogClConfig{});
  AdamOptions options;
  options.learning_rate = 3e-3f;
  AdamOptimizer optimizer(model.Parameters(), options);
  EXPECT_EQ(model.TrainEpoch(&optimizer).loss, 8.2030902671813966);
  EXPECT_EQ(model.TrainEpoch(&optimizer).loss, 7.7844521395365405);
  EvalResult result = model.Evaluate(Split::kTest, &filter);
  EXPECT_EQ(result.count, 1104);
  EXPECT_NEAR(result.mrr, 18.456740, 5e-7);

  // One served row, pinned bit for bit: the logits over all 120 entities for
  // the first test query (0, 4, ?, 86). The MRR above tolerates small
  // drifts; a reordered op in the GRU, time gate, lambda fusion or decoder
  // projection moves these bits.
  const Quadruple& query = dataset.test().front();
  ASSERT_EQ(query.subject, 0);
  ASSERT_EQ(query.time, 86);
  const std::vector<float> expected = {
      -1.20595253f, -1.18590403f, 1.5810678f, -1.66677558f, -0.434491426f,
      0.193751127f, 0.702148974f, 0.298239768f, -0.99841702f, 0.673720479f,
      0.0515605211f, 0.108712032f, -0.200020075f, -0.257793427f, 0.148446366f,
      -0.641355872f, -0.0982391909f, -0.406477869f, -0.00159797817f,
      -1.60119259f, 0.306874722f, -0.522236109f, -1.99520671f, 0.365066826f,
      -1.25148475f, -4.3498745f, -0.259482175f, -0.277396262f, -0.0327189192f,
      -0.244879335f, -1.42750788f, 1.8526057f, -0.148049653f, -0.76309365f,
      -0.562361479f, 0.289883047f, -0.705509603f, -1.04566061f, -0.587325096f,
      -0.274868369f, -0.90453583f, -1.59162235f, -0.2236f, 1.02609503f,
      1.94776249f, -0.21944876f, 0.0944753513f, -0.20361805f, 0.148602128f,
      0.0640934184f, 0.441083848f, -2.15872884f, 1.04933953f, -0.910973549f,
      0.950412333f, -2.38520885f, -0.124601036f, -0.0543866791f, -1.37288547f,
      0.745720029f, -0.630991936f, -0.648458898f, 0.0619268268f, 0.725890696f,
      -0.430568993f, 0.902035594f, -1.14407945f, 0.196521178f, 0.56115824f,
      0.23295778f, 0.509122729f, 2.35782313f, 1.22394097f, 0.379001528f,
      0.436172128f, -0.511415005f, -0.477817237f, 1.48341119f, -3.92803001f,
      1.21227384f, -0.108916573f, 0.0336821862f, -0.115505308f, 1.80559826f,
      -0.00278784335f, -0.0890511647f, -0.922199965f, 0.155876458f,
      -0.704494417f, 0.799954951f, -0.48137325f, -0.0356689803f, -1.06222045f,
      0.512442112f, 1.09108973f, 0.905622661f, 0.279534876f, -1.02235329f,
      -2.74289441f, -0.356881708f, -0.107324816f, 0.305339068f, 0.149095029f,
      0.0244283658f, -0.740868866f, -0.118966326f, 1.19968259f, -0.649178267f,
      -0.123223826f, -1.28787696f, -0.804735601f, 1.37665737f, -0.460540175f,
      0.664781868f, 0.723231077f, 0.442639232f, 0.0900460482f, -0.422436118f,
      -0.353883356f, -0.0343934372f,
  };
  std::vector<float> row = model.ScoreQueries({query}).front();
  ASSERT_EQ(row.size(), expected.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(row[i]),
              std::bit_cast<uint32_t>(expected[i]))
        << "entity " << i << ": " << row[i] << " vs " << expected[i];
  }
}

// Serving builds a subgraph per batch, so its node count — and the [N, d]
// activations sized by it — changes with every batch. Size-class buckets
// keep the pool from stranding one bucket per distinct size.
TEST(GlobalEncoderParityTest, PoolStaysBoundedUnderPerBatchShapes) {
  TkgDataset data = ParityDataset();
  LogClModel model(&data, SmallModelConfig());
  const int64_t time = 25;
  LogClModel::EvolutionState evolution = model.PrecomputeEvolution(time);
  HistoryIndex history(data);
  std::mt19937_64 gen(126);
  std::uniform_int_distribution<int64_t> batch_size(1, 64);
  std::uniform_int_distribution<int64_t> entity(0, data.num_entities() - 1);
  std::uniform_int_distribution<int64_t> relation(
      0, data.num_relations_with_inverse() - 1);
  TrimBufferPool();
  for (int batch = 0; batch < 1000; ++batch) {
    std::vector<Quadruple> queries(static_cast<size_t>(batch_size(gen)));
    for (Quadruple& q : queries) q = {entity(gen), relation(gen), 0, time};
    model.ScoreWithEvolution(queries, evolution, history);
  }
  // Exact-size buckets pooled ~10 MiB here; size classes pool ~2 MiB.
  EXPECT_LT(PoolSnapshot().pooled_bytes, uint64_t{5} << 20)
      << PoolSnapshot().ToString();
}

}  // namespace
}  // namespace logcl
