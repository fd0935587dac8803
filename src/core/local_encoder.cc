#include "core/local_encoder.h"

#include "common/logging.h"
#include "common/observability.h"
#include "graph/snapshot_graph.h"
#include "tensor/ops.h"

namespace logcl {

LocalEncoder::LocalEncoder(int64_t dim, int64_t num_relations_with_inverse,
                           LocalEncoderOptions options, Rng* rng)
    : options_(options),
      aggregator_(options.gcn_kind, options.num_layers, dim, options.dropout,
                  rng),
      time_encoding_(dim, options.time_dim, rng),
      entity_gru_(dim, rng),
      w_query_(2 * dim, dim, rng),
      w_attention_(dim, 1, rng) {
  (void)num_relations_with_inverse;
  w_time_gate_ = AddParameter(Tensor::XavierUniform(Shape{dim, dim}, rng));
  b_time_gate_ =
      AddParameter(Tensor::Zeros(Shape{1, dim}, /*requires_grad=*/true));
  AddChild(&aggregator_);
  AddChild(&time_encoding_);
  AddChild(&entity_gru_);
  AddChild(&w_query_);
  AddChild(&w_attention_);
}

LocalEncoderOutput LocalEncoder::Encode(const TkgDataset& dataset, int64_t t,
                                        const Tensor& base_entities,
                                        const Tensor& base_relations,
                                        bool training, Rng* rng,
                                        int64_t history_length_override) const {
  LOGCL_CHECK_GE(t, 0);
  int64_t history_length = history_length_override > 0
                               ? history_length_override
                               : options_.history_length;
  int64_t start = std::max<int64_t>(0, t - history_length);
  // Structure cache: the inverse-augmented snapshot graph (and its CSR
  // layouts) is built once per timestamp for the dataset's lifetime.
  std::vector<const SnapshotGraph*> graphs;
  std::vector<int64_t> times;
  graphs.reserve(static_cast<size_t>(t - start));
  times.reserve(static_cast<size_t>(t - start));
  for (int64_t s = start; s < t; ++s) {
    graphs.push_back(&dataset.SnapshotGraphAt(s));
    times.push_back(s);
  }
  return EncodeSequence(graphs, times, t, base_entities, base_relations,
                        training, rng);
}

LocalEncoderOutput LocalEncoder::EncodeSequence(
    const std::vector<const SnapshotGraph*>& graphs,
    const std::vector<int64_t>& times, int64_t t,
    const Tensor& base_entities, const Tensor& base_relations, bool training,
    Rng* rng) const {
  LOGCL_TRACE_SCOPE("local_encoder");
  LOGCL_CHECK_EQ(graphs.size(), times.size());
  LocalEncoderOutput out;
  Tensor entities = base_entities;
  Tensor relations = base_relations;
  int64_t num_entities = base_entities.shape().rows();
  int64_t num_relations = base_relations.shape().rows();

  for (size_t i = 0; i < graphs.size(); ++i) {
    int64_t s = times[i];
    LOGCL_CHECK_LT(s, t);
    const SnapshotGraph& graph = *graphs[i];
    LOGCL_CHECK_EQ(graph.num_nodes, num_entities);

    // Eq.2-3: fold the time interval into the entity features.
    Tensor dynamic = options_.use_time_encoding
                         ? time_encoding_.Forward(entities, t - s)
                         : entities;
    // Eq.4: snapshot aggregation.
    Tensor aggregated =
        aggregator_.Forward(graph, dynamic, relations, training, rng);
    // Eq.5: entity evolution.
    entities = entity_gru_.Forward(entities, aggregated);

    // Eq.6: r' = mean(entities connected to r at s) + r.
    Tensor relation_input;
    if (graph.empty()) {
      relation_input = relations;
    } else {
      Tensor subject_states = ops::IndexSelectRows(entities, graph.src);
      Tensor per_relation_mean =
          ops::ScatterMeanRows(subject_states, graph.RelCsr(num_relations));
      relation_input = ops::Add(per_relation_mean, relations);
    }
    // Eq.7-8: U = sigmoid(R' W3 + b); R = U*R' + (1-U)*R.
    Tensor gate = ops::Sigmoid(
        ops::Add(ops::MatMul(relation_input, w_time_gate_), b_time_gate_));
    Tensor keep = ops::AddScalar(ops::Neg(gate), 1.0f);
    relations = ops::Add(ops::Mul(gate, relation_input),
                         ops::Mul(keep, relations));

    out.aggregated.push_back(aggregated);
    out.evolved.push_back(entities);
  }
  out.entities = entities;
  out.relations = relations;
  return out;
}

Tensor LocalEncoder::QueryRepresentations(const LocalEncoderOutput& output,
                                          const std::vector<Quadruple>& queries,
                                          bool use_attention) const {
  LOGCL_CHECK(!queries.empty());
  std::vector<int64_t> subjects;
  std::vector<int64_t> relations;
  subjects.reserve(queries.size());
  relations.reserve(queries.size());
  for (const Quadruple& q : queries) {
    subjects.push_back(q.subject);
    relations.push_back(q.relation);
  }
  Tensor subject_final = ops::IndexSelectRows(output.entities, subjects);
  int64_t num_steps = static_cast<int64_t>(output.aggregated.size());
  if (!use_attention || num_steps <= 1) {
    // Ablation "-w/o-eatt" (or degenerate 0/1-snapshot history): the final
    // evolved state is the local query representation.
    return subject_final;
  }

  // Eq.9: query vector from the query relation and the subject state.
  Tensor query_relations = ops::IndexSelectRows(output.relations, relations);
  Tensor query_vec =
      w_query_.Forward(ops::ConcatCols({query_relations, subject_final}));

  // Eq.10: one attention logit per intermediate snapshot (the final state
  // enters Eq.11 unweighted), softmax across snapshots per query.
  std::vector<Tensor> logit_columns;
  for (int64_t i = 0; i < num_steps - 1; ++i) {
    Tensor keys = ops::IndexSelectRows(output.aggregated[static_cast<size_t>(i)],
                                       subjects);
    logit_columns.push_back(
        w_attention_.Forward(ops::Add(keys, query_vec)));
  }
  Tensor alpha = logit_columns.size() == 1
                     ? Tensor()  // softmax over one column is all-ones
                     : ops::Softmax(ops::ConcatCols(logit_columns));

  // Eq.11: h = h_{t_q} + sum_i alpha_i * evolved_i.
  Tensor result = subject_final;
  for (int64_t i = 0; i < num_steps - 1; ++i) {
    Tensor values = ops::IndexSelectRows(output.evolved[static_cast<size_t>(i)],
                                         subjects);
    if (alpha.defined()) {
      Tensor column = ops::SliceCols(alpha, i, 1);
      values = ops::MulColBroadcast(values, column);
    }
    result = ops::Add(result, values);
  }
  return result;
}

}  // namespace logcl
