// Local entity-aware attention recurrent encoder (Section III.C).
//
// Pipeline per query time t_q with history length m:
//   for each snapshot s in [t_q - m, t_q):
//     H_dyn   = W0 [H || cos((t_q - s) w_t + b_t)]          (Eq.2-3)
//     H_agg_s = RGCN_Local(snapshot graph, H_dyn, R)        (Eq.4)
//     H       = GRU_Ent(H, H_agg_s)                         (Eq.5)
//     R'      = mean(entities touching r at s) + R          (Eq.6)
//     U       = sigmoid(W3 R' + b);  R = U*R' + (1-U)*R     (Eq.7-8)
// followed by the per-query entity-aware attention over the snapshot states
// (Eq.9-11).

#ifndef LOGCL_CORE_LOCAL_ENCODER_H_
#define LOGCL_CORE_LOCAL_ENCODER_H_

#include <vector>

#include "common/rng.h"
#include "graph/rel_graph_encoder.h"
#include "nn/gru_cell.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/time_encoding.h"
#include "tkg/dataset.h"

namespace logcl {

/// Everything downstream consumers need from one local encoding pass.
struct LocalEncoderOutput {
  /// Final evolved entity matrix H_{t_q} [E, d] (candidate embeddings).
  Tensor entities;
  /// Final evolved relation matrix R_{t_q} [2R, d].
  Tensor relations;
  /// Per-snapshot aggregated states H^Agg (attention keys, Eq.10).
  std::vector<Tensor> aggregated;
  /// Per-snapshot evolved states (attention values, Eq.11).
  std::vector<Tensor> evolved;
};

struct LocalEncoderOptions {
  int64_t history_length = 5;  // m
  GcnKind gcn_kind = GcnKind::kRgcn;
  int64_t num_layers = 2;
  float dropout = 0.2f;
  int64_t time_dim = 16;
  /// Eq.2-3 periodic time encoding; RE-GCN-style baselines disable it.
  bool use_time_encoding = true;
};

class LocalEncoder : public Module {
 public:
  LocalEncoder(int64_t dim, int64_t num_relations_with_inverse,
               LocalEncoderOptions options, Rng* rng);

  /// Runs snapshot aggregation + sequence evolution over the m snapshots
  /// preceding `t` (clipped at time 0). Base embeddings are the model's
  /// H_0 / R_0 leaves (optionally noise-perturbed by the caller).
  /// `history_length_override` > 0 replaces options().history_length for
  /// this pass (CEN's length-diversified ensemble).
  LocalEncoderOutput Encode(const TkgDataset& dataset, int64_t t,
                            const Tensor& base_entities,
                            const Tensor& base_relations, bool training,
                            Rng* rng,
                            int64_t history_length_override = 0) const;

  /// Evolution over an explicit snapshot-graph window: `graphs[i]` is the
  /// snapshot at `times[i]` (ascending, all < t). This is the entry point of
  /// the serving engine's Advance, whose newest snapshots are not part of
  /// any TkgDataset; Encode delegates here, so both paths are bitwise
  /// identical given identical graphs.
  LocalEncoderOutput EncodeSequence(
      const std::vector<const SnapshotGraph*>& graphs,
      const std::vector<int64_t>& times, int64_t t,
      const Tensor& base_entities, const Tensor& base_relations,
      bool training, Rng* rng) const;

  /// Entity-aware attention (Eq.9-11): per-query local representation.
  /// Queries supply (subject, relation); rows of the result align with
  /// `queries`. With `use_attention` false the final evolved state is
  /// returned directly (ablation "-w/o-eatt").
  Tensor QueryRepresentations(const LocalEncoderOutput& output,
                              const std::vector<Quadruple>& queries,
                              bool use_attention) const;

  const LocalEncoderOptions& options() const { return options_; }

 private:
  LocalEncoderOptions options_;
  RelGraphEncoder aggregator_;
  TimeEncoding time_encoding_;
  GruCell entity_gru_;
  Tensor w_time_gate_;   // W3 of Eq.8
  Tensor b_time_gate_;
  Linear w_query_;       // W4 of Eq.9 ([r || h] -> d)
  Linear w_attention_;   // W5 of Eq.10 (d -> 1)
};

}  // namespace logcl

#endif  // LOGCL_CORE_LOCAL_ENCODER_H_
