// TkgModel: the interface every model in the zoo (LogCL + 14 baselines)
// implements, plus the shared evaluation protocol (per-timestamp batches,
// object prediction over original and inverse query sets, time-aware
// filtered ranking).

#ifndef LOGCL_CORE_TKG_MODEL_H_
#define LOGCL_CORE_TKG_MODEL_H_

#include <string>
#include <vector>

#include "eval/metrics.h"
#include "nn/module.h"
#include "tensor/optimizer.h"
#include "tensor/sparse_adam.h"
#include "tkg/dataset.h"
#include "tkg/filters.h"

namespace logcl {

/// Structured result of one training epoch (or one accumulated step).
/// `loss` is the scalar the old `double TrainEpoch` returned; the remaining
/// fields break it down by component and phase. Models fill what applies to
/// them (baselines leave the contrast terms zero); for every model
/// loss ≈ loss_task + loss_contrast + loss_aux within fp tolerance.
struct EpochStats {
  int64_t steps = 0;  // optimizer steps taken (timestamps visited)

  // Mean per-step loss components.
  double loss = 0.0;           // total objective (the old scalar)
  double loss_task = 0.0;      // cross-entropy L_tkg (Eq.20)
  double loss_contrast = 0.0;  // combined L_cl (Eq.17/21), mean of active
  double loss_aux = 0.0;       // model-specific extras (e.g. CENET term)
  // Raw (undivided) contrast terms of Eq.17: L_lg, L_gl, L_ll, L_gg.
  // loss_contrast is their mean over the *active* terms.
  double loss_lg = 0.0;
  double loss_gl = 0.0;
  double loss_ll = 0.0;
  double loss_gg = 0.0;

  /// Mean pre-clip global gradient norm (AdamOptimizer::ClipGradNorm).
  double grad_norm = 0.0;

  // Wall-time totals for the epoch, by phase. seconds_total covers the whole
  // epoch; the phase entries only the instrumented spans inside it.
  double seconds_total = 0.0;
  double seconds_local = 0.0;      // local evolution (Eq.2-11)
  double seconds_forward = 0.0;    // scoring + loss forward phases
  double seconds_backward = 0.0;   // autograd tape walk
  double seconds_optimizer = 0.0;  // clip + Adam step

  /// Adds one step's stats (losses accumulate as sums until FinalizeMeans).
  void AccumulateStep(const EpochStats& step);
  /// Divides the accumulated loss/grad-norm sums by `steps`.
  void FinalizeMeans();
  /// One-line human-readable summary (used by FitModel's verbose logging).
  std::string ToString() const;
};

/// Which query sets the evaluation (and two-phase training) covers.
enum class QueryDirection {
  kBoth,         // original + inverse query sets (standard protocol)
  kForwardOnly,  // Table VII "LogCL-FP"
  kInverseOnly,  // Table VII "LogCL-SP"
};

class TkgModel : public Module {
 public:
  explicit TkgModel(const TkgDataset* dataset);
  ~TkgModel() override = default;

  /// Short display name used in result tables.
  virtual std::string name() const = 0;

  /// Scores one batch of queries (all sharing one timestamp) against every
  /// entity. Rows align with `queries`; runs in eval mode (no grad).
  virtual std::vector<std::vector<float>> ScoreQueries(
      const std::vector<Quadruple>& queries) = 0;

  /// One pass over the training split; returns per-component losses,
  /// grad-norm and per-phase timings. `EpochStats::loss` is the mean total
  /// loss the pre-redesign `double TrainEpoch` returned.
  virtual EpochStats TrainEpoch(AdamOptimizer* optimizer) = 0;

  /// Online-learning hook (Section IV.H): one gradient update on the facts
  /// of timestamp `t` after it has been evaluated. Models that do not
  /// support online updates keep the default no-op.
  virtual double TrainOnTimestamp(int64_t t, AdamOptimizer* optimizer) {
    (void)t;
    (void)optimizer;
    return 0.0;
  }

  /// Sparse-update variant of the online-learning hook: the same gradient
  /// update, but stepping only the parameter rows the batch's gradients
  /// touch (tensor/sparse_adam.h) — the streaming continual-learning entry.
  /// No gradient clipping runs on this path. Models that do not support
  /// sparse online updates keep the default no-op.
  virtual double TrainOnTimestampSparse(int64_t t,
                                        SparseAdamOptimizer* optimizer) {
    (void)t;
    (void)optimizer;
    return 0.0;
  }

  /// Standard evaluation: per timestamp of `split`, rank the object of each
  /// fact and (for kBoth) of each inverse fact. `filter` enables the
  /// time-aware filtered setting (nullptr = raw).
  EvalResult Evaluate(Split split, const TimeAwareFilter* filter,
                      QueryDirection direction = QueryDirection::kBoth);

  const TkgDataset& dataset() const { return *dataset_; }

 protected:
  const TkgDataset* dataset_;
};

/// Trains `model` for `epochs` epochs with Adam(learning_rate) and gradient
/// clipping, logging per-epoch loss when `verbose`.
void FitModel(TkgModel* model, int64_t epochs, float learning_rate,
              bool verbose = false);

}  // namespace logcl

#endif  // LOGCL_CORE_TKG_MODEL_H_
