// Serving demo: the train -> checkpoint -> deploy -> advance lifecycle.
//
// A model is trained briefly and checkpointed; a fresh "deployment" process
// restores the weights and wraps them in an InferenceEngine, which freezes
// the local evolution once per horizon and micro-batches concurrent
// queries. When the horizon's events arrive, Advance() folds them into the
// next snapshot without pausing serving.

#include <cstdio>
#include <filesystem>

#include "core/logcl_model.h"
#include "core/trainer.h"
#include "serve/inference_engine.h"
#include "synth/presets.h"
#include "tensor/checkpoint.h"
#include "tkg/filters.h"

int main() {
  using namespace logcl;  // NOLINT: example brevity

  TkgDataset dataset = MakePaperDataset(PaperDataset::kIcews14Like);
  std::printf("dataset: %s\n", dataset.Stats().ToString().c_str());

  LogClConfig config;
  config.embedding_dim = 32;

  // --- Train and checkpoint. ---
  LogClModel trainer_model(&dataset, config);
  TimeAwareFilter filter(dataset);
  OfflineOptions offline;
  offline.epochs = 2;
  offline.learning_rate = 3e-3f;
  EvalResult trained = TrainAndEvaluate(&trainer_model, &filter, offline);
  std::printf("trained:  %s\n", trained.ToString().c_str());
  std::string checkpoint_path =
      (std::filesystem::temp_directory_path() / "serve_demo_ckpt.bin")
          .string();
  if (!checkpoint::Save(trainer_model.Parameters(), checkpoint_path).ok()) {
    std::printf("checkpoint save failed\n");
    return 1;
  }

  // --- Deploy: fresh model + restored weights + engine. ---
  LogClModel deployed(&dataset, config);
  if (!LoadModelCheckpoint(&deployed, checkpoint_path).ok()) {
    std::printf("checkpoint load failed\n");
    return 1;
  }
  std::filesystem::remove(checkpoint_path);

  int64_t horizon = dataset.num_timestamps() - 2;
  EngineOptions options;
  options.max_batch_size = 16;
  InferenceEngine engine(&deployed, horizon, options);
  std::printf("serving at horizon t=%lld\n",
              static_cast<long long>(engine.time()));

  // --- Answer a few queries drawn from the horizon's real events. ---
  const std::vector<Quadruple>& day = dataset.FactsAt(horizon);
  for (size_t i = 0; i < 3 && i < day.size(); ++i) {
    const Quadruple& fact = day[i];
    auto top = engine.TopK({fact.subject, fact.relation}, 3);
    std::printf("query (s=%lld, r=%lld, ?):",
                static_cast<long long>(fact.subject),
                static_cast<long long>(fact.relation));
    for (const auto& [entity, prob] : top) {
      std::printf("  e%lld %.3f", static_cast<long long>(entity), prob);
    }
    std::printf("   (actual: e%lld)\n", static_cast<long long>(fact.object));
  }

  // --- The horizon's events arrive: advance and keep serving. ---
  engine.Advance(dataset.FactsAt(horizon));
  std::printf("advanced to horizon t=%lld\n",
              static_cast<long long>(engine.time()));
  const std::vector<Quadruple>& next_day = dataset.FactsAt(horizon + 1);
  if (!next_day.empty()) {
    const Quadruple& fact = next_day[0];
    auto top = engine.TopK({fact.subject, fact.relation}, 3);
    std::printf("query (s=%lld, r=%lld, ?):",
                static_cast<long long>(fact.subject),
                static_cast<long long>(fact.relation));
    for (const auto& [entity, prob] : top) {
      std::printf("  e%lld %.3f", static_cast<long long>(entity), prob);
    }
    std::printf("   (actual: e%lld)\n", static_cast<long long>(fact.object));
  }

  std::printf("engine counters: %s\n", engine.Snapshot().ToString().c_str());
  return 0;
}
