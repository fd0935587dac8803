// logcl_cli: end-to-end command-line driver — train any zoo model on a
// preset or on-disk dataset, evaluate it (offline or online protocol), and
// save/restore checkpoints.
//
// Examples:
//   logcl_cli --dataset icews14 --model LogCL --epochs 10 --save model.ckpt
//   logcl_cli --dataset /data/ICEWS14 --model TiRGN --epochs 8
//   logcl_cli --dataset icews18 --model LogCL --load model.ckpt --eval-only
//   logcl_cli --dataset gdelt --model CEN --online

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "baselines/model_zoo.h"
#include "common/observability.h"
#include "core/trainer.h"
#include "synth/presets.h"
#include "tensor/checkpoint.h"
#include "tkg/filters.h"

namespace {

void Usage() {
  std::printf(
      "usage: logcl_cli [options]\n"
      "  --dataset NAME   icews14 | icews18 | icews0515 | gdelt (synthetic\n"
      "                   stand-ins), or a directory with train/valid/test.txt\n"
      "  --model NAME     zoo model (default LogCL); --list to enumerate\n"
      "  --epochs N       training epochs (default: per-model zoo default)\n"
      "  --lr F           learning rate (default 3e-3)\n"
      "  --dim N          embedding size (default 32)\n"
      "  --history N      local history length m (default 5)\n"
      "  --seed N         RNG seed (default 7)\n"
      "  --save PATH      write a checkpoint after training\n"
      "  --load PATH      load a checkpoint before training/eval\n"
      "  --eval-only      skip training\n"
      "  --online         use the online evaluation protocol (Fig.10)\n"
      "  --raw            additionally report raw (unfiltered) metrics\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logcl;  // NOLINT: tool brevity
  EnableMetricsDumpAtExit();  // honour LOGCL_METRICS_DUMP[_FILE]

  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    }
    if (arg == "--list") {
      for (const ZooEntry& entry : ModelZooEntries()) {
        std::printf("%s\n", entry.name.c_str());
      }
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      Usage();
      return 1;
    }
    std::string key = arg.substr(2);
    if (key == "eval-only" || key == "online" || key == "raw") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      return 1;
    }
  }

  auto flag = [&flags](const std::string& key, const std::string& fallback) {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };

  // Dataset.
  std::string dataset_name = flag("dataset", "icews14");
  TkgDataset dataset = [&]() -> TkgDataset {
    if (dataset_name == "icews14") {
      return MakePaperDataset(PaperDataset::kIcews14Like);
    }
    if (dataset_name == "icews18") {
      return MakePaperDataset(PaperDataset::kIcews18Like);
    }
    if (dataset_name == "icews0515") {
      return MakePaperDataset(PaperDataset::kIcews0515Like);
    }
    if (dataset_name == "gdelt") {
      return MakePaperDataset(PaperDataset::kGdeltLike);
    }
    Result<TkgDataset> loaded = TkgDataset::LoadTsv(dataset_name, dataset_name);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load dataset: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(loaded).value();
  }();
  std::printf("dataset: %s\n", dataset.Stats().ToString().c_str());

  // Model.
  ZooOptions zoo;
  zoo.embedding_dim = std::atoll(flag("dim", "32").c_str());
  zoo.history_length = std::atoll(flag("history", "5").c_str());
  zoo.seed = static_cast<uint64_t>(std::atoll(flag("seed", "7").c_str()));
  std::string model_name = flag("model", "LogCL");
  std::unique_ptr<TkgModel> model = MakeZooModel(model_name, &dataset, zoo);
  std::printf("model: %s (%lld parameters)\n", model->name().c_str(),
              static_cast<long long>(model->NumParameterElements()));

  if (flags.contains("load")) {
    std::vector<Tensor> parameters = model->Parameters();
    Status status = checkpoint::Load(flags["load"], &parameters);
    if (!status.ok()) {
      std::fprintf(stderr, "checkpoint load failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("loaded checkpoint %s\n", flags["load"].c_str());
  }

  TimeAwareFilter filter(dataset);
  int64_t epochs = flags.contains("epochs")
                       ? std::atoll(flags["epochs"].c_str())
                       : DefaultEpochsFor(model_name);
  float lr = std::strtof(flag("lr", "0.003").c_str(), nullptr);

  EvalResult result;
  if (flags.contains("online")) {
    OnlineOptions options;
    options.offline_epochs = flags.contains("eval-only") ? 0 : epochs;
    options.learning_rate = lr;
    options.verbose = true;
    result = TrainAndEvaluateOnline(model.get(), &filter, options);
  } else {
    OfflineOptions options;
    options.epochs = flags.contains("eval-only") ? 0 : epochs;
    options.learning_rate = lr;
    options.verbose = true;
    result = TrainAndEvaluate(model.get(), &filter, options);
  }
  std::printf("time-aware filtered: %s\n", result.ToString().c_str());
  if (flags.contains("raw")) {
    EvalResult raw = model->Evaluate(Split::kTest, nullptr);
    std::printf("raw (unfiltered):    %s\n", raw.ToString().c_str());
  }

  if (flags.contains("save")) {
    Status status = checkpoint::Save(model->Parameters(), flags["save"]);
    if (!status.ok()) {
      std::fprintf(stderr, "checkpoint save failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("saved checkpoint %s\n", flags["save"].c_str());
  }
  return 0;
}
