// Tests for checkpoint save/load and the static filter protocol.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/logcl_model.h"
#include "synth/generator.h"
#include "tensor/checkpoint.h"
#include "tkg/filters.h"

namespace logcl {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(SerializationTest, RoundTripPreservesValues) {
  Rng rng(1);
  std::vector<Tensor> params = {
      Tensor::RandomNormal(Shape{3, 4}, 1.0f, &rng, true),
      Tensor::RandomNormal(Shape{7}, 1.0f, &rng, true),
      Tensor::Scalar(2.5f, true),
  };
  std::string path = TempPath("logcl_ckpt_roundtrip.bin");
  ASSERT_TRUE(checkpoint::Save(params, path).ok());

  Rng rng2(99);
  std::vector<Tensor> restored = {
      Tensor::RandomNormal(Shape{3, 4}, 1.0f, &rng2, true),
      Tensor::RandomNormal(Shape{7}, 1.0f, &rng2, true),
      Tensor::Scalar(0.0f, true),
  };
  ASSERT_TRUE(checkpoint::Load(path, &restored).ok());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(restored[i].data(), params[i].data()) << "tensor " << i;
  }
  fs::remove(path);
}

TEST(SerializationTest, ShapeMismatchIsRejected) {
  Rng rng(2);
  std::vector<Tensor> params = {Tensor::RandomNormal(Shape{2, 2}, 1.0f, &rng,
                                                     true)};
  std::string path = TempPath("logcl_ckpt_shape.bin");
  ASSERT_TRUE(checkpoint::Save(params, path).ok());
  std::vector<Tensor> wrong = {Tensor::Zeros(Shape{2, 3}, true)};
  Status status = checkpoint::Load(path, &wrong);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  fs::remove(path);
}

TEST(SerializationTest, CountMismatchIsRejected) {
  Rng rng(3);
  std::vector<Tensor> params = {Tensor::RandomNormal(Shape{2}, 1.0f, &rng,
                                                     true)};
  std::string path = TempPath("logcl_ckpt_count.bin");
  ASSERT_TRUE(checkpoint::Save(params, path).ok());
  std::vector<Tensor> wrong = {Tensor::Zeros(Shape{2}, true),
                               Tensor::Zeros(Shape{2}, true)};
  EXPECT_FALSE(checkpoint::Load(path, &wrong).ok());
  fs::remove(path);
}

TEST(SerializationTest, GarbageFileIsRejected) {
  std::string path = TempPath("logcl_ckpt_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a checkpoint", f);
    std::fclose(f);
  }
  std::vector<Tensor> params = {Tensor::Zeros(Shape{1}, true)};
  Status status = checkpoint::Load(path, &params);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  fs::remove(path);
}

TEST(SerializationTest, MissingFileIsIoError) {
  std::vector<Tensor> params = {Tensor::Zeros(Shape{1}, true)};
  EXPECT_EQ(checkpoint::Load("/nonexistent/ckpt.bin", &params).code(),
            StatusCode::kIoError);
}

// --- malformed headers: every decoder returns a Status, never crashes -----

// A hand-built checkpoint: "LGCLCKPT", then little-endian fields.
class CraftedCheckpoint {
 public:
  explicit CraftedCheckpoint(uint32_t version) {
    bytes_.append("LGCLCKPT", 8);
    Put(version);
  }
  template <typename T>
  CraftedCheckpoint& Put(T value) {
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof(T));
    return *this;
  }
  // Zero bytes, so count-vs-size bounds do not reject the file first.
  CraftedCheckpoint& Pad(size_t n) {
    bytes_.append(n, '\0');
    return *this;
  }
  std::string Write(const char* name) const {
    std::string path = TempPath(name);
    std::ofstream(path, std::ios::binary) << bytes_;
    return path;
  }

 private:
  std::string bytes_;
};

// A v2 header for one tensor of the given rank and dims, with a payload
// offset past the header and enough padding to cover it.
CraftedCheckpoint V2OneTensor(uint32_t rank, std::vector<uint64_t> dims) {
  CraftedCheckpoint file(2);
  file.Put(uint32_t{64}).Put(uint64_t{1}).Put(rank).Put(uint32_t{0});
  for (uint64_t d : dims) file.Put(d);
  file.Put(uint64_t{64}).Pad(128);
  return file;
}

CraftedCheckpoint V1OneTensor(uint32_t rank, std::vector<uint64_t> dims) {
  CraftedCheckpoint file(1);
  file.Put(uint64_t{1}).Put(rank);
  for (uint64_t d : dims) file.Put(d);
  file.Pad(128);
  return file;
}

void ExpectLoadInvalid(const std::string& path) {
  std::vector<Tensor> params = {Tensor::Zeros(Shape{4}, true)};
  Status status = checkpoint::Load(path, &params);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

void ExpectOpenInvalid(const std::string& path) {
  Result<checkpoint::MmapCheckpoint> opened = checkpoint::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();
}

TEST(CheckpointHeaderTest, CountBeyondFileSizeIsInvalid) {
  CraftedCheckpoint file(2);
  file.Put(uint32_t{64}).Put(uint64_t{1} << 61).Pad(64);
  std::string path = file.Write("logcl_ckpt_huge_count.bin");
  ExpectLoadInvalid(path);
  ExpectOpenInvalid(path);
  fs::remove(path);
}

TEST(CheckpointHeaderTest, HugeRankIsInvalid) {
  std::string v1 = V1OneTensor(0xFFFFFFF0u, {}).Write("logcl_ckpt_rank1.bin");
  ExpectLoadInvalid(v1);
  std::string v2 = V2OneTensor(0xFFFFFFF0u, {}).Write("logcl_ckpt_rank2.bin");
  ExpectLoadInvalid(v2);
  ExpectOpenInvalid(v2);
  fs::remove(v1);
  fs::remove(v2);
}

TEST(CheckpointHeaderTest, NegativeDimIsInvalid) {
  const uint64_t dim = uint64_t{1} << 63;
  std::string v1 = V1OneTensor(1, {dim}).Write("logcl_ckpt_negdim1.bin");
  ExpectLoadInvalid(v1);
  std::string v2 = V2OneTensor(1, {dim}).Write("logcl_ckpt_negdim2.bin");
  ExpectLoadInvalid(v2);
  ExpectOpenInvalid(v2);
  fs::remove(v1);
  fs::remove(v2);
}

TEST(CheckpointHeaderTest, OverflowingPayloadSizeIsInvalid) {
  // 4 * (2^62 + 1) wraps to 4 bytes in u64 arithmetic; so does the
  // product of two 2^32 dims.
  for (std::vector<uint64_t> dims :
       {std::vector<uint64_t>{(uint64_t{1} << 62) + 1},
        std::vector<uint64_t>{uint64_t{1} << 32, uint64_t{1} << 32}}) {
    const uint32_t rank = static_cast<uint32_t>(dims.size());
    std::string v1 = V1OneTensor(rank, dims).Write("logcl_ckpt_wrap1.bin");
    ExpectLoadInvalid(v1);
    std::string v2 = V2OneTensor(rank, dims).Write("logcl_ckpt_wrap2.bin");
    ExpectLoadInvalid(v2);
    ExpectOpenInvalid(v2);
    fs::remove(v1);
    fs::remove(v2);
  }
}

TEST(SerializationTest, TrainedModelSurvivesRestart) {
  // Train a model, checkpoint it, restore into a fresh instance, and check
  // the two produce identical scores.
  SynthConfig config;
  config.seed = 61;
  config.num_entities = 20;
  config.num_relations = 4;
  config.num_timestamps = 20;
  TkgDataset data = GenerateSyntheticTkg(config);
  LogClConfig model_config;
  model_config.embedding_dim = 8;
  model_config.local.history_length = 2;
  model_config.local.num_layers = 1;
  model_config.global.num_layers = 1;
  model_config.decoder.num_kernels = 4;

  LogClModel trained(&data, model_config);
  AdamOptimizer optimizer(trained.Parameters(), {});
  trained.TrainEpoch(&optimizer);
  std::string path = TempPath("logcl_ckpt_model.bin");
  ASSERT_TRUE(checkpoint::Save(trained.Parameters(), path).ok());

  LogClModel restored(&data, model_config);
  std::vector<Tensor> params = restored.Parameters();
  ASSERT_TRUE(checkpoint::Load(path, &params).ok());

  std::vector<Quadruple> queries = {{0, 0, 1, 17}, {3, 2, 5, 17}};
  EXPECT_EQ(trained.ScoreQueries(queries), restored.ScoreQueries(queries));
  fs::remove(path);
}

TEST(StaticFilterTest, AnswersSpanAllTimes) {
  TkgDataset d = TkgDataset::FromQuadruples(
      "t", 4, 1, {{0, 0, 1, 0}, {0, 0, 2, 1}}, {{0, 0, 3, 2}}, {{0, 0, 1, 3}});
  StaticFilter filter(d);
  EXPECT_EQ(filter.Answers(0, 0), (std::vector<int64_t>{1, 2, 3}));
  // Inverse side is indexed too.
  EXPECT_EQ(filter.Answers(1, 1), (std::vector<int64_t>{0}));
  EXPECT_TRUE(filter.Answers(3, 0).empty());
}

TEST(StaticFilterTest, StaticFiltersAtLeastAsMuchAsTimeAware) {
  SynthConfig config;
  config.seed = 62;
  config.num_entities = 30;
  config.num_relations = 5;
  config.num_timestamps = 30;
  TkgDataset d = GenerateSyntheticTkg(config);
  StaticFilter static_filter(d);
  TimeAwareFilter time_filter(d);
  for (const Quadruple& q : d.test()) {
    const auto& static_answers = static_filter.Answers(q.subject, q.relation);
    for (int64_t o : time_filter.Answers(q.subject, q.relation, q.time)) {
      EXPECT_TRUE(std::find(static_answers.begin(), static_answers.end(), o) !=
                  static_answers.end())
          << "time-aware answer missing from static index";
    }
  }
}

}  // namespace
}  // namespace logcl
