// Tests for the inter-op autograd engine (tensor/backward.cc): bitwise
// parity of the ready-queue executor against the serial tape replay across
// thread counts, the scalar-loss API contract and its explicit-seed escape
// hatch, the kUninit fresh-grad write path under poison mode (including the
// -0.0 normalisation the `0.0f + x` form exists for), full-epoch training
// parity with LOGCL_INTEROP on/off, and the logcl.autograd.* metrics.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/observability.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/logcl_model.h"
#include "synth/generator.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace logcl {
namespace {

// Restores the default thread count when a test exits, pass or fail.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetNumThreads(0); }
};

// Forces the inter-op engine on/off for a scope and restores the previous
// mode (which may come from the LOGCL_INTEROP env var).
struct InterOpModeGuard {
  explicit InterOpModeGuard(bool enabled) : previous_(InterOpEnabled()) {
    SetInterOpEnabled(enabled);
  }
  ~InterOpModeGuard() { SetInterOpEnabled(previous_); }
  bool previous_;
};

// Scoped poison mode (read-before-write detection on kUninit buffers).
struct PoisonModeGuard {
  explicit PoisonModeGuard(bool enabled) : previous_(PoisonUninitEnabled()) {
    SetPoisonUninitEnabled(enabled);
  }
  ~PoisonModeGuard() { SetPoisonUninitEnabled(previous_); }
  bool previous_;
};

// --- Diamond workload -------------------------------------------------------
//
// One shared input feeds `branches` independent MatMul + activation towers
// whose scalar summaries re-join into a single loss. The shared input has
// one distinct consumer per branch (>= 8 below), and the towers carry no
// data dependencies between each other, so the ready queue can run them
// concurrently — exactly the shape the per-parent consumer chains must
// serialise into tape order to stay bitwise-equal to the serial replay.

struct DiamondResult {
  float loss = 0.0f;
  std::vector<std::vector<float>> grads;  // shared input first, then weights
};

DiamondResult RunDiamond(int branches, bool interop, int threads) {
  ThreadCountGuard thread_guard;
  SetNumThreads(threads);
  InterOpModeGuard mode(interop);
  Rng rng(1234);
  Tensor x = Tensor::RandomNormal(Shape{12, 24}, 0.5f, &rng,
                                  /*requires_grad=*/true);
  std::vector<Tensor> weights;
  weights.reserve(branches);
  for (int b = 0; b < branches; ++b) {
    weights.push_back(Tensor::RandomNormal(Shape{24, 24}, 0.5f, &rng,
                                           /*requires_grad=*/true));
  }
  Tensor total;
  for (int b = 0; b < branches; ++b) {
    Tensor h = ops::MatMul(x, weights[b]);
    switch (b % 3) {  // vary activations so branches are not symmetric
      case 0:
        h = ops::Tanh(h);
        break;
      case 1:
        h = ops::Relu(h);
        break;
      default:
        h = ops::Sigmoid(h);
        break;
    }
    h = ops::Mul(h, h);  // h gets two consumer slots of one node
    Tensor term = ops::SumAll(h);
    total = total.defined() ? ops::Add(total, term) : term;
  }
  Tensor loss = ops::Scale(total, 1.0f / static_cast<float>(branches));
  Backward(loss);
  DiamondResult r;
  r.loss = loss.at(0);
  r.grads.push_back(x.grad());
  for (const Tensor& w : weights) r.grads.push_back(w.grad());
  return r;
}

TEST(AutogradParityTest, DiamondBitwiseIdenticalAcrossInterOpAndThreads) {
  // >= 8 distinct consumers of the shared tensor, per the engine's
  // multi-consumer accumulation contract.
  const DiamondResult reference = RunDiamond(10, /*interop=*/false, 1);
  ASSERT_EQ(reference.grads.size(), 11u);
  for (bool interop : {false, true}) {
    for (int threads : {1, 4, 8}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        DiamondResult run = RunDiamond(10, interop, threads);
        EXPECT_EQ(reference.loss, run.loss)
            << "interop=" << interop << " threads=" << threads
            << " repeat=" << repeat;
        ASSERT_EQ(reference.grads.size(), run.grads.size());
        for (size_t i = 0; i < reference.grads.size(); ++i) {
          EXPECT_EQ(reference.grads[i], run.grads[i])
              << "grad " << i << " interop=" << interop
              << " threads=" << threads << " repeat=" << repeat;
        }
      }
    }
  }
}

// Randomised DAGs with heavy tensor sharing: every intermediate is eligible
// as an operand of later ops, so multi-consumer chains of varying length and
// interleaving appear. Serial and inter-op engines must agree bitwise.
TEST(AutogradParityTest, RandomSharedDagsBitwiseIdentical) {
  auto run = [](uint64_t seed, bool interop, int threads) {
    ThreadCountGuard thread_guard;
    SetNumThreads(threads);
    InterOpModeGuard mode(interop);
    Rng rng(seed);
    const Shape shape{6, 8};
    std::vector<Tensor> pool;
    pool.push_back(Tensor::RandomNormal(shape, 0.5f, &rng, true));
    pool.push_back(Tensor::RandomNormal(shape, 0.5f, &rng, true));
    for (int step = 0; step < 40; ++step) {
      const Tensor& a = pool[rng.UniformInt(pool.size())];
      const Tensor& b = pool[rng.UniformInt(pool.size())];
      Tensor out;
      switch (rng.UniformInt(6)) {
        case 0:
          out = ops::Add(a, b);
          break;
        case 1:
          out = ops::Sub(a, b);
          break;
        case 2:
          out = ops::Mul(a, b);
          break;
        case 3:
          out = ops::Tanh(a);
          break;
        case 4:
          out = ops::Relu(a);
          break;
        default:
          out = ops::Scale(a, 0.5f);
          break;
      }
      pool.push_back(out);
    }
    Tensor loss = ops::MeanAll(pool.back());
    for (size_t i = pool.size() - 4; i < pool.size() - 1; ++i) {
      loss = ops::Add(loss, ops::MeanAll(pool[i]));
    }
    Backward(loss);
    std::vector<std::vector<float>> grads;
    grads.push_back(pool[0].grad());
    grads.push_back(pool[1].grad());
    return grads;
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto reference = run(seed, /*interop=*/false, 1);
    for (int threads : {4, 8}) {
      auto parallel = run(seed, /*interop=*/true, threads);
      ASSERT_EQ(reference.size(), parallel.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i], parallel[i])
            << "seed=" << seed << " threads=" << threads << " leaf=" << i;
      }
    }
  }
}

// --- API contract -----------------------------------------------------------

TEST(AutogradApiDeathTest, BackwardRequiresScalarLoss) {
  Tensor x = Tensor::Full(Shape{2, 3}, 1.0f, /*requires_grad=*/true);
  Tensor y = ops::Scale(x, 2.0f);
  EXPECT_DEATH(Backward(y), "scalar loss");
}

TEST(AutogradApiDeathTest, SeedGradientMustMatchLossSize) {
  Tensor x = Tensor::Full(Shape{2, 3}, 1.0f, /*requires_grad=*/true);
  Tensor y = ops::Scale(x, 2.0f);
  Tensor seed = Tensor::Full(Shape{2, 2}, 1.0f);
  EXPECT_DEATH(Backward(y, seed), "seed");
}

// Backward(y, seed) is defined as d(sum(y * seed))/dx. With a seed whose
// values survive the product exactly (powers of two), the explicit-seed path
// must be bitwise-equal to the scalar-loss formulation.
TEST(AutogradApiTest, ExplicitSeedGradientMatchesScalarFormulation) {
  auto make_input = [] {
    Rng rng(77);
    return Tensor::RandomNormal(Shape{4, 5}, 1.0f, &rng,
                                /*requires_grad=*/true);
  };
  Tensor x1 = make_input();
  Tensor y1 = ops::Tanh(x1);
  Tensor seed = Tensor::Full(Shape{4, 5}, 0.5f);
  Backward(y1, seed);

  Tensor x2 = make_input();
  Tensor loss = ops::SumAll(ops::Mul(ops::Tanh(x2), seed));
  Backward(loss);

  EXPECT_EQ(x1.grad(), x2.grad());
}

// --- Fresh-grad (kUninit) path ---------------------------------------------

// With poison mode on, a read of an unwritten pooled buffer surfaces as NaN.
// The fresh-grad path acquires grads as kUninit and promises full coverage;
// if any kernel under-writes, the poison leaks into the leaf grads.
TEST(AutogradFreshGradTest, PoisonModeStaysCleanUnderInterOp) {
  PoisonModeGuard poison(true);
  DiamondResult r = RunDiamond(9, /*interop=*/true, 4);
  EXPECT_TRUE(std::isfinite(r.loss));
  for (const auto& grad : r.grads) {
    for (float g : grad) ASSERT_TRUE(std::isfinite(g)) << "poisoned grad";
  }
}

// The fresh kernels write `0.0f + contribution`, not a plain store, so that
// a -0.0 contribution lands as +0.0 exactly like accumulating into a zeroed
// buffer. Mul backward with g = -1 against a zero operand produces -0.0
// contributions; the leaf grad must come out +0.0 on both paths.
TEST(AutogradFreshGradTest, NegativeZeroContributionsNormalised) {
  auto leaf_grad = [](bool interop) {
    InterOpModeGuard mode(interop);
    Tensor x = Tensor::Full(Shape{3, 7}, 2.0f, /*requires_grad=*/true);
    Tensor zeros = Tensor::Zeros(Shape{3, 7});
    // d(loss)/dx = -1 * zeros = -0.0 per element before normalisation.
    Tensor loss = ops::Scale(ops::SumAll(ops::Mul(x, zeros)), -1.0f);
    Backward(loss);
    return x.grad();
  };
  for (bool interop : {false, true}) {
    std::vector<float> grad = leaf_grad(interop);
    ASSERT_EQ(grad.size(), 21u);
    for (float g : grad) {
      EXPECT_EQ(g, 0.0f) << "interop=" << interop;
      EXPECT_FALSE(std::signbit(g)) << "-0.0 leaked, interop=" << interop;
    }
  }
}

// --- Full-epoch parity ------------------------------------------------------

struct EpochResult {
  double loss = 0.0;
  std::vector<std::vector<float>> scores;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> grads;
};

TkgDataset SmallDataset() {
  SynthConfig config;
  config.seed = 88;
  config.num_entities = 16;
  config.num_relations = 3;
  config.num_timestamps = 15;
  return GenerateSyntheticTkg(config);
}

EpochResult RunEpochInterOp(const TkgDataset& d, bool interop) {
  InterOpModeGuard mode(interop);
  LogClConfig config;
  config.embedding_dim = 8;
  config.local.history_length = 2;
  config.local.num_layers = 1;
  config.global.num_layers = 1;
  config.decoder.num_kernels = 4;
  config.seed = 99;
  LogClModel model(&d, config);
  AdamOptimizer optimizer(model.Parameters(), {});
  EpochResult r;
  r.loss = model.TrainEpoch(&optimizer).loss;
  r.scores = model.ScoreQueries({{0, 0, 1, 13}, {2, 1, 3, 13}});
  for (const Tensor& p : model.Parameters()) {
    r.params.push_back(p.data());
    r.grads.push_back(p.grad());
  }
  return r;
}

TEST(AutogradEpochParityTest, TrainEpochBitwiseIdenticalInterOpOnOff) {
  TkgDataset d = SmallDataset();
  for (int threads : {1, 4}) {
    ThreadCountGuard thread_guard;
    SetNumThreads(threads);
    EpochResult on = RunEpochInterOp(d, /*interop=*/true);
    EpochResult off = RunEpochInterOp(d, /*interop=*/false);
    EXPECT_EQ(on.loss, off.loss) << threads << " threads";
    EXPECT_EQ(on.scores, off.scores) << threads << " threads";
    ASSERT_EQ(on.params.size(), off.params.size());
    for (size_t i = 0; i < on.params.size(); ++i) {
      EXPECT_EQ(on.params[i], off.params[i])
          << "parameter " << i << " at " << threads << " threads";
      EXPECT_EQ(on.grads[i], off.grads[i])
          << "grad " << i << " at " << threads << " threads";
    }
  }
}

// --- Metrics ----------------------------------------------------------------

class AutogradMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = ObservabilityEnabled();
    SetObservabilityEnabled(true);  // CI also runs with LOGCL_OBSERVABILITY=0
  }
  void TearDown() override { SetObservabilityEnabled(previous_); }
  bool previous_ = false;
};

TEST_F(AutogradMetricsTest, EngineCountersPublished) {
  MetricsSnapshot before = Metrics().Snapshot();
  RunDiamond(10, /*interop=*/true, 4);
  MetricsSnapshot after = Metrics().Snapshot();
  EXPECT_GT(after.CounterValue("logcl.autograd.backwards"),
            before.CounterValue("logcl.autograd.backwards"));
  EXPECT_GT(after.CounterValue("logcl.autograd.interop_backwards"),
            before.CounterValue("logcl.autograd.interop_backwards"));
  EXPECT_GT(after.CounterValue("logcl.autograd.nodes"),
            before.CounterValue("logcl.autograd.nodes"));
  // Every executed node is attributed to exactly one drain mode.
  uint64_t executed = after.CounterValue("logcl.autograd.inline_nodes") +
                      after.CounterValue("logcl.autograd.pooled_nodes");
  uint64_t executed_before =
      before.CounterValue("logcl.autograd.inline_nodes") +
      before.CounterValue("logcl.autograd.pooled_nodes");
  EXPECT_EQ(executed - executed_before,
            after.CounterValue("logcl.autograd.nodes") -
                before.CounterValue("logcl.autograd.nodes"));
  EXPECT_GE(after.HistogramValue("logcl.autograd.ready_depth").count,
            before.HistogramValue("logcl.autograd.ready_depth").count);
}

TEST_F(AutogradMetricsTest, SerialEngineSkipsInterOpCounters) {
  MetricsSnapshot before = Metrics().Snapshot();
  RunDiamond(10, /*interop=*/false, 4);
  MetricsSnapshot after = Metrics().Snapshot();
  EXPECT_GT(after.CounterValue("logcl.autograd.backwards"),
            before.CounterValue("logcl.autograd.backwards"));
  EXPECT_EQ(after.CounterValue("logcl.autograd.interop_backwards"),
            before.CounterValue("logcl.autograd.interop_backwards"));
}

}  // namespace
}  // namespace logcl
