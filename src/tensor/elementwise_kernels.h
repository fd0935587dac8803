// Scalar elementwise-op definitions for tensor/ops.cc: the forward formula
// and local derivative of every table-driven unary op, plus the same-shape
// binary backward epilogue. Each formula lives here once, and the
// kind-specialised loops below constant-fold the per-element switch.

#ifndef LOGCL_TENSOR_ELEMENTWISE_KERNELS_H_
#define LOGCL_TENSOR_ELEMENTWISE_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/parallel.h"

namespace logcl {
namespace ewise {

/// Arithmetic kind of an ElementwiseBinary call when the SIMD layer has a
/// dedicated kernel pair for it (tensor/simd.h). kGeneric keeps the lambda
/// loops.
enum class BinaryKind : uint8_t { kGeneric, kAdd, kSub, kMul };

/// Unary ops with a closed-form (x, y, param) -> dy/dx in the table below.
/// Relu is not listed: it has dedicated SIMD kernels.
enum class UnaryKind : uint8_t {
  kNeg,
  kSigmoid,
  kTanh,
  kLeakyRelu,  // param = negative slope
  kExp,
  kLog,        // param = clamp epsilon
  kCos,
};

/// Forward formula y = f(x). `param` is used only by the kinds annotated
/// above.
inline float UnaryForward(UnaryKind kind, float x, float param) {
  switch (kind) {
    case UnaryKind::kNeg:
      return -x;
    case UnaryKind::kSigmoid: {
      // Stable logistic.
      if (x >= 0.0f) {
        float e = std::exp(-x);
        return 1.0f / (1.0f + e);
      }
      float e = std::exp(x);
      return e / (1.0f + e);
    }
    case UnaryKind::kTanh:
      return std::tanh(x);
    case UnaryKind::kLeakyRelu:
      return x > 0.0f ? x : param * x;
    case UnaryKind::kExp:
      return std::exp(x);
    case UnaryKind::kLog:
      return std::log(std::max(x, param));
    case UnaryKind::kCos:
      return std::cos(x);
  }
  return x;
}

/// Local derivative dy/dx at (x, y = UnaryForward(x)).
inline float UnaryDeriv(UnaryKind kind, float x, float y, float param) {
  switch (kind) {
    case UnaryKind::kNeg:
      return -1.0f;
    case UnaryKind::kSigmoid:
      return y * (1.0f - y);
    case UnaryKind::kTanh:
      return 1.0f - y * y;
    case UnaryKind::kLeakyRelu:
      return x > 0.0f ? 1.0f : param;
    case UnaryKind::kExp:
      return y;
    case UnaryKind::kLog:
      return 1.0f / std::max(x, param);
    case UnaryKind::kCos:
      return -std::sin(x);
  }
  return 0.0f;
}

namespace internal {

// Kind-specialised loop bodies so the per-element switch in UnaryForward /
// UnaryDeriv constant-folds away; the formulas stay single-sourced above.
template <UnaryKind K>
inline void UnaryForwardLoopT(const float* x, float* y, int64_t n,
                              float param) {
  for (int64_t i = 0; i < n; ++i) y[i] = UnaryForward(K, x[i], param);
}

// Fresh = the destination is an unwritten kUninit grad buffer
// (TensorNode::GradForFullWrite): every element is written as
// `0.0f + contribution`, bitwise-equal to zero-fill + accumulate.
template <UnaryKind K, bool Fresh>
inline void UnaryBackwardLoopT(const float* g, const float* x, const float* y,
                               float* gx, int64_t n, float param) {
  for (int64_t i = 0; i < n; ++i) {
    float d = g[i] * UnaryDeriv(K, x[i], y[i], param);
    if constexpr (Fresh) {
      gx[i] = 0.0f + d;
    } else {
      gx[i] += d;
    }
  }
}

template <bool Fresh>
inline void UnaryBackwardKernelT(UnaryKind kind, const float* g,
                                 const float* x, const float* y, float* gx,
                                 int64_t n, float param) {
  switch (kind) {
    case UnaryKind::kNeg:
      return UnaryBackwardLoopT<UnaryKind::kNeg, Fresh>(g, x, y, gx, n, param);
    case UnaryKind::kSigmoid:
      return UnaryBackwardLoopT<UnaryKind::kSigmoid, Fresh>(g, x, y, gx, n,
                                                            param);
    case UnaryKind::kTanh:
      return UnaryBackwardLoopT<UnaryKind::kTanh, Fresh>(g, x, y, gx, n,
                                                         param);
    case UnaryKind::kLeakyRelu:
      return UnaryBackwardLoopT<UnaryKind::kLeakyRelu, Fresh>(g, x, y, gx, n,
                                                              param);
    case UnaryKind::kExp:
      return UnaryBackwardLoopT<UnaryKind::kExp, Fresh>(g, x, y, gx, n, param);
    case UnaryKind::kLog:
      return UnaryBackwardLoopT<UnaryKind::kLog, Fresh>(g, x, y, gx, n, param);
    case UnaryKind::kCos:
      return UnaryBackwardLoopT<UnaryKind::kCos, Fresh>(g, x, y, gx, n, param);
  }
}

}  // namespace internal

/// y[i] = f(x[i]) over [0, n); the serial kernel the unary op runs per
/// shard.
inline void UnaryForwardKernel(UnaryKind kind, const float* x, float* y,
                               int64_t n, float param) {
  using internal::UnaryForwardLoopT;
  switch (kind) {
    case UnaryKind::kNeg:
      return UnaryForwardLoopT<UnaryKind::kNeg>(x, y, n, param);
    case UnaryKind::kSigmoid:
      return UnaryForwardLoopT<UnaryKind::kSigmoid>(x, y, n, param);
    case UnaryKind::kTanh:
      return UnaryForwardLoopT<UnaryKind::kTanh>(x, y, n, param);
    case UnaryKind::kLeakyRelu:
      return UnaryForwardLoopT<UnaryKind::kLeakyRelu>(x, y, n, param);
    case UnaryKind::kExp:
      return UnaryForwardLoopT<UnaryKind::kExp>(x, y, n, param);
    case UnaryKind::kLog:
      return UnaryForwardLoopT<UnaryKind::kLog>(x, y, n, param);
    case UnaryKind::kCos:
      return UnaryForwardLoopT<UnaryKind::kCos>(x, y, n, param);
  }
}

/// gx[i] += g[i] * f'(x[i]) over [0, n), reading the input x and the
/// output y. With fresh=true the destination is an unwritten kUninit buffer
/// and each element is written as 0.0f + contribution instead (bitwise-equal
/// to zero-fill + the accumulate form; see TensorNode::GradForFullWrite).
inline void UnaryBackwardKernel(UnaryKind kind, const float* g, const float* x,
                                const float* y, float* gx, int64_t n,
                                float param, bool fresh = false) {
  if (fresh) {
    internal::UnaryBackwardKernelT<true>(kind, g, x, y, gx, n, param);
  } else {
    internal::UnaryBackwardKernelT<false>(kind, g, x, y, gx, n, param);
  }
}

/// Same-shape binary backward epilogue: one pass computes both local grads
/// and accumulates whichever sides are live (null pointer = side without
/// requires_grad). Replaces the three near-identical hand-unrolled loops the
/// eager path used to carry; the null checks are still hoisted out of the
/// element loop, so each live combination stays branch-free per element.
/// `bwd` is the (g, a, b, *da, *db) local-gradient functor of the op.
/// fresh_a / fresh_b mark a destination that is an unwritten kUninit grad
/// buffer: that side is written as 0.0f + contribution instead of
/// accumulated (bitwise-equal to zero-fill + accumulate).
template <typename BackwardFn>
void SameShapeBinaryBackward(const float* g, const float* ad, const float* bd,
                             float* ga, float* gb, int64_t n, int64_t grain,
                             const BackwardFn& bwd, bool fresh_a = false,
                             bool fresh_b = false) {
  auto run = [&](auto write_a, auto write_b, auto fa, auto fb) {
    ParallelFor(0, n, grain, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        float da = 0.0f, db = 0.0f;
        bwd(g[i], ad[i], bd[i], &da, &db);
        if constexpr (decltype(write_a)::value) {
          if constexpr (decltype(fa)::value) {
            ga[i] = 0.0f + da;
          } else {
            ga[i] += da;
          }
        }
        if constexpr (decltype(write_b)::value) {
          if constexpr (decltype(fb)::value) {
            gb[i] = 0.0f + db;
          } else {
            gb[i] += db;
          }
        }
      }
    });
  };
  auto run_b = [&](auto write_a, auto fa) {
    if (gb != nullptr) {
      if (fresh_b) {
        run(write_a, std::true_type{}, fa, std::true_type{});
      } else {
        run(write_a, std::true_type{}, fa, std::false_type{});
      }
    } else {
      run(write_a, std::false_type{}, fa, std::false_type{});
    }
  };
  if (ga != nullptr) {
    if (fresh_a) {
      run_b(std::true_type{}, std::true_type{});
    } else {
      run_b(std::true_type{}, std::false_type{});
    }
  } else if (gb != nullptr) {
    run_b(std::false_type{}, std::false_type{});
  }
}

}  // namespace ewise
}  // namespace logcl

#endif  // LOGCL_TENSOR_ELEMENTWISE_KERNELS_H_
