#include "nn/gru_cell.h"

#include "tensor/ops.h"

namespace logcl {
namespace {

// sigmoid(x W + h U + b).
Tensor Gate(const Tensor& x, const Tensor& w, const Tensor& h,
            const Tensor& u, const Tensor& b) {
  Tensor xw = ops::MatMul(x, w);
  Tensor hu = ops::MatMul(h, u);
  return ops::Sigmoid(ops::Add(ops::Add(xw, hu), b));
}

}  // namespace

GruCell::GruCell(int64_t dim, Rng* rng) {
  auto weight = [&] {
    return AddParameter(Tensor::XavierUniform(Shape{dim, dim}, rng));
  };
  auto bias = [&] {
    return AddParameter(Tensor::Zeros(Shape{1, dim}, /*requires_grad=*/true));
  };
  wz_ = weight(); uz_ = weight(); bz_ = bias();
  wr_ = weight(); ur_ = weight(); br_ = bias();
  wn_ = weight(); un_ = weight(); bn_ = bias();
}

Tensor GruCell::Forward(const Tensor& h, const Tensor& x) const {
  Tensor z = Gate(x, wz_, h, uz_, bz_);
  Tensor r = Gate(x, wr_, h, ur_, br_);
  Tensor xw = ops::MatMul(x, wn_);
  Tensor rhu = ops::MatMul(ops::Mul(r, h), un_);
  Tensor n = ops::Tanh(ops::Add(ops::Add(xw, rhu), bn_));
  // h' = z*h + (1-z)*n.
  Tensor one_minus_z = ops::AddScalar(ops::Neg(z), 1.0f);
  return ops::Add(ops::Mul(z, h), ops::Mul(one_minus_z, n));
}

}  // namespace logcl
