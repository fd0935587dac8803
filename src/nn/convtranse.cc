#include "nn/convtranse.h"

#include "common/logging.h"
#include "common/observability.h"
#include "tensor/ops.h"

namespace logcl {

ConvTransE::ConvTransE(int64_t dim, ConvTransEOptions options, Rng* rng)
    : options_(options), fc_(options.num_kernels * dim, dim, rng) {
  kernels_ = AddParameter(
      Tensor::XavierUniform(Shape{options_.num_kernels, 6}, rng));
  kernel_bias_ = AddParameter(
      Tensor::Zeros(Shape{options_.num_kernels}, /*requires_grad=*/true));
  AddChild(&fc_);
}

Tensor ConvTransE::Decode(const Tensor& h, const Tensor& r, bool training,
                          Rng* rng) const {
  LOGCL_CHECK(h.shape() == r.shape());
  Tensor features = ops::Relu(ops::Conv2x3(h, r, kernels_, kernel_bias_));
  features = ops::Dropout(features, options_.dropout, training, rng);
  return ops::Relu(fc_.Forward(features));
}

Tensor ConvTransE::Score(const Tensor& h, const Tensor& r,
                         const Tensor& entities, bool training,
                         Rng* rng) const {
  LOGCL_TRACE_SCOPE("decoder");
  Tensor decoded = Decode(h, r, training, rng);
  return ops::MatMul(decoded, ops::Transpose(entities));
}

}  // namespace logcl
