// ConvTransE decoder (Shang et al. 2019), the score function of LogCL,
// RE-GCN and TiRGN: a 1-D CNN over the stacked (entity, relation) pair
// followed by a fully-connected projection; candidate scores are dot
// products with every entity embedding.

#ifndef LOGCL_NN_CONVTRANSE_H_
#define LOGCL_NN_CONVTRANSE_H_

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace logcl {

/// Decoder hyperparameters (paper: 50 kernels of size 2x3, dropout 0.2).
struct ConvTransEOptions {
  int64_t num_kernels = 16;  // paper: 50 at d=200; leaner at this scale
  float dropout = 0.2f;
};

class ConvTransE : public Module {
 public:
  ConvTransE(int64_t dim, ConvTransEOptions options, Rng* rng);

  /// Feature extraction: queries (h, r) [B, d] -> decoded query vector
  /// [B, d] (conv -> ReLU -> dropout -> FC -> ReLU).
  Tensor Decode(const Tensor& h, const Tensor& r, bool training,
                Rng* rng) const;

  /// Full scoring: Decode then dot products against all candidate entity
  /// embeddings `entities` [E, d]; returns logits [B, E].
  Tensor Score(const Tensor& h, const Tensor& r, const Tensor& entities,
               bool training, Rng* rng) const;

 private:
  ConvTransEOptions options_;
  Tensor kernels_;  // [K, 6] 2-channel width-3 taps
  Tensor kernel_bias_;  // [K]
  Linear fc_;       // K*d -> d
};

}  // namespace logcl

#endif  // LOGCL_NN_CONVTRANSE_H_
