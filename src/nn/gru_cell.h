// Matrix-form GRU cell (Eq.5): one step over a batch of states.

#ifndef LOGCL_NN_GRU_CELL_H_
#define LOGCL_NN_GRU_CELL_H_

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace logcl {

/// Standard GRU update:
///   z = sigmoid(x Wz + h Uz + bz)
///   r = sigmoid(x Wr + h Ur + br)
///   n = tanh(x Wn + (r * h) Un + bn)
///   h' = z * h + (1 - z) * n
/// Both the input x and the state h have `dim` features.
class GruCell : public Module {
 public:
  GruCell(int64_t dim, Rng* rng);

  /// h and x are [n, dim]; returns the next state [n, dim].
  Tensor Forward(const Tensor& h, const Tensor& x) const;

 private:
  Tensor wz_, uz_, bz_;
  Tensor wr_, ur_, br_;
  Tensor wn_, un_, bn_;
};

}  // namespace logcl

#endif  // LOGCL_NN_GRU_CELL_H_
