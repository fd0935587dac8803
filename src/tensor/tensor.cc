#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/stringpiece.h"
#include "tensor/buffer_pool.h"

namespace logcl {

namespace internal_tensor {

TensorNode::~TensorNode() {
  ReleaseBuffer(std::move(data));
  ReleaseBuffer(std::move(grad));
}

void TensorNode::EnsureGrad() {
  if (grad.size() != data.size()) {
    ReleaseBuffer(std::move(grad));
    grad = AcquireBuffer(data.size(), BufferFill::kZero);
  }
}

float* TensorNode::GradForFullWrite(bool* fresh) {
  if (grad.size() == data.size()) {
    *fresh = false;
    return grad.data();
  }
  // First contribution fully overwrites, so the zero-fill is elided; with
  // LOGCL_POISON_UNINIT=1 the buffer arrives sNaN-poisoned and a kernel
  // that fails the full-write contract is caught downstream.
  ReleaseBuffer(std::move(grad));
  grad = AcquireBuffer(data.size(), BufferFill::kUninit);
  *fresh = true;
  return grad.data();
}

}  // namespace internal_tensor

namespace {
// Thread-local so a NoGradGuard during evaluation on one thread cannot race
// with (or silently disable) tape recording on another.
thread_local bool g_grad_mode = true;
std::atomic<uint64_t> g_sequence{0};

Tensor::NodePtr NewNode(const Shape& shape, std::vector<float> data,
                        bool requires_grad) {
  LOGCL_CHECK_EQ(static_cast<int64_t>(data.size()), shape.num_elements());
  auto node = std::make_shared<internal_tensor::TensorNode>();
  node->shape = shape;
  node->data = std::move(data);
  node->requires_grad = requires_grad;
  node->sequence = g_sequence.fetch_add(1, std::memory_order_relaxed);
  return node;
}
}  // namespace

bool GradModeEnabled() { return g_grad_mode; }

NoGradGuard::NoGradGuard() : previous_(g_grad_mode) { g_grad_mode = false; }
NoGradGuard::~NoGradGuard() { g_grad_mode = previous_; }

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return Tensor(NewNode(
      shape,
      AcquireBuffer(static_cast<size_t>(shape.num_elements()),
                    BufferFill::kZero),
      requires_grad));
}

Tensor Tensor::Uninitialized(const Shape& shape, bool requires_grad) {
  return Tensor(NewNode(
      shape,
      AcquireBuffer(static_cast<size_t>(shape.num_elements()),
                    BufferFill::kUninit),
      requires_grad));
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  std::vector<float> values = AcquireBuffer(
      static_cast<size_t>(shape.num_elements()), BufferFill::kUninit);
  std::fill(values.begin(), values.end(), value);
  return Tensor(NewNode(shape, std::move(values), requires_grad));
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  // Caller-allocated storage becomes pool-tracked on adoption so the live
  // counters balance when ~TensorNode releases it.
  NoteAdoptedBuffer(values.size());
  return Tensor(NewNode(shape, std::move(values), requires_grad));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  std::vector<float> values = AcquireBuffer(1, BufferFill::kUninit);
  values[0] = value;
  return Tensor(NewNode(Shape{}, std::move(values), requires_grad));
}

Tensor Tensor::XavierUniform(const Shape& shape, Rng* rng, bool requires_grad) {
  LOGCL_CHECK(rng != nullptr);
  LOGCL_CHECK_GE(shape.rank(), 1);
  int64_t fan_in = shape.rank() >= 2 ? shape.dim(0) : shape.num_elements();
  int64_t fan_out = shape.rank() >= 2 ? shape.dim(1) : shape.num_elements();
  double bound = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  std::vector<float> values = AcquireBuffer(
      static_cast<size_t>(shape.num_elements()), BufferFill::kUninit);
  for (auto& v : values) v = static_cast<float>(rng->Uniform(-bound, bound));
  return Tensor(NewNode(shape, std::move(values), requires_grad));
}

Tensor Tensor::RandomNormal(const Shape& shape, float stddev, Rng* rng,
                            bool requires_grad) {
  LOGCL_CHECK(rng != nullptr);
  std::vector<float> values = AcquireBuffer(
      static_cast<size_t>(shape.num_elements()), BufferFill::kUninit);
  for (auto& v : values) v = static_cast<float>(rng->Normal(0.0, stddev));
  return Tensor(NewNode(shape, std::move(values), requires_grad));
}

const Shape& Tensor::shape() const {
  LOGCL_CHECK(defined());
  return node_->shape;
}

const std::vector<float>& Tensor::data() const {
  LOGCL_CHECK(defined());
  return node_->data;
}

std::vector<float>& Tensor::mutable_data() {
  LOGCL_CHECK(defined());
  return node_->data;
}

bool Tensor::requires_grad() const {
  LOGCL_CHECK(defined());
  return node_->requires_grad;
}

void Tensor::set_requires_grad(bool value) {
  LOGCL_CHECK(defined());
  node_->requires_grad = value;
}

const std::vector<float>& Tensor::grad() const {
  LOGCL_CHECK(defined());
  const_cast<internal_tensor::TensorNode*>(node_.get())->EnsureGrad();
  return node_->grad;
}

std::vector<float>& Tensor::mutable_grad() {
  LOGCL_CHECK(defined());
  node_->EnsureGrad();
  return node_->grad;
}

void Tensor::ZeroGrad() {
  LOGCL_CHECK(defined());
  if (node_->grad.size() != node_->data.size()) {
    node_->EnsureGrad();  // acquires an already-zeroed buffer
    return;
  }
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

float Tensor::at(int64_t index) const {
  LOGCL_CHECK(defined());
  LOGCL_CHECK_GE(index, 0);
  LOGCL_CHECK_LT(index, static_cast<int64_t>(node_->data.size()));
  return node_->data[static_cast<size_t>(index)];
}

float Tensor::at(int64_t row, int64_t col) const {
  LOGCL_CHECK(defined());
  LOGCL_CHECK_EQ(shape().rank(), 2);
  LOGCL_CHECK_GE(row, 0);
  LOGCL_CHECK_LT(row, shape().rows());
  LOGCL_CHECK_GE(col, 0);
  LOGCL_CHECK_LT(col, shape().cols());
  return node_->data[static_cast<size_t>(row * shape().cols() + col)];
}

Tensor Tensor::Clone() const {
  LOGCL_CHECK(defined());
  std::vector<float> values =
      AcquireBuffer(node_->data.size(), BufferFill::kUninit);
  std::copy(node_->data.begin(), node_->data.end(), values.begin());
  return Tensor(NewNode(node_->shape, std::move(values),
                        /*requires_grad=*/false));
}

std::string Tensor::ToString(int max_values) const {
  if (!defined()) return "Tensor(undefined)";
  std::string out = "Tensor" + shape().ToString() + " {";
  int64_t n = std::min<int64_t>(num_elements(), max_values);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%.4g", node_->data[static_cast<size_t>(i)]);
  }
  if (n < num_elements()) out += ", ...";
  out += "}";
  return out;
}

Tensor Tensor::MakeOpOutput(
    const Shape& shape, std::vector<float> data, std::vector<Tensor> parents,
    std::function<void(internal_tensor::TensorNode&)> backward_fn) {
  bool any_grad = false;
  if (GradModeEnabled()) {
    for (const Tensor& p : parents) {
      if (p.defined() && p.requires_grad()) {
        any_grad = true;
        break;
      }
    }
  }
  Tensor out(NewNode(shape, std::move(data), any_grad));
  if (any_grad) {
    auto& node = *out.node_;
    node.parents.reserve(parents.size());
    for (const Tensor& p : parents) node.parents.push_back(p.node());
    node.backward_fn = std::move(backward_fn);
  }
  return out;
}

}  // namespace logcl
