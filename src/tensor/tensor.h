// A dense float32 tensor with tape-based reverse-mode automatic
// differentiation. This is the computational substrate that replaces
// libtorch for the whole repository: every model in src/nn, src/core and
// src/baselines trains through it.
//
// Design notes:
//  * A Tensor is a cheap shared handle to a TensorImpl that owns the data.
//  * Ops (see ops.h) build a DAG: each op output remembers its inputs and a
//    closure that maps the output gradient to input gradients.
//  * Backward(loss) topologically sorts the DAG and accumulates gradients
//    into every reachable tensor with requires_grad().
//  * Gradient recording can be suspended with NoGradGuard (evaluation).
#ifndef FAIRWOS_TENSOR_TENSOR_H_
#define FAIRWOS_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace fairwos::tensor {

/// Alignment of tensor storage: one cache line, one 512-bit vector.
inline constexpr size_t kTensorAlignment = 64;

/// Stateless STL allocator returning kTensorAlignment-aligned storage.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(size_t n) {
    // aligned_alloc wants a non-zero multiple of the alignment.
    const size_t bytes =
        (n * sizeof(T) + kTensorAlignment - 1) & ~(kTensorAlignment - 1);
    void* p = std::aligned_alloc(kTensorAlignment,
                                 bytes == 0 ? kTensorAlignment : bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t) noexcept { std::free(p); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// The storage type behind TensorImpl::data: vector semantics, 64-byte
/// aligned.
using FloatBuffer = std::vector<float, AlignedAllocator<float>>;

/// Tensor dimensions; rank 1 and 2 are what the library uses in practice.
using Shape = std::vector<int64_t>;

/// Number of elements in a shape.
int64_t NumElements(const Shape& shape);

/// Human-readable shape, e.g. "[128, 16]".
std::string ShapeToString(const Shape& shape);

class Tensor;

namespace internal {

/// The owned state behind a Tensor handle. Public members are internal API:
/// user code goes through Tensor.
struct TensorImpl {
  Shape shape;
  FloatBuffer data;  // 64-byte aligned
  bool requires_grad = false;
  std::vector<float> grad;  // allocated lazily, same length as data

  // Autograd tape: inputs this tensor was computed from and the closure that
  // propagates `grad` into them. Empty for leaves.
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::function<void(TensorImpl&)> backward_fn;

  void EnsureGrad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

}  // namespace internal

/// While alive, newly created op outputs do not record the autograd tape.
/// Used for evaluation passes and for constants derived from parameters.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// True when gradient recording is currently enabled.
bool GradRecordingEnabled();

/// Shared handle to a dense float tensor; copying shares storage.
class Tensor {
 public:
  /// An empty handle; most APIs require a non-empty tensor.
  Tensor() = default;

  // --- Construction -------------------------------------------------------

  /// All zeros / ones / `value`.
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);

  /// Copies `values` into aligned storage; size must match the shape.
  static Tensor FromVector(Shape shape, std::vector<float> values);

  /// A scalar (shape [1]).
  static Tensor Scalar(float value);

  /// IID uniform in [lo, hi) / standard normal * stddev.
  static Tensor RandUniform(Shape shape, float lo, float hi,
                            common::Rng* rng);
  static Tensor RandNormal(Shape shape, float stddev, common::Rng* rng);

  // --- Introspection ------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl().shape; }
  int64_t dim(int i) const;
  int64_t rank() const { return static_cast<int64_t>(impl().shape.size()); }
  int64_t numel() const { return static_cast<int64_t>(impl().data.size()); }

  /// Raw row-major storage (64-byte aligned).
  const FloatBuffer& data() const { return impl().data; }
  FloatBuffer& mutable_data() { return impl().data; }

  /// Element accessors (rank 1 / rank 2).
  float at(int64_t i) const;
  float at(int64_t i, int64_t j) const;
  void set(int64_t i, float v);
  void set(int64_t i, int64_t j, float v);

  /// Value of a one-element tensor.
  float item() const;

  // --- Autograd -----------------------------------------------------------

  bool requires_grad() const { return impl().requires_grad; }

  /// Marks this tensor as a trainable leaf; returns *this for chaining.
  Tensor& set_requires_grad(bool value);

  /// Accumulated gradient; valid after Backward(). Zero-length if the tensor
  /// never received a gradient.
  const std::vector<float>& grad() const { return impl().grad; }

  /// Mutable gradient storage (possibly zero-length); used by gradient
  /// clipping and fault injection. Does not allocate.
  std::vector<float>& mutable_grad() { return impl().grad; }

  /// Clears the accumulated gradient (keeps allocation).
  void ZeroGrad();

  /// Copies data (not tape, not grad) into a fresh constant tensor.
  Tensor DetachCopy() const;

  /// Runs reverse-mode differentiation from this scalar tensor.
  void Backward();

  /// Deep value equality (shape and every element exactly equal).
  bool ValueEquals(const Tensor& other) const;

  /// Debug rendering of small tensors.
  std::string ToString() const;

  // Internal: used by ops.cc to build the tape.
  std::shared_ptr<internal::TensorImpl> impl_ptr() const { return impl_; }
  static Tensor WrapImpl(std::shared_ptr<internal::TensorImpl> impl);

 private:
  internal::TensorImpl& impl() const {
    FW_CHECK(impl_ != nullptr) << "operation on empty Tensor";
    return *impl_;
  }

  std::shared_ptr<internal::TensorImpl> impl_;
};

}  // namespace fairwos::tensor

#endif  // FAIRWOS_TENSOR_TENSOR_H_
