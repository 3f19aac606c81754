// Compressed-sparse-row matrix used for graph adjacency. The GCN/GIN layers
// multiply a (normalized) adjacency by dense feature matrices via SpMM
// (ops.h); the matrix itself is constant w.r.t. training, so only the dense
// operand carries gradients.
#ifndef FAIRWOS_TENSOR_SPARSE_H_
#define FAIRWOS_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/check.h"

namespace fairwos::tensor {

/// A (row, col, value) entry used for construction.
struct CooEntry {
  int64_t row = 0;
  int64_t col = 0;
  float value = 0.0f;
};

/// Immutable CSR matrix. Construct via FromCoo or FromCsr, then treat as
/// read-only; the transpose is computed lazily and cached for autograd.
class SparseMatrix {
 public:
  /// Builds from COO entries. Duplicate (row, col) entries are summed.
  static std::shared_ptr<SparseMatrix> FromCoo(int64_t rows, int64_t cols,
                                               std::vector<CooEntry> entries);

  /// Adopts already-assembled CSR arrays without the COO sort. Every graph
  /// adjacency operator is built this way, row by row, by
  /// graph::AppendOperatorRow (graph/graph.h). The caller must supply
  /// rows+1 monotone row offsets and, within each row, column indices
  /// sorted ascending with no duplicates (the invariant FromCoo
  /// establishes); shape checks are FW_CHECKed, the per-row order is
  /// trusted.
  static std::shared_ptr<SparseMatrix> FromCsr(int64_t rows, int64_t cols,
                                               std::vector<int64_t> row_ptr,
                                               std::vector<int64_t> col_idx,
                                               std::vector<float> values);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// y = this * x for a dense row-major x with `x_cols` columns; `y` must
  /// have rows()*x_cols elements and is overwritten. Rows are computed in
  /// parallel on the global pool (common/threadpool.h); the result is
  /// bit-identical for any thread count.
  void Multiply(const float* x, int64_t x_cols, float* y) const;

  /// The transposed matrix; computed once under std::call_once and cached,
  /// so concurrent trials sharing one adjacency may race to first use
  /// safely (docs/parallelism.md).
  const SparseMatrix& Transposed() const;

 private:
  SparseMatrix() = default;

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int64_t> col_idx_;
  std::vector<float> values_;
  mutable std::once_flag transpose_once_;
  mutable std::shared_ptr<SparseMatrix> transpose_cache_;
};

}  // namespace fairwos::tensor

#endif  // FAIRWOS_TENSOR_SPARSE_H_
