#include "matrix/matrix_ops.hpp"

#include <stdexcept>

#include "matrix/format_convert.hpp"
#include "matrix/matrix_ops_ref.hpp"

namespace dynasparse {

namespace {

void check_shapes(std::int64_t xc, std::int64_t yr) {
  if (xc != yr) throw std::invalid_argument("inner dimension mismatch");
}
void check_out(std::int64_t xr, std::int64_t yc, const DenseMatrix& z) {
  if (z.rows() != xr || z.cols() != yc)
    throw std::invalid_argument("output shape mismatch");
}

/// Z[e.row] += v * Y[e.col] over a contiguous d-wide span — the shared
/// inner loop of every sparse-times-dense kernel. Plain indexed loop so
/// the compiler auto-vectorizes.
inline void axpy_row(float v, const float* __restrict y, float* __restrict z,
                     std::int64_t d) {
  for (std::int64_t j = 0; j < d; ++j) z[j] += v * y[j];
}

}  // namespace

void gemm_accumulate(const DenseMatrix& x, const DenseMatrix& y, DenseMatrix& z) {
  check_shapes(x.cols(), y.rows());
  check_out(x.rows(), y.cols(), z);
  if (z.layout() != Layout::kRowMajor) {  // cold path: callers allocate row-major
    ref::gemm_accumulate(x, y, z);
    return;
  }
  DenseMatrix xtmp, ytmp;
  const DenseMatrix& xr = x.require_row_major(xtmp);
  const DenseMatrix& yr = y.require_row_major(ytmp);
  const std::int64_t m = x.rows(), n = x.cols(), d = y.cols();
  // Same i-k-j order (and the same xv == 0 skip) as the seed kernel, so
  // every output element sees the identical FP operation sequence; the
  // layout branch is hoisted out of the loops and the j-sweep runs over
  // contiguous row spans the compiler vectorizes. (Blocked/gathered
  // variants were measured and lost: at GNN tile sizes the Z and Y rows
  // are cache-resident, so extra passes only add overhead.)
  for (std::int64_t i = 0; i < m; ++i) {
    const float* xrow = xr.row_ptr(i);
    float* zrow = z.row_ptr(i);
    for (std::int64_t k = 0; k < n; ++k) {
      float xv = xrow[k];
      if (xv == 0.0f) continue;
      axpy_row(xv, yr.row_ptr(k), zrow, d);
    }
  }
}

void spdmm_accumulate(const CooMatrix& x, const DenseMatrix& y, DenseMatrix& z) {
  check_shapes(x.cols(), y.rows());
  check_out(x.rows(), y.cols(), z);
  if (z.layout() != Layout::kRowMajor) {
    ref::spdmm_accumulate(x, y, z);
    return;
  }
  DenseMatrix ytmp;
  const DenseMatrix& yr = y.require_row_major(ytmp);
  CooMatrix xtmp;
  const CooMatrix& xs =
      x.layout() == Layout::kRowMajor ? x : (xtmp = x.with_layout(Layout::kRowMajor));
  const std::int64_t d = y.cols();
  for (const CooEntry& e : xs.entries())
    axpy_row(e.value, yr.row_ptr(e.col), z.row_ptr(e.row), d);
}

void spdmm_accumulate(const CsrMatrix& x, const DenseMatrix& y, DenseMatrix& z) {
  check_shapes(x.cols(), y.rows());
  check_out(x.rows(), y.cols(), z);
  if (z.layout() != Layout::kRowMajor) {
    ref::spdmm_accumulate(x.to_coo(), y, z);
    return;
  }
  DenseMatrix ytmp;
  const DenseMatrix& yr = y.require_row_major(ytmp);
  const std::int64_t m = x.rows(), d = y.cols();
  const std::int64_t* col = x.col_idx().data();
  const float* val = x.values().data();
  // CSR row order == row-major COO entry order: identical k-ordered
  // accumulation per output element.
  for (std::int64_t r = 0; r < m; ++r) {
    float* zrow = z.row_ptr(r);
    const std::int64_t kend = x.row_end(r);
    for (std::int64_t k = x.row_begin(r); k < kend; ++k)
      axpy_row(val[k], yr.row_ptr(col[k]), zrow, d);
  }
}

void spdmm_rhs_accumulate(const DenseMatrix& x, const CooMatrix& y, DenseMatrix& z) {
  check_shapes(x.cols(), y.rows());
  check_out(x.rows(), y.cols(), z);
  if (z.layout() != Layout::kRowMajor) {
    ref::spdmm_rhs_accumulate(x, y, z);
    return;
  }
  DenseMatrix xtmp;
  const DenseMatrix& xr = x.require_row_major(xtmp);
  CooMatrix ytmp;
  const CooMatrix& ys =
      y.layout() == Layout::kRowMajor ? y : (ytmp = y.with_layout(Layout::kRowMajor));
  const auto& entries = ys.entries();
  const std::int64_t m = x.rows();
  // Loop interchange vs the seed (i outer, entries inner): every output
  // slot (i, j) still accumulates its contributions in the same entry
  // order (k ascending), so the per-slot FP sequence is unchanged, while
  // X and Z rows stay resident in cache across the entry scan.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* xrow = xr.row_ptr(i);
    float* zrow = z.row_ptr(i);
    for (const CooEntry& e : entries) {
      float xv = xrow[e.row];
      if (xv != 0.0f) zrow[e.col] += xv * e.value;
    }
  }
}

void spmm_accumulate(const CooMatrix& x, const CooMatrix& y, DenseMatrix& z) {
  spmm_accumulate(x, coo_to_csr(y), z);
}

void spmm_accumulate(const CooMatrix& x, const CsrMatrix& y, DenseMatrix& z) {
  check_shapes(x.cols(), y.rows());
  check_out(x.rows(), y.cols(), z);
  if (z.layout() != Layout::kRowMajor) {
    ref::spmm_accumulate(x, y.to_coo(), z);
    return;
  }
  CooMatrix xtmp;
  const CooMatrix& xs =
      x.layout() == Layout::kRowMajor ? x : (xtmp = x.with_layout(Layout::kRowMajor));
  const std::int64_t* yrp = y.row_ptr().data();
  const std::int64_t* yci = y.col_idx().data();
  const float* yv = y.values().data();
  for (const CooEntry& e : xs.entries()) {
    float* zrow = z.row_ptr(e.row);
    const std::int64_t kend = yrp[e.col + 1];
    for (std::int64_t k = yrp[e.col]; k < kend; ++k) zrow[yci[k]] += e.value * yv[k];
  }
}

void spmm_accumulate(const CsrMatrix& x, const CsrMatrix& y, DenseMatrix& z) {
  check_shapes(x.cols(), y.rows());
  check_out(x.rows(), y.cols(), z);
  if (z.layout() != Layout::kRowMajor) {
    ref::spmm_accumulate(x.to_coo(), y.to_coo(), z);
    return;
  }
  const std::int64_t* xci = x.col_idx().data();
  const float* xv = x.values().data();
  const std::int64_t* yrp = y.row_ptr().data();
  const std::int64_t* yci = y.col_idx().data();
  const float* yv = y.values().data();
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    float* zrow = z.row_ptr(r);
    const std::int64_t xend = x.row_end(r);
    for (std::int64_t xk = x.row_begin(r); xk < xend; ++xk) {
      const std::int64_t c = xci[xk];
      const float v = xv[xk];
      const std::int64_t kend = yrp[c + 1];
      for (std::int64_t k = yrp[c]; k < kend; ++k) zrow[yci[k]] += v * yv[k];
    }
  }
}

DenseMatrix gemm(const DenseMatrix& x, const DenseMatrix& y) {
  DenseMatrix z(x.rows(), y.cols(), Layout::kRowMajor);
  gemm_accumulate(x, y, z);
  return z;
}

DenseMatrix spdmm(const CooMatrix& x, const DenseMatrix& y) {
  DenseMatrix z(x.rows(), y.cols(), Layout::kRowMajor);
  spdmm_accumulate(x, y, z);
  return z;
}

DenseMatrix spdmm(const CsrMatrix& x, const DenseMatrix& y) {
  DenseMatrix z(x.rows(), y.cols(), Layout::kRowMajor);
  spdmm_accumulate(x, y, z);
  return z;
}

DenseMatrix spdmm_rhs(const DenseMatrix& x, const CooMatrix& y) {
  DenseMatrix z(x.rows(), y.cols(), Layout::kRowMajor);
  spdmm_rhs_accumulate(x, y, z);
  return z;
}

DenseMatrix spmm(const CooMatrix& x, const CooMatrix& y) {
  DenseMatrix z(x.rows(), y.cols(), Layout::kRowMajor);
  spmm_accumulate(x, y, z);
  return z;
}

DenseMatrix spmm(const CsrMatrix& x, const CsrMatrix& y) {
  DenseMatrix z(x.rows(), y.cols(), Layout::kRowMajor);
  spmm_accumulate(x, y, z);
  return z;
}

DenseMatrix csr_spdmm(const CsrMatrix& x, const DenseMatrix& y) {
  return spdmm(x, y);
}

}  // namespace dynasparse
