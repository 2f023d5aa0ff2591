#include "matrix/partitioned_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "matrix/format_convert.hpp"
#include "matrix/matrix_ops.hpp"
#include "util/math_util.hpp"
#include "util/parallel.hpp"

namespace dynasparse {

std::size_t Tile::ddr_bytes(const SimConfig& cfg) const {
  switch (format) {
    case TileFormat::kEmpty:
      return 0;
    case TileFormat::kDense:
      return static_cast<std::size_t>(rows * cols) * cfg.dense_elem_bytes;
    case TileFormat::kCoo:
      return static_cast<std::size_t>(nnz) * cfg.coo_elem_bytes;
  }
  return 0;
}

std::size_t Tile::approx_footprint_bytes() const {
  // Host-resident bytes of the stored representation. Lazily cached
  // views (dense_view/coo_view/csr_view) are deliberately excluded:
  // they are shared across tile copies and bounded by a small multiple
  // of this number, and counting them would make a footprint change as
  // a side effect of reads.
  std::size_t b = sizeof(Tile);
  b += dense.data().size() * sizeof(float);
  b += coo.entries().size() * sizeof(CooEntry);
  return b;
}

DenseMatrix Tile::to_dense() const {
  switch (format) {
    case TileFormat::kEmpty:
      return DenseMatrix(rows, cols, Layout::kRowMajor);
    case TileFormat::kDense:
      return dense;
    case TileFormat::kCoo:
      return coo.to_dense();
  }
  return DenseMatrix(rows, cols, Layout::kRowMajor);
}

CooMatrix Tile::to_coo() const {
  switch (format) {
    case TileFormat::kEmpty:
      return CooMatrix(rows, cols, Layout::kRowMajor);
    case TileFormat::kDense:
      return dense_to_coo(dense);
    case TileFormat::kCoo:
      return coo;
  }
  return CooMatrix(rows, cols, Layout::kRowMajor);
}

const DenseMatrix& Tile::dense_view() const {
  if (format == TileFormat::kDense) return dense;
  std::call_once(views_->dense_once, [&] { views_->dense = to_dense(); });
  return views_->dense;
}

const CooMatrix& Tile::coo_view() const {
  if (format == TileFormat::kCoo) return coo;
  std::call_once(views_->coo_once, [&] { views_->coo = to_coo(); });
  return views_->coo;
}

const CsrMatrix& Tile::csr_view() const {
  std::call_once(views_->csr_once, [&] {
    views_->csr = format == TileFormat::kDense ? dense_to_csr(dense)
                                               : coo_to_csr(coo_view());
  });
  return views_->csr;
}

Tile Tile::from_dense(DenseMatrix block, double sparse_threshold) {
  Tile t;
  t.rows = block.rows();
  t.cols = block.cols();
  t.nnz = block.nnz();
  if (t.nnz == 0) {
    t.format = TileFormat::kEmpty;
    return t;
  }
  if (t.density() <= sparse_threshold) {
    t.format = TileFormat::kCoo;
    t.coo = dense_to_coo(block);
  } else {
    t.format = TileFormat::kDense;
    t.dense = std::move(block);
  }
  return t;
}

Tile Tile::from_coo(CooMatrix block, double sparse_threshold) {
  Tile t;
  t.rows = block.rows();
  t.cols = block.cols();
  t.nnz = block.nnz();
  if (t.nnz == 0) {
    t.format = TileFormat::kEmpty;
    return t;
  }
  if (t.density() > sparse_threshold) {
    t.format = TileFormat::kDense;
    t.dense = block.to_dense();
  } else {
    t.format = TileFormat::kCoo;
    block.sort_to_layout();
    t.coo = std::move(block);
  }
  return t;
}

Tile Tile::zero(std::int64_t rows, std::int64_t cols) {
  Tile t;
  t.rows = rows;
  t.cols = cols;
  return t;
}

namespace {

/// Apply `op` to accumulate `contrib` into `acc` at (r, c).
inline void reduce_into(DenseMatrix& acc, std::int64_t r, std::int64_t c, float contrib,
                        AccumOp op) {
  float& slot = acc.at(r, c);
  switch (op) {
    case AccumOp::kSum:
      slot += contrib;
      break;
    case AccumOp::kMax:
      slot = contrib > slot ? contrib : slot;
      break;
    case AccumOp::kMin:
      slot = contrib < slot ? contrib : slot;
      break;
  }
}

void dense_dense(const DenseMatrix& x, const DenseMatrix& y, DenseMatrix& z, AccumOp op) {
  for (std::int64_t i = 0; i < x.rows(); ++i)
    for (std::int64_t k = 0; k < x.cols(); ++k) {
      float xv = x.at(i, k);
      if (xv == 0.0f) continue;
      for (std::int64_t j = 0; j < y.cols(); ++j) {
        float yv = y.at(k, j);
        if (yv != 0.0f) reduce_into(z, i, j, xv * yv, op);
      }
    }
}

void coo_dense(const CooMatrix& x, const DenseMatrix& y, DenseMatrix& z, AccumOp op) {
  for (const CooEntry& e : x.entries())
    for (std::int64_t j = 0; j < y.cols(); ++j) {
      float yv = y.at(e.col, j);
      if (yv != 0.0f) reduce_into(z, e.row, j, e.value * yv, op);
    }
}

void dense_coo(const DenseMatrix& x, const CooMatrix& y, DenseMatrix& z, AccumOp op) {
  // Preserve k-ascending accumulation per output element: entries of a
  // row-major COO are sorted by (row=k, col=j).
  for (const CooEntry& e : y.entries())
    for (std::int64_t i = 0; i < x.rows(); ++i) {
      float xv = x.at(i, e.row);
      if (xv != 0.0f) reduce_into(z, i, e.col, xv * e.value, op);
    }
}

void coo_coo(const CooMatrix& x, const CooMatrix& y, DenseMatrix& z, AccumOp op) {
  CsrMatrix ycsr = coo_to_csr(y);
  for (const CooEntry& e : x.entries())
    for (std::int64_t k = ycsr.row_begin(e.col); k < ycsr.row_end(e.col); ++k) {
      std::size_t ki = static_cast<std::size_t>(k);
      reduce_into(z, e.row, ycsr.col_idx()[ki], e.value * ycsr.values()[ki], op);
    }
}

}  // namespace

void accumulate_product(const Tile& x, const Tile& y, DenseMatrix& z, AccumOp op) {
  if (x.cols != y.rows) throw std::invalid_argument("tile inner dim mismatch");
  if (z.rows() != x.rows || z.cols() != y.cols)
    throw std::invalid_argument("tile output shape mismatch");
  if (x.empty() || y.empty()) return;
  const bool xd = x.format == TileFormat::kDense;
  const bool yd = y.format == TileFormat::kDense;
  if (op == AccumOp::kSum && z.layout() == Layout::kRowMajor) {
    // Sum accumulation is an ordinary product: funnel through the
    // optimized row-span primitives. Zero-valued products the generic
    // path skips contribute exactly 0.0f here, so results agree (the only
    // representational difference is the sign of a zero output).
    if (xd && yd)
      gemm_accumulate(x.dense, y.dense, z);
    else if (!xd && yd)
      spdmm_accumulate(x.coo, y.dense, z);
    else if (xd && !yd)
      spdmm_rhs_accumulate(x.dense, y.coo, z);
    else
      spmm_accumulate(x.coo, y.csr_view(), z);
    return;
  }
  if (xd && yd)
    dense_dense(x.dense, y.dense, z, op);
  else if (!xd && yd)
    coo_dense(x.coo, y.dense, z, op);
  else if (xd && !yd)
    dense_coo(x.dense, y.coo, z, op);
  else
    coo_coo(x.coo, y.coo, z, op);
}

PartitionedMatrix::PartitionedMatrix(std::int64_t rows, std::int64_t cols,
                                     std::int64_t tile_rows, std::int64_t tile_cols)
    : rows_(rows), cols_(cols), tile_rows_(tile_rows), tile_cols_(tile_cols) {
  if (rows < 0 || cols < 0 || tile_rows <= 0 || tile_cols <= 0)
    throw std::invalid_argument("bad partitioned matrix shape");
  grid_rows_ = ceil_div(rows, tile_rows);
  grid_cols_ = ceil_div(cols, tile_cols);
  tiles_.resize(static_cast<std::size_t>(grid_rows_ * grid_cols_));
  for (std::int64_t gi = 0; gi < grid_rows_; ++gi)
    for (std::int64_t gj = 0; gj < grid_cols_; ++gj)
      tiles_[grid_index(gi, gj)] = Tile::zero(tile_row_count(gi), tile_col_count(gj));
}

std::int64_t PartitionedMatrix::tile_row_count(std::int64_t gi) const {
  return std::min(tile_rows_, rows_ - gi * tile_rows_);
}
std::int64_t PartitionedMatrix::tile_col_count(std::int64_t gj) const {
  return std::min(tile_cols_, cols_ - gj * tile_cols_);
}

const Tile& PartitionedMatrix::tile(std::int64_t gi, std::int64_t gj) const {
  return tiles_[grid_index(gi, gj)];
}
Tile& PartitionedMatrix::tile(std::int64_t gi, std::int64_t gj) {
  return tiles_[grid_index(gi, gj)];
}

PartitionedMatrix PartitionedMatrix::from_dense(const DenseMatrix& m,
                                                std::int64_t tile_rows,
                                                std::int64_t tile_cols,
                                                double sparse_threshold) {
  PartitionedMatrix out(m.rows(), m.cols(), tile_rows, tile_cols);
  parallel_for(out.grid_rows_ * out.grid_cols_, [&](std::int64_t cell) {
    std::int64_t gi = cell / out.grid_cols_, gj = cell % out.grid_cols_;
    std::int64_t tr = out.tile_row_count(gi), tc = out.tile_col_count(gj);
    DenseMatrix block(tr, tc, Layout::kRowMajor);
    for (std::int64_t r = 0; r < tr; ++r)
      for (std::int64_t c = 0; c < tc; ++c)
        block.at(r, c) = m.at(gi * tile_rows + r, gj * tile_cols + c);
    out.tiles_[static_cast<std::size_t>(cell)] =
        Tile::from_dense(std::move(block), sparse_threshold);
  });
  return out;
}

PartitionedMatrix PartitionedMatrix::from_coo(const CooMatrix& m, std::int64_t tile_rows,
                                              std::int64_t tile_cols,
                                              double sparse_threshold) {
  PartitionedMatrix out(m.rows(), m.cols(), tile_rows, tile_cols);
  // This is the Table IX hot path (multi-million-nnz feature matrices):
  // a parallel two-pass bucket scatter — per-slice per-cell counts, a
  // (slice, cell) offset prefix, then every slice rescans its entries into
  // disjoint scratch ranges — followed by fully parallel per-tile
  // finalization (sort + format choice + optional densification).
  const std::size_t cells = out.tiles_.size();
  const std::int64_t nnz = m.nnz();
  const std::int64_t slices =
      std::clamp<std::int64_t>(nnz / 65536, 1, 32);  // ~64k entries per slice
  const std::int64_t slice_len = ceil_div(nnz, slices);
  // counts[s * cells + c] = entries of slice s landing in cell c.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(slices) * cells, 0);
  parallel_for(slices, [&](std::int64_t s) {
    std::int64_t lo = s * slice_len, hi = std::min(nnz, lo + slice_len);
    std::int64_t* row = counts.data() + s * static_cast<std::int64_t>(cells);
    for (std::int64_t i = lo; i < hi; ++i) {
      const CooEntry& e = m.entries()[static_cast<std::size_t>(i)];
      ++row[out.grid_index(e.row / tile_rows, e.col / tile_cols)];
    }
  });
  // offsets[c] = start of cell c; cursor per (slice, cell) follows.
  std::vector<std::int64_t> offsets(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    std::int64_t total = 0;
    for (std::int64_t s = 0; s < slices; ++s)
      total += counts[static_cast<std::size_t>(s) * cells + c];
    offsets[c + 1] = offsets[c] + total;
  }
  std::vector<std::int64_t> cursor(static_cast<std::size_t>(slices) * cells);
  for (std::size_t c = 0; c < cells; ++c) {
    std::int64_t at = offsets[c];
    for (std::int64_t s = 0; s < slices; ++s) {
      cursor[static_cast<std::size_t>(s) * cells + c] = at;
      at += counts[static_cast<std::size_t>(s) * cells + c];
    }
  }
  std::vector<CooEntry> scratch(static_cast<std::size_t>(nnz));
  parallel_for(slices, [&](std::int64_t s) {
    std::int64_t lo = s * slice_len, hi = std::min(nnz, lo + slice_len);
    std::int64_t* cur = cursor.data() + s * static_cast<std::int64_t>(cells);
    for (std::int64_t i = lo; i < hi; ++i) {
      const CooEntry& e = m.entries()[static_cast<std::size_t>(i)];
      std::int64_t gi = e.row / tile_rows, gj = e.col / tile_cols;
      std::size_t cell = out.grid_index(gi, gj);
      scratch[static_cast<std::size_t>(cur[cell]++)] = {
          e.row - gi * tile_rows, e.col - gj * tile_cols, e.value};
    }
  });
  parallel_for(static_cast<std::int64_t>(cells), [&](std::int64_t cell) {
    std::size_t c = static_cast<std::size_t>(cell);
    std::int64_t gi = cell / out.grid_cols_, gj = cell % out.grid_cols_;
    CooMatrix bucket(out.tile_row_count(gi), out.tile_col_count(gj), Layout::kRowMajor);
    bucket.entries().assign(scratch.begin() + static_cast<std::ptrdiff_t>(offsets[c]),
                            scratch.begin() + static_cast<std::ptrdiff_t>(offsets[c + 1]));
    out.tiles_[c] = Tile::from_coo(std::move(bucket), sparse_threshold);
  });
  return out;
}

PartitionedMatrix PartitionedMatrix::from_csr(const CsrMatrix& m, std::int64_t tile_rows,
                                              std::int64_t tile_cols,
                                              double sparse_threshold) {
  return from_coo(m.to_coo(), tile_rows, tile_cols, sparse_threshold);
}

void PartitionedMatrix::set_tile_from_dense(std::int64_t gi, std::int64_t gj,
                                            DenseMatrix block, double sparse_threshold) {
  if (block.rows() != tile_row_count(gi) || block.cols() != tile_col_count(gj))
    throw std::invalid_argument("set_tile_from_dense shape mismatch");
  tiles_[grid_index(gi, gj)] = Tile::from_dense(std::move(block), sparse_threshold);
}

std::int64_t PartitionedMatrix::total_nnz() const {
  std::int64_t n = 0;
  for (const Tile& t : tiles_) n += t.nnz;
  return n;
}

double PartitionedMatrix::density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(total_nnz()) / static_cast<double>(rows_ * cols_);
}

std::size_t PartitionedMatrix::ddr_bytes(const SimConfig& cfg) const {
  std::size_t b = 0;
  for (const Tile& t : tiles_) b += t.ddr_bytes(cfg);
  return b;
}

std::size_t PartitionedMatrix::approx_footprint_bytes() const {
  std::size_t b = sizeof(PartitionedMatrix);
  for (const Tile& t : tiles_) b += t.approx_footprint_bytes();
  return b;
}

DenseMatrix PartitionedMatrix::to_dense() const {
  DenseMatrix out(rows_, cols_, Layout::kRowMajor);
  for (std::int64_t gi = 0; gi < grid_rows_; ++gi)
    for (std::int64_t gj = 0; gj < grid_cols_; ++gj) {
      const Tile& t = tile(gi, gj);
      if (t.empty()) continue;
      if (t.format == TileFormat::kDense && t.dense.layout() == Layout::kRowMajor) {
        // Contiguous row-span copies, no per-element index math.
        for (std::int64_t r = 0; r < t.rows; ++r) {
          const float* src = t.dense.row_ptr(r);
          float* dst = out.row_ptr(gi * tile_rows_ + r) + gj * tile_cols_;
          std::copy(src, src + t.cols, dst);
        }
      } else {
        for (const CooEntry& e : t.coo_view().entries())
          out.at(gi * tile_rows_ + e.row, gj * tile_cols_ + e.col) = e.value;
      }
    }
  return out;
}

void PartitionedMatrix::apply_elementwise(const std::function<float(float)>& f,
                                          double sparse_threshold) {
  assert(f(0.0f) == 0.0f && "elementwise fn must preserve structural zeros");
  for (Tile& t : tiles_) {
    if (t.empty()) continue;
    if (t.format == TileFormat::kDense) {
      for (float& v : t.dense.data()) v = f(v);
      t = Tile::from_dense(std::move(t.dense), sparse_threshold);
    } else {
      CooMatrix kept(t.coo.rows(), t.coo.cols(), Layout::kRowMajor);
      for (const CooEntry& e : t.coo.entries()) {
        float v = f(e.value);
        if (v != 0.0f) kept.push(e.row, e.col, v);
      }
      t = Tile::from_coo(std::move(kept), sparse_threshold);
    }
  }
}

void PartitionedMatrix::add_inplace(const PartitionedMatrix& other,
                                    double sparse_threshold) {
  if (rows_ != other.rows_ || cols_ != other.cols_ || tile_rows_ != other.tile_rows_ ||
      tile_cols_ != other.tile_cols_)
    throw std::invalid_argument("add_inplace tiling mismatch");
  for (std::int64_t gi = 0; gi < grid_rows_; ++gi)
    for (std::int64_t gj = 0; gj < grid_cols_; ++gj) {
      const Tile& o = other.tile(gi, gj);
      if (o.empty()) continue;
      Tile& t = tile(gi, gj);
      DenseMatrix sum = t.to_dense();
      if (sum.layout() != Layout::kRowMajor) sum = sum.with_layout(Layout::kRowMajor);
      DenseMatrix scratch;
      const DenseMatrix& rhs = o.dense_view().require_row_major(scratch);
      for (std::int64_t r = 0; r < sum.rows(); ++r) {
        float* srow = sum.row_ptr(r);
        const float* orow = rhs.row_ptr(r);
        for (std::int64_t c = 0; c < sum.cols(); ++c) srow[c] += orow[c];
      }
      t = Tile::from_dense(std::move(sum), sparse_threshold);
    }
}

std::vector<double> PartitionedMatrix::tile_density_map() const {
  std::vector<double> out;
  out.reserve(tiles_.size());
  for (const Tile& t : tiles_) out.push_back(t.density());
  return out;
}

}  // namespace dynasparse
