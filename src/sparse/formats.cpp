#include "sparse/formats.hpp"

#include "common/check.hpp"

namespace rt3 {

CooMatrix::CooMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols) {
  check(rows > 0 && cols > 0, "CooMatrix: bad dimensions");
}

CooMatrix CooMatrix::from_dense(const Tensor& dense) {
  check(dense.dim() == 2, "CooMatrix::from_dense: need 2-D");
  CooMatrix out(dense.size(0), dense.size(1));
  for (std::int64_t i = 0; i < dense.size(0); ++i) {
    for (std::int64_t j = 0; j < dense.size(1); ++j) {
      const float v = dense[i * dense.size(1) + j];
      if (v != 0.0F) {
        out.add_entry(i, j, v);
      }
    }
  }
  return out;
}

Tensor CooMatrix::to_dense() const {
  Tensor out({rows_, cols_});
  for (std::size_t k = 0; k < values_.size(); ++k) {
    out[row_idx_[k] * cols_ + col_idx_[k]] = values_[k];
  }
  return out;
}

void CooMatrix::add_entry(std::int64_t row, std::int64_t col, float value) {
  check(row >= 0 && row < rows_ && col >= 0 && col < cols_,
        "CooMatrix::add_entry: out of range");
  row_idx_.push_back(row);
  col_idx_.push_back(col);
  values_.push_back(value);
}

double CooMatrix::sparsity() const {
  return 1.0 - static_cast<double>(nnz()) /
                   static_cast<double>(rows_ * cols_);
}

Tensor CooMatrix::multiply(const Tensor& dense) const {
  check(dense.dim() == 2 && dense.size(0) == cols_,
        "CooMatrix::multiply: shape mismatch");
  const std::int64_t n = dense.size(1);
  Tensor out({rows_, n});
  for (std::size_t k = 0; k < values_.size(); ++k) {
    const float v = values_[k];
    const float* brow = dense.data() + col_idx_[k] * n;
    float* orow = out.data() + row_idx_[k] * n;
    for (std::int64_t j = 0; j < n; ++j) {
      orow[j] += v * brow[j];
    }
  }
  return out;
}

std::int64_t CooMatrix::storage_bytes() const { return nnz() * (4 + 4 + 4); }

CsrMatrix::CsrMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows),
      cols_(cols),
      row_ptr_(static_cast<std::size_t>(rows) + 1, 0) {
  check(rows > 0 && cols > 0, "CsrMatrix: bad dimensions");
}

CsrMatrix CsrMatrix::from_dense(const Tensor& dense) {
  check(dense.dim() == 2, "CsrMatrix::from_dense: need 2-D");
  CsrMatrix out(dense.size(0), dense.size(1));
  for (std::int64_t i = 0; i < dense.size(0); ++i) {
    for (std::int64_t j = 0; j < dense.size(1); ++j) {
      const float v = dense[i * dense.size(1) + j];
      if (v != 0.0F) {
        out.col_idx_.push_back(j);
        out.values_.push_back(v);
      }
    }
    out.row_ptr_[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(out.values_.size());
  }
  return out;
}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  // COO entries from from_dense are already row-major sorted; handle the
  // general case by counting then placing.
  CsrMatrix out(coo.rows(), coo.cols());
  const auto& ri = coo.row_indices();
  const auto& ci = coo.col_indices();
  const auto& vs = coo.values();
  for (std::size_t k = 0; k < vs.size(); ++k) {
    ++out.row_ptr_[static_cast<std::size_t>(ri[k]) + 1];
  }
  for (std::size_t i = 1; i < out.row_ptr_.size(); ++i) {
    out.row_ptr_[i] += out.row_ptr_[i - 1];
  }
  out.col_idx_.resize(vs.size());
  out.values_.resize(vs.size());
  std::vector<std::int64_t> cursor(out.row_ptr_.begin(),
                                   out.row_ptr_.end() - 1);
  for (std::size_t k = 0; k < vs.size(); ++k) {
    const std::int64_t pos = cursor[static_cast<std::size_t>(ri[k])]++;
    out.col_idx_[static_cast<std::size_t>(pos)] = ci[k];
    out.values_[static_cast<std::size_t>(pos)] = vs[k];
  }
  return out;
}

Tensor CsrMatrix::to_dense() const {
  Tensor out({rows_, cols_});
  for (std::int64_t i = 0; i < rows_; ++i) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      out[i * cols_ + col_idx_[static_cast<std::size_t>(k)]] =
          values_[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

double CsrMatrix::sparsity() const {
  return 1.0 - static_cast<double>(nnz()) /
                   static_cast<double>(rows_ * cols_);
}

Tensor CsrMatrix::multiply(const Tensor& dense) const {
  check(dense.dim() == 2 && dense.size(0) == cols_,
        "CsrMatrix::multiply: shape mismatch");
  const std::int64_t n = dense.size(1);
  Tensor out({rows_, n});
  for (std::int64_t i = 0; i < rows_; ++i) {
    float* orow = out.data() + i * n;
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      const float v = values_[static_cast<std::size_t>(k)];
      const float* brow =
          dense.data() + col_idx_[static_cast<std::size_t>(k)] * n;
      for (std::int64_t j = 0; j < n; ++j) {
        orow[j] += v * brow[j];
      }
    }
  }
  return out;
}

std::int64_t CsrMatrix::storage_bytes() const {
  return nnz() * (4 + 4) +
         static_cast<std::int64_t>(row_ptr_.size()) * 4;
}

}  // namespace rt3
