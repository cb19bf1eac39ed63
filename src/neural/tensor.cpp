#include "neural/tensor.h"

#include <algorithm>

#include "neural/kernels.h"
#include "util/check.h"

namespace jarvis::neural {

Tensor::Tensor(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor::Tensor(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    JARVIS_CHECK_EQ(row.size(), cols_, "Tensor: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Tensor Tensor::Row(const std::vector<double>& values) {
  Tensor t(1, values.size());
  t.data_ = values;
  return t;
}

Tensor Tensor::Generate(std::size_t rows, std::size_t cols,
                        const std::function<double()>& gen) {
  Tensor t(rows, cols);
  for (double& x : t.data_) x = gen();
  return t;
}

std::vector<double> Tensor::RowVector(std::size_t r) const {
  JARVIS_CHECK_LT(r, rows_, "Tensor::RowVector");
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

void Tensor::SetRow(std::size_t r, const std::vector<double>& values) {
  JARVIS_CHECK_LT(r, rows_, "Tensor::SetRow");
  JARVIS_CHECK_EQ(values.size(), cols_, "Tensor::SetRow: width mismatch");
  std::copy(values.begin(), values.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

void Tensor::CopyRowFrom(std::size_t dst_row, const Tensor& src,
                         std::size_t src_row) {
  JARVIS_DCHECK_LT(dst_row, rows_, "Tensor::CopyRowFrom: dst row");
  JARVIS_DCHECK_LT(src_row, src.rows_, "Tensor::CopyRowFrom: src row");
  JARVIS_CHECK_EQ(src.cols_, cols_, "Tensor::CopyRowFrom: width mismatch");
  std::copy(src.data_.begin() + static_cast<std::ptrdiff_t>(src_row * cols_),
            src.data_.begin() +
                static_cast<std::ptrdiff_t>((src_row + 1) * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(dst_row * cols_));
}

void Tensor::Resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // vector::resize never shrinks capacity, so cycling between previously
  // seen shapes is allocation-free.
  data_.resize(rows * cols);
}

void Tensor::CheckShape(const Tensor& other, const char* op) const {
  JARVIS_CHECK(SameShape(other), "Tensor shape mismatch in ", op, ": ",
               ShapeString(), " vs ", other.ShapeString());
}

Tensor& Tensor::operator+=(const Tensor& other) {
  CheckShape(other, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  CheckShape(other, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out = *this;
  out += other;
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  Tensor out = *this;
  out -= other;
  return out;
}

Tensor Tensor::operator*(double scalar) const {
  Tensor out = *this;
  out *= scalar;
  return out;
}

Tensor Tensor::Hadamard(const Tensor& other) const {
  CheckShape(other, "Hadamard");
  Tensor out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

Tensor Tensor::MatMul(const Tensor& other) const {
  Tensor out;
  MatMulInto(other, out);
  return out;
}

void Tensor::MatMulInto(const Tensor& other, Tensor& out) const {
  JARVIS_CHECK_EQ(cols_, other.rows_, "Tensor::MatMulInto: inner dims ",
                  ShapeString(), " vs ", other.ShapeString());
  JARVIS_DCHECK(&out != this && &out != &other,
                "Tensor::MatMulInto: out aliases an operand");
  out.Resize(rows_, other.cols_);
  out.Fill(0.0);
  kernels::GemmAccumulate(kernels::BestWidth(), rows_, other.cols_, cols_,
                          {data_.data(), cols_, 1}, other.data_.data(),
                          other.cols_, out.data_.data(), other.cols_);
}

void Tensor::MatMulTransposedInto(const Tensor& other, Tensor& out,
                                  Tensor& other_transposed) const {
  JARVIS_CHECK_EQ(cols_, other.cols_, "Tensor::MatMulTransposedInto: inner ",
                  "dims ", ShapeString(), " vs ", other.ShapeString());
  JARVIS_DCHECK(&other_transposed != this && &other_transposed != &other,
                "Tensor::MatMulTransposedInto: scratch aliases an operand");
  other.TransposeInto(other_transposed);
  MatMulInto(other_transposed, out);
}

void Tensor::TransposedMatMulAccumulate(const Tensor& other,
                                        Tensor& out) const {
  JARVIS_CHECK_EQ(rows_, other.rows_,
                  "Tensor::TransposedMatMulAccumulate: batch dims ",
                  ShapeString(), " vs ", other.ShapeString());
  JARVIS_CHECK(out.rows_ == cols_ && out.cols_ == other.cols_,
               "Tensor::TransposedMatMulAccumulate: out shape ",
               out.ShapeString(), " for ", ShapeString(), "^T x ",
               other.ShapeString());
  JARVIS_DCHECK(&out != this && &out != &other,
                "Tensor::TransposedMatMulAccumulate: out aliases an operand");
  // this^T is read in place: its (i, b) element is data_[b * cols_ + i].
  kernels::GemmAccumulate(kernels::BestWidth(), cols_, other.cols_, rows_,
                          {data_.data(), 1, cols_}, other.data_.data(),
                          other.cols_, out.data_.data(), other.cols_);
}

Tensor Tensor::Transposed() const {
  Tensor out;
  TransposeInto(out);
  return out;
}

void Tensor::TransposeInto(Tensor& out) const {
  JARVIS_DCHECK(&out != this, "Tensor::TransposeInto: out aliases");
  out.Resize(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out.data_[c * rows_ + r] = data_[r * cols_ + c];
    }
  }
}

Tensor Tensor::Map(const std::function<double(double)>& f) const {
  Tensor out = *this;
  out.MapInPlace(f);
  return out;
}

void Tensor::MapInPlace(const std::function<double(double)>& f) {
  for (double& x : data_) x = f(x);
}

Tensor Tensor::AddRowBroadcast(const Tensor& row) const {
  JARVIS_CHECK(row.rows_ == 1 && row.cols_ == cols_,
               "Tensor::AddRowBroadcast: shape mismatch: ", ShapeString(),
               " vs ", row.ShapeString());
  Tensor out = *this;
  for (std::size_t r = 0; r < rows_; ++r) {
    double* out_row = &out.data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) {
      out_row[c] += row.data_[c];
    }
  }
  return out;
}

Tensor Tensor::SumRows() const {
  Tensor out(1, cols_);
  SumRowsAccumulate(out);
  return out;
}

void Tensor::SumRowsAccumulate(Tensor& out) const {
  JARVIS_CHECK(out.rows_ == 1 && out.cols_ == cols_,
               "Tensor::SumRowsAccumulate: out shape ", out.ShapeString(),
               " for ", ShapeString());
  JARVIS_DCHECK(&out != this, "Tensor::SumRowsAccumulate: out aliases");
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* in_row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) {
      out.data_[c] += in_row[c];
    }
  }
}

void Tensor::HadamardInPlace(const Tensor& other) {
  CheckShape(other, "HadamardInPlace");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

double Tensor::SumAll() const {
  double total = 0.0;
  for (double x : data_) total += x;
  return total;
}

double Tensor::MaxAll() const {
  JARVIS_CHECK(!data_.empty(), "Tensor::MaxAll on empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

std::size_t Tensor::ArgMaxRow(std::size_t r) const {
  JARVIS_CHECK(r < rows_ && cols_ > 0, "Tensor::ArgMaxRow: row ", r, " of ",
               ShapeString());
  const auto begin = data_.begin() + static_cast<std::ptrdiff_t>(r * cols_);
  return static_cast<std::size_t>(
      std::max_element(begin, begin + static_cast<std::ptrdiff_t>(cols_)) -
      begin);
}

void Tensor::Fill(double value) { std::fill(data_.begin(), data_.end(), value); }

std::string Tensor::ShapeString() const {
  return "[" + std::to_string(rows_) + "x" + std::to_string(cols_) + "]";
}

}  // namespace jarvis::neural
