#include "quant/binary.hpp"

#include <cmath>

namespace tincy::quant {

BinaryMatrix binarize(const Tensor& weights, bool with_scale) {
  TINCY_CHECK(weights.shape().rank() == 2);
  BinaryMatrix m;
  m.rows = weights.shape().dim(0);
  m.cols = weights.shape().dim(1);
  m.row_bits.reserve(static_cast<size_t>(m.rows));
  m.row_scale.reserve(static_cast<size_t>(m.rows));
  for (int64_t r = 0; r < m.rows; ++r) {
    BitVector bits(m.cols);
    double abs_sum = 0.0;
    const float* row = weights.data() + r * m.cols;
    for (int64_t c = 0; c < m.cols; ++c) {
      bits.set(c, row[c] >= 0.0f);
      abs_sum += std::fabs(row[c]);
    }
    m.row_bits.push_back(std::move(bits));
    m.row_scale.push_back(
        with_scale && m.cols > 0
            ? static_cast<float>(abs_sum / static_cast<double>(m.cols))
            : 1.0f);
  }
  return m;
}

Tensor dequantize(const BinaryMatrix& m) {
  Tensor t(Shape{m.rows, m.cols});
  for (int64_t r = 0; r < m.rows; ++r)
    for (int64_t c = 0; c < m.cols; ++c) t.at2(r, c) = m.value(r, c);
  return t;
}

}  // namespace tincy::quant
