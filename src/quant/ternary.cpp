#include "quant/ternary.hpp"

#include <cmath>

namespace tincy::quant {

double TernaryMatrix::sparsity() const {
  if (rows == 0 || cols == 0) return 0.0;
  int64_t zeros = 0;
  for (const auto& nz : nonzero) zeros += nz.size() - nz.popcount();
  return static_cast<double>(zeros) / static_cast<double>(rows * cols);
}

TernaryMatrix ternarize(const Tensor& weights, bool with_scale) {
  TINCY_CHECK(weights.shape().rank() == 2);
  TernaryMatrix m;
  m.rows = weights.shape().dim(0);
  m.cols = weights.shape().dim(1);
  for (int64_t r = 0; r < m.rows; ++r) {
    double abs_sum = 0.0;
    for (int64_t c = 0; c < m.cols; ++c) abs_sum += std::fabs(weights.at2(r, c));
    const double delta =
        m.cols > 0 ? 0.7 * abs_sum / static_cast<double>(m.cols) : 0.0;

    BitVector nz(m.cols), pos(m.cols);
    double surviving_sum = 0.0;
    int64_t surviving = 0;
    for (int64_t c = 0; c < m.cols; ++c) {
      const float w = weights.at2(r, c);
      if (std::fabs(w) > delta) {
        nz.set(c, true);
        pos.set(c, w > 0.0f);
        surviving_sum += std::fabs(w);
        ++surviving;
      }
    }
    m.nonzero.push_back(std::move(nz));
    m.positive.push_back(std::move(pos));
    m.row_scale.push_back(
        with_scale && surviving > 0
            ? static_cast<float>(surviving_sum / static_cast<double>(surviving))
            : 1.0f);
  }
  return m;
}

Tensor dequantize(const TernaryMatrix& m) {
  Tensor t(Shape{m.rows, m.cols});
  for (int64_t r = 0; r < m.rows; ++r)
    for (int64_t c = 0; c < m.cols; ++c) t.at2(r, c) = m.value(r, c);
  return t;
}

}  // namespace tincy::quant
