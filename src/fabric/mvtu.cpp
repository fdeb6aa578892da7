#include "fabric/mvtu.hpp"

#include <algorithm>

#include "core/errors.hpp"

namespace tincy::fabric {

namespace {

void check_config(int64_t rows, size_t thresholds, int act_bits_in) {
  TINCY_CHECK_MSG(static_cast<int64_t>(thresholds) == rows,
                  thresholds << " thresholds for " << rows << " rows");
  TINCY_CHECK_MSG(act_bits_in >= 1 && act_bits_in <= 8,
                  "act_bits " << act_bits_in);
}

}  // namespace

Mvtu::Mvtu(const quant::BinaryMatrix& weights,
           std::vector<ThresholdChannel> thresholds, int act_bits_in,
           ActEncoding encoding, int64_t kernel)
    : weights_(gemm::pack_bitserial(weights, kernel)),
      thresholds_(std::move(thresholds)),
      act_bits_in_(act_bits_in),
      encoding_(encoding),
      kernel_(kernel) {
  check_config(weights.rows, thresholds_.size(), act_bits_in);
  TINCY_CHECK_MSG(encoding == ActEncoding::kUnsigned || act_bits_in == 1,
                  "bipolar encoding requires 1-bit activations");
}

Mvtu::Mvtu(const quant::TernaryMatrix& weights,
           std::vector<ThresholdChannel> thresholds, int act_bits_in,
           int64_t kernel)
    : weights_(gemm::pack_bitserial(weights, kernel)),
      thresholds_(std::move(thresholds)),
      act_bits_in_(act_bits_in),
      encoding_(ActEncoding::kUnsigned),
      kernel_(kernel) {
  check_config(weights.rows, thresholds_.size(), act_bits_in);
}

std::vector<uint64_t> Mvtu::pack_columns(std::span<const uint8_t> columns,
                                         int64_t batch) const {
  TINCY_CHECK_MSG(batch >= 1, "batch " << batch);
  TINCY_CHECK(static_cast<int64_t>(columns.size()) == batch * cols());
  // One column is the single K×K footprint of a K×K, C-channel image.
  gemm::ConvGeometry g;
  g.in_channels = cols() / (kernel_ * kernel_);
  g.in_height = g.in_width = g.kernel = kernel_;
  const int64_t col_words = act_bits_in_ * weights_.words;
  std::vector<uint64_t> planes(static_cast<size_t>(batch * col_words));
  for (int64_t f = 0; f < batch; ++f)
    gemm::im2col_bitplanes(columns.data() + f * cols(), g, act_bits_in_,
                           planes.data() + f * col_words);
  return planes;
}

void Mvtu::accumulate(std::span<const uint8_t> column,
                      std::span<int32_t> acc) const {
  accumulate_batch(column, 1, acc);
}

void Mvtu::compute(std::span<const uint8_t> column,
                   std::span<uint8_t> out) const {
  compute_batch(column, 1, out);
}

void Mvtu::accumulate_batch(std::span<const uint8_t> columns, int64_t batch,
                            std::span<int32_t> acc) const {
  TINCY_CHECK(static_cast<int64_t>(acc.size()) == batch * rows());
  const std::vector<uint64_t> planes = pack_columns(columns, batch);
  gemm::bitserial_gemm(
      weights_, planes.data(), batch, act_bits_in_,
      encoding_ == ActEncoding::kBipolar,
      [&](int64_t j0, int64_t count, const int32_t* block) {
        std::copy(block, block + count * rows(), acc.begin() + j0 * rows());
      });
}

void Mvtu::compute_batch(std::span<const uint8_t> columns, int64_t batch,
                         std::span<uint8_t> out) const {
  const std::vector<uint64_t> planes = pack_columns(columns, batch);
  compute_planes(planes.data(), batch, 1, out);
}

void Mvtu::compute_planes(const uint64_t* planes, int64_t frames,
                          int64_t positions, std::span<uint8_t> out) const {
  TINCY_CHECK(static_cast<int64_t>(out.size()) ==
              frames * rows() * positions);
  const int64_t r_count = rows();
  gemm::bitserial_gemm(
      weights_, planes, frames * positions, act_bits_in_,
      encoding_ == ActEncoding::kBipolar,
      [&](int64_t j0, int64_t count, const int32_t* block) {
        for (int64_t jj = 0; jj < count; ++jj) {
          const int64_t f = (j0 + jj) / positions, p = (j0 + jj) % positions;
          uint8_t* dst = out.data() + f * r_count * positions + p;
          const int32_t* acc = block + jj * r_count;
          for (int64_t r = 0; r < r_count; ++r)
            dst[r * positions] =
                thresholds_[static_cast<size_t>(r)].apply(acc[r]);
        }
      });
}

}  // namespace tincy::fabric
