#include "fabric/mvtu.hpp"

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
           const std::vector<ThresholdChannel>& thresholds, int act_bits_in,
           ActEncoding encoding, int64_t kernel)
    : act_bits_in_(act_bits_in) {
  check_config(weights.rows, thresholds.size(), act_bits_in);
  TINCY_CHECK_MSG(encoding == ActEncoding::kUnsigned || act_bits_in == 1,
                  "bipolar encoding requires 1-bit activations");
  weights_ = gemm::pack_bitserial(weights, kernel);
  thresholds_ = gemm::ThresholdTable(thresholds);
}

Mvtu::Mvtu(const quant::TernaryMatrix& weights,
           const std::vector<ThresholdChannel>& thresholds, int act_bits_in,
           int64_t kernel)
    : act_bits_in_(act_bits_in) {
  check_config(weights.rows, thresholds.size(), act_bits_in);
  weights_ = gemm::pack_bitserial(weights, kernel);
  thresholds_ = gemm::ThresholdTable(thresholds);
}

}  // namespace tincy::fabric
