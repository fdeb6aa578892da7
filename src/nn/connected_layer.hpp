#pragma once

/// \file connected_layer.hpp
/// Fully connected layer ("connected" in Darknet cfgs). Needed by the
/// MLP-4 and CNV-6 workloads of Table II; supports the same binary-weight
/// and quantized-activation labelling as the convolutional layer so the
/// ops accounting buckets its work correctly.

#include <mutex>
#include <optional>

#include "gemm/gemm_packed.hpp"
#include "nn/activation.hpp"
#include "nn/layer.hpp"
#include "quant/affine.hpp"

namespace tincy::nn {

struct ConnectedConfig {
  int64_t outputs = 1;
  Activation activation = Activation::kLinear;
  bool binary_weights = false;
  int act_bits = 32;
  float in_scale = 1.0f;
  float out_scale = 1.0f;
  /// ±scale activations (W1A1); requires act_bits == 1, linear activation.
  bool bipolar = false;
  /// cfg `lowp=1`: run the forward pass through the 8-bit conv driver on a
  /// 1×1 map (gemmlowp-style affine weights, per-frame input calibration)
  /// instead of float dot products. Ignored for binary_weights layers.
  bool lowp = false;
};

class ConnectedLayer final : public Layer {
 public:
  ConnectedLayer(const ConnectedConfig& cfg, Shape input_shape);

  std::string type_name() const override { return "connected"; }
  Shape output_shape() const override { return Shape{cfg_.outputs}; }
  void forward(const Tensor& in, Tensor& out) const override;
  void load_weights(WeightReader& r) override;
  void save_weights(WeightWriter& w) const override;
  OpsCount ops() const override;
  Precision precision() const override;

  const ConnectedConfig& config() const { return cfg_; }
  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  Tensor& biases() { return biases_; }
  const Tensor& biases() const { return biases_; }
  int64_t inputs() const { return inputs_; }

  /// Invalidate derived weight caches after mutating weights.
  void invalidate_cached_quantization();

 private:
  void forward_lowp(const Tensor& in, Tensor& out) const;

  ConnectedConfig cfg_;
  int64_t inputs_ = 0;
  Tensor weights_;  // outputs × inputs
  Tensor biases_;   // outputs

  // Lazy caches of the lowp path's derived weight forms (quantization
  // params and the packed weight panels), built once per weight mutation,
  // under the lock.
  mutable std::mutex cache_mutex_;
  mutable std::optional<quant::AffineParams> lowp_params_;
  mutable std::optional<gemm::PackedLhs> packed_lowp_;
};

}  // namespace tincy::nn
