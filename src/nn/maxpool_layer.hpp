#pragma once

/// \file maxpool_layer.hpp
/// Darknet-compatible max pooling. Geometry follows Darknet: implicit
/// padding of (size − 1) total keeps the stride-1 "same" pooling of Tiny
/// YOLO's last pool working (13×13 stays 13×13), while the usual 2×2
/// stride-2 pools halve the map.
///
/// Fed codes in Network::forward (between two quantized convs), the pool
/// runs on them (gemm::max_pool_codes): on an exact grid the codes order
/// like their values, so pooling codes equals pooling the values. The
/// codes are pixel-major (HWC), so each output pixel maxes whole channel
/// vectors.

#include "nn/layer.hpp"

namespace tincy::nn {

struct MaxPoolConfig {
  int64_t size = 2;
  int64_t stride = 2;
};

class MaxPoolLayer final : public Layer {
 public:
  MaxPoolLayer(const MaxPoolConfig& cfg, Shape input_shape);

  std::string type_name() const override { return "maxpool"; }
  Shape output_shape() const override;
  void forward(const Tensor& in, Tensor& out) override;

  /// Reads the offered grid and writes its input grid: Network hands a
  /// pool codes only on an exact grid, where they order like their
  /// values. Codes in, floats out pools the codes and dequantises them.
  MaybeGrid read_grid(MaybeGrid offered) const override;
  MaybeGrid write_grid(MaybeGrid in, MaybeGrid wanted) const override;
  void forward(const LayerIn& in, const LayerOut& out) override;

  /// The paper's Table I counts pooling as the per-channel comparison
  /// count K²·outH·outW (it is channel-independent in their accounting).
  OpsCount ops() const override;

  const MaxPoolConfig& config() const { return cfg_; }

 private:
  MaxPoolConfig cfg_;
  Shape in_shape_;
  int64_t out_h_ = 0, out_w_ = 0;
};

}  // namespace tincy::nn
