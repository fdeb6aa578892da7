#pragma once

/// \file conv_layer.hpp
/// Convolutional layer with one implementation per concept:
///
///  * kReference      — float oracle: Darknet's generic im2col + GEMM,
///  * kFused          — float runtime: fused sliced im2col+GEMM (§III-D),
///  * kLowp           — the 8-bit runtime: the image is quantized on the fly
///    and im2col'd straight into the packed GEMM engine against the
///    layer's cached weight panels, with batch-norm, bias and activation
///    in the driver's epilogue (gemm/gemm_lowp.hpp). Inside
///    Network::forward it can read the previous layer's codes instead of
///    their floats, and write the next layer's input codes instead of its
///    own floats,
///  * kQuantReference — bit-exact W1A<abits> QNN semantics (binarized
///    weights, thresholded activations) on the code-domain layer engine
///    (gemm/code_layer.hpp) that the fabric accelerator runs too; this is
///    the golden model. Float input is quantized onto the layer's input
///    grid and float output dequantized from its output codes; inside
///    Network::forward it reads and writes codes instead, and runs the
///    max pool after it in the same banded pass.
///
/// The paper's specialized 16×27 first-layer kernels are not runtime
/// paths: their timing lives in the perf model (perf::FirstLayerImpl) and
/// their rshift-4 arithmetic in the scalar oracle gemm_lowp_i32_shift4,
/// which the accumulator ablation runs. Every kLowp conv runs the one
/// 8-bit conv driver (gemm/gemm_lowp.hpp) on its exact-i32 tile.
///
/// Batch normalization is applied inference-style from stored statistics;
/// in the quantized path it folds into the activation thresholds just as
/// FINN folds it in hardware.

#include <mutex>
#include <optional>
#include <vector>

#include "gemm/bitserial.hpp"
#include "gemm/code_layer.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/gemm_packed.hpp"
#include "gemm/im2col.hpp"
#include "gemm/scratch.hpp"
#include "nn/activation.hpp"
#include "nn/layer.hpp"
#include "quant/affine.hpp"
#include "quant/binary.hpp"
#include "quant/thresholds.hpp"

namespace tincy::nn {

/// Which kernel implementation executes the layer.
enum class ConvKernel {
  kReference,
  kFused,
  kLowp,
  kQuantReference,
  /// Former specialized float first layer; perfbench/frame_bench.cpp names it.
  kFirstLayerF32 = kFused,
};

/// Static configuration of a convolutional layer (the cfg-file view).
struct ConvConfig {
  int64_t filters = 1;
  int64_t size = 3;
  int64_t stride = 1;
  bool pad = true;  ///< Darknet semantics: pad flag -> padding = size/2.
  Activation activation = Activation::kLeaky;
  bool batch_normalize = false;
  bool binary_weights = false;  ///< cfg `binary=1`: ±1 weights (W1).
  int act_bits = 32;            ///< <8 enables quantized activations (A bits).
  float in_scale = 1.0f;        ///< activation grid of the incoming codes.
  float out_scale = 1.0f;       ///< activation grid this layer emits.
  /// cfg `bipolar=1`: activations are ±scale (W1A1, Hubara et al.) rather
  /// than the unsigned grid. Requires act_bits == 1; applies to both the
  /// incoming codes and the emitted ones.
  bool bipolar = false;
  ConvKernel kernel = ConvKernel::kReference;
};

class ConvLayer final : public Layer {
 public:
  /// Sizes all parameters for an input of shape (C, H, W); weights start
  /// zero (callers use zoo helpers or load_weights).
  ConvLayer(const ConvConfig& cfg, Shape input_shape);

  std::string type_name() const override { return "convolutional"; }
  Shape output_shape() const override;
  void forward(const Tensor& in, Tensor& out) const override;
  void load_weights(WeightReader& r) override;
  void save_weights(WeightWriter& w) const override;
  OpsCount ops() const override;
  Precision precision() const override;

  /// The code hand-off (Layer::read_grid). kQuantReference reads HWC
  /// codes on its input grid (act_bits, in_scale) and writes them on its
  /// output grid (act_bits, out_scale); kLowp reads codes on any exact
  /// grid and, for a linear, ReLU or leaky activation, writes the codes of
  /// the unsigned grid its consumer reads. The float kernels neither read
  /// nor write codes.
  MaybeGrid read_grid(MaybeGrid offered) const override;
  MaybeGrid write_grid(MaybeGrid in, MaybeGrid wanted) const override;
  /// kLowp writing codes keeps its quantised frame and calibration in
  /// out.emitted when given.
  void forward(const LayerIn& in, const LayerOut& out) const override;
  /// kLowp: the floats of a forward() that wrote codes, from the frame it
  /// kept.
  void replay_emitted(const EmittedFrame& kept, Tensor& out) const override;
  /// kQuantReference runs a code pool on its output bands (LayerOut::pool)
  /// in the same pass as the conv.
  bool runs_code_pool() const override { return computes_on_codes(); }

  const ConvConfig& config() const { return cfg_; }
  const gemm::ConvGeometry& geometry() const { return geom_; }

  /// Weight matrix, filters × (C·K·K) row-major.
  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  Tensor& biases() { return biases_; }
  const Tensor& biases() const { return biases_; }
  Tensor& bn_scales() { return bn_scales_; }
  Tensor& bn_mean() { return bn_mean_; }
  Tensor& bn_var() { return bn_var_; }
  const Tensor& bn_scales() const { return bn_scales_; }
  const Tensor& bn_mean() const { return bn_mean_; }
  const Tensor& bn_var() const { return bn_var_; }

  /// Per-output-channel activation thresholds of the quantized path, as the
  /// fabric consumes them: the fold of bias/BN/activation over the raw
  /// ±1/A-bit accumulator (derived once and cached, like every weight form
  /// below, under the cache lock). Only valid for quantized layers.
  const std::vector<quant::ThresholdChannel>& quant_thresholds() const;

  /// Binarized weight matrix of the quantized path (bit = sign).
  const quant::BinaryMatrix& binary_weights() const;

  /// Invalidate caches after mutating weights (training, quantizing); not
  /// while a forward runs.
  void invalidate_cached_quantization();

 private:
  void forward_float(const Tensor& in, Tensor& out) const;
  /// The one 8-bit path: floats (quantize_frame) or codes
  /// (quantize_code_frame) in, the driver's float sink or code sink out.
  void forward_lowp(const LayerIn& in, const LayerOut& out) const;
  /// The one code-domain path: float input is quantised onto the input
  /// grid, run_code_layer runs, and float output is dequantised.
  void forward_quant(const LayerIn& in, const LayerOut& out) const;
  /// Applies BN (from statistics), bias and activation in place.
  void apply_post(Tensor& out) const;
  /// Channel c's batch-norm as out = x · first + second ({1, 0} without).
  std::pair<float, float> bn_fold(int64_t c) const;
  /// The A-bit grid the float output is snapped onto, if any.
  std::optional<CodeGrid> snap_grid() const;
  /// kLowp: the cached weight panels (built on first use).
  const gemm::PackedLhs& lowp_weights() const;
  /// binary_weights() and quant_thresholds() for a caller holding
  /// cache_mutex_.
  const quant::BinaryMatrix& binary_weights_locked() const;
  const std::vector<quant::ThresholdChannel>& thresholds_locked() const;
  /// kLowp: the driver's epilogue, its BN fold in `arena` scratch.
  gemm::LowpEpilogue lowp_epilogue(gemm::Arena& arena) const;

  /// kQuantReference with a valid W1A<bits> configuration.
  bool computes_on_codes() const;
  /// The kQuantReference layer over this layer's cached packed weights
  /// and threshold table (built on first use).
  gemm::CodeLayer code_layer() const;
  CodeGrid grid(float scale) const {
    return {cfg_.act_bits, scale, cfg_.bipolar};
  }

  ConvConfig cfg_;
  gemm::ConvGeometry geom_;
  Tensor weights_;    // filters × patch
  Tensor biases_;     // filters
  Tensor bn_scales_;  // filters (gamma)
  Tensor bn_mean_;    // filters
  Tensor bn_var_;     // filters

  // Lazy caches of derived quantized weight forms, built under the lock so
  // frames in flight through one layer may meet them cold.
  mutable std::mutex cache_mutex_;
  mutable std::optional<quant::BinaryMatrix> binary_cache_;
  mutable std::optional<gemm::BitSerialWeights> bitserial_cache_;
  mutable std::optional<Tensor> binary_float_cache_;
  mutable std::optional<std::vector<quant::ThresholdChannel>> threshold_cache_;
  mutable std::optional<gemm::ThresholdTable> threshold_table_;
  mutable std::optional<quant::AffineParams> lowp_params_;
  /// Weight panels pre-packed for the GEMM engine (pack/compute split:
  /// packed once per weight mutation, reused every frame).
  mutable std::optional<gemm::PackedLhs> packed_lowp_;
};

/// Batch-norm epsilon shared by inference and the threshold fold.
inline constexpr float kBatchNormEps = 1e-5f;

}  // namespace tincy::nn
