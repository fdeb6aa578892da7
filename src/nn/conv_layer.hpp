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
///    Network::forward it can write the next layer's input codes instead
///    of its floats (forward_emit), and read the previous layer's codes
///    instead of their floats (forward_from_codes),
///  * kQuantReference — bit-exact W1A<abits> QNN semantics (binarized
///    weights, thresholded activations) on the code-domain layer engine
///    (gemm/code_layer.hpp) that the fabric accelerator runs too; this is
///    the golden model. Its float forward() quantizes the input onto the
///    layer's input grid and dequantizes the output codes; inside
///    Network::forward it reads and emits codes (forward_codes).
///
/// The paper's specialized 16×27 first-layer kernels are not runtime
/// paths: their timing lives in the perf model (perf::FirstLayerImpl) and
/// their rshift-4 arithmetic in the packed engine's kI16Shift4 and its
/// scalar oracle gemm_lowp_i32_shift4.
///
/// Batch normalization is applied inference-style from stored statistics;
/// in the quantized path it folds into the activation thresholds just as
/// FINN folds it in hardware.

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
  void forward(const Tensor& in, Tensor& out) override;
  void load_weights(WeightReader& r) override;
  void save_weights(WeightWriter& w) const override;
  OpsCount ops() const override;
  Precision precision() const override;

  /// Code hooks of the kQuantReference path: reads HWC codes on its input
  /// grid (act_bits, in_scale) and emits HWC codes on its output grid
  /// (act_bits, out_scale). Other kernels compute on floats only.
  std::optional<CodeGrid> code_output(const CodeGrid& in) const override;
  std::optional<CodeGrid> code_input() const override;
  void forward_codes(const uint8_t* in, uint8_t* out) override;

  /// Producer emission of the kLowp path: the driver's code sink writes
  /// the HWC codes of `g` (an unsigned grid) straight from the accumulators,
  /// for a linear, ReLU or leaky activation. The quantised frame and its
  /// calibration stay in the layer, so replay_emitted() can recompute the
  /// floats.
  bool emits_codes(const CodeGrid& g) const override;
  void forward_emit(const Tensor& in, const CodeGrid& g,
                    uint8_t* out) override;
  void replay_emitted(Tensor& out) override;

  /// Consumer reading of the kLowp path: codes on an exact grid in, the
  /// frame's 8-bit codes made from them by table
  /// (gemm::quantize_code_frame), floats out.
  bool reads_codes(const CodeGrid& g) const override;
  void forward_from_codes(const uint8_t* in, const CodeGrid& g,
                          Tensor& out) override;

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
  /// ±1/A-bit accumulator (derived once and cached). Only valid for
  /// quantized layers.
  const std::vector<quant::ThresholdChannel>& quant_thresholds() const;

  /// Binarized weight matrix of the quantized path (bit = sign).
  const quant::BinaryMatrix& binary_weights() const;

  /// Invalidate caches after mutating weights (training, quantizing).
  void invalidate_cached_quantization();

 private:
  void forward_float(const Tensor& in, Tensor& out);
  void forward_lowp(const Tensor& in, Tensor& out);
  void forward_quant_reference(const Tensor& in, Tensor& out);
  /// Applies BN (from statistics), bias and activation in place.
  void apply_post(Tensor& out) const;
  /// Channel c's batch-norm as out = x · first + second ({1, 0} without).
  std::pair<float, float> bn_fold(int64_t c) const;
  /// The A-bit grid the float output is snapped onto, if any.
  std::optional<CodeGrid> snap_grid() const;
  /// kLowp: the cached weight panels (built on first use).
  const gemm::PackedLhs& lowp_weights() const;
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

  // Lazy caches of derived quantized weight forms.
  mutable std::optional<quant::BinaryMatrix> binary_cache_;
  mutable std::optional<gemm::BitSerialWeights> bitserial_cache_;
  mutable std::optional<Tensor> binary_float_cache_;
  mutable std::optional<std::vector<quant::ThresholdChannel>> threshold_cache_;
  mutable std::optional<gemm::ThresholdTable> threshold_table_;
  mutable std::optional<quant::AffineParams> lowp_params_;
  /// Weight panels pre-packed for the GEMM engine (pack/compute split:
  /// packed once per weight mutation, reused every frame).
  mutable std::optional<gemm::PackedLhs> packed_lowp_;

  /// The frame of the latest forward_emit(), quantised, and its
  /// calibration: what replay_emitted() recomputes the floats from.
  TensorU8 emitted_frame_;
  quant::AffineParams emitted_params_;
};

/// Batch-norm epsilon shared by inference and the threshold fold.
inline constexpr float kBatchNormEps = 1e-5f;

}  // namespace tincy::nn
