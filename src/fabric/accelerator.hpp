#pragma once

/// \file accelerator.hpp
/// Top-level QNN accelerator: one generalized conv+pool engine (the only
/// configuration that fits the XCZU3EG, per the resource model) executing
/// the offloaded layers one after the other. "Note that this precludes
/// concurrency across layers and implies a higher latency compared to a
/// pipeline as the feature maps between layers are computed in full before
/// the computation of the next layer can be triggered" (§III-A).
///
/// Functional behaviour is bit-exact W1A<bits> arithmetic; timing comes
/// from a documented cycle model (folding + weight/feature-map DMA +
/// invocation overhead) instead of a bitstream.

#include <memory>
#include <span>
#include <vector>

#include "core/tensor.hpp"
#include "fabric/folding.hpp"
#include "fabric/mvtu.hpp"
#include "fabric/pool_unit.hpp"
#include "fabric/resource_model.hpp"
#include "fabric/sliding_window.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::fabric {

/// Geometry + quantization of one offloaded conv (+ optional pool) stage.
struct QnnLayerSpec {
  int64_t in_channels = 0;
  int64_t in_height = 0;
  int64_t in_width = 0;
  int64_t filters = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t pad = 1;          ///< padding in pixels
  int act_bits_in = 3;
  int act_bits_out = 3;
  float in_scale = 1.0f;    ///< real value of input code 1
  float out_scale = 1.0f;   ///< real value of output code 1
  bool bipolar = false;     ///< W1A1 ±scale codes in and out (valid conv only)
  bool pool_after = false;
  int64_t pool_size = 2;
  int64_t pool_stride = 2;

  gemm::ConvGeometry conv_geometry() const;
  /// Conv output extents (before pooling).
  int64_t conv_out_height() const { return conv_geometry().out_height(); }
  int64_t conv_out_width() const { return conv_geometry().out_width(); }
  /// Final output shape including the optional pool.
  Shape output_shape() const;
};

/// Timing model of the accelerator invocation path.
struct CycleModel {
  double clock_mhz = 300.0;
  Folding folding{32, 36};
  /// DDR streaming width for weights and feature maps (bits per cycle).
  double ddr_bits_per_cycle = 64.0;
  /// Fixed per-layer invocation overhead (driver call, DMA setup, flush).
  int64_t invocation_overhead_cycles = 150000;
};

/// Per-layer timing breakdown of one engine pass over `batch` frames.
/// compute / feature-map DMA / pool scale with the batch; the weight
/// stream and the invocation overhead are paid once per pass — that
/// amortization is the whole point of gang-scheduled batching.
struct LayerPerf {
  int64_t batch = 1;               ///< frames covered by this pass
  int64_t compute_cycles = 0;      ///< scales with batch
  int64_t weight_dma_cycles = 0;   ///< one weight-streaming phase per pass
  int64_t fmap_dma_cycles = 0;     ///< scales with batch
  int64_t overhead_cycles = 0;     ///< one invocation per pass
  int64_t pool_cycles = 0;         ///< scales with batch

  int64_t total_cycles() const {
    return compute_cycles + weight_dma_cycles + fmap_dma_cycles +
           overhead_cycles + pool_cycles;
  }
  double cycles_per_frame() const {
    return static_cast<double>(total_cycles()) / static_cast<double>(batch);
  }
  double weight_dma_per_frame() const {
    return static_cast<double>(weight_dma_cycles) /
           static_cast<double>(batch);
  }
  /// Weight-DMA cycles a sequential per-frame run would have paid extra.
  int64_t dma_saved_cycles() const {
    return (batch - 1) * weight_dma_cycles;
  }
};

class QnnAccelerator {
 public:
  explicit QnnAccelerator(CycleModel model = {}, Device device = {});

  /// Appends an offloaded stage. The weight matrix must be filters ×
  /// (in_channels·K²); thresholds one per filter. Layer shapes must chain.
  void add_layer(const QnnLayerSpec& spec, const quant::BinaryMatrix& weights,
                 std::vector<ThresholdChannel> thresholds);

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  const QnnLayerSpec& spec(int64_t i) const;
  const Mvtu& mvtu(int64_t i) const;

  Shape input_shape() const;
  Shape output_shape() const;

  /// Bit-exact execution over activation codes (CHW, one code per byte).
  std::vector<uint8_t> forward_codes(const std::vector<uint8_t>& input) const;

  /// Executes layer `i` over `batch` stacked input code maps with a
  /// single weight-streaming phase (weights resident across the batch,
  /// compute per frame). Bit-identical to running the layer per frame;
  /// records the fabric.dma_* amortization telemetry when batch > 1.
  void run_layer_batched(int64_t i, std::span<const uint8_t> inputs,
                         int64_t batch, std::span<uint8_t> outputs) const;

  /// Whole-network batched execution: layer-at-a-time across the batch,
  /// each layer one weight-streaming phase. forward_codes(x) is exactly
  /// forward_codes_batched(x, 1).
  std::vector<uint8_t> forward_codes_batched(
      const std::vector<uint8_t>& inputs, int64_t batch) const;

  /// Convenience float wrapper: quantizes the input onto the first layer's
  /// grid, runs the code path, dequantizes with the last layer's grid.
  Tensor forward(const Tensor& input) const;

  /// Timing of one layer under the cycle model (== layer_perf_batched(i, 1)).
  LayerPerf layer_perf(int64_t i) const;
  /// Timing of one gang-scheduled pass of layer `i` over `batch` frames:
  /// weights stream and the invocation overhead is paid once, compute and
  /// feature-map DMA scale with the batch.
  LayerPerf layer_perf_batched(int64_t i, int64_t batch) const;
  /// Total modeled milliseconds for all offloaded layers of one frame.
  double total_ms() const;

  /// Resource estimate of the single generalized engine (sized by the
  /// largest layer) and how many such engines the device would host.
  Resources engine_resources() const;
  int64_t engines_fitting() const;

  const CycleModel& cycle_model() const { return model_; }
  const Device& device() const { return device_; }

  /// Redirects the fabric.* batching telemetry (fabric.dma_amortized,
  /// fabric.dma_saved_cycles, fabric.batched_passes, fabric.batched_frames)
  /// to `metrics`; null selects the process-wide default registry.
  void set_metrics(telemetry::MetricsRegistry* metrics);

 private:
  struct Stage {
    QnnLayerSpec spec;
    Mvtu mvtu;
    SlidingWindowUnit swu;
  };

  CycleModel model_;
  Device device_;
  std::vector<Stage> layers_;
  telemetry::Counter* dma_amortized_counter_;
  telemetry::Counter* dma_saved_counter_;
  telemetry::Counter* batched_passes_counter_;
  telemetry::Counter* batched_frames_counter_;
};

}  // namespace tincy::fabric
