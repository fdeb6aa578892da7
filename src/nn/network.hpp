#pragma once

/// \file network.hpp
/// The network container: an ordered list of layers plus their activation
/// buffers. Besides the classic whole-net forward() it exposes per-layer
/// invocation — the paper had to "disintegrate" Darknet's forward pass to
/// feed individual layers into the frame pipeline (§III-F); here that
/// access is first-class.
///
/// Inside forward() the W1A<bits> hidden stack runs on activation codes,
/// as the paper's offload segment does (Fig. 3/4): batch-norm and
/// activation fold into the quantiser, so codes are what cross a layer
/// boundary. One rule, applied by add() to each boundary, says what
/// crosses it: u8 codes on grid G when the producer can write G
/// (Layer::write_grid) and the consumer reads G (Layer::read_grid), G
/// being exact (CodeGrid::exact); CHW floats otherwise. The plan is one
/// optional grid per boundary (plan()), and forward() runs each layer
/// through one Layer::forward(LayerIn, LayerOut) call across its two
/// boundaries. Handed codes are pixel-major (HWC, gemm/layout.hpp); a
/// layer that meets floats on one side converts in the same pass as its
/// quantise or dequantise.
///
/// On zoo:tincy-w1a3 this gives: L0 (an 8-bit kLowp conv) writes L1's
/// 3-bit codes from its accumulators, the quantized convs and the max
/// pools between them hand codes on, L13 (kLowp) reads L12's codes, and
/// only L13's output and the region layer's are floats.
///
/// layer_output() makes the floats of a code boundary on first read: it
/// dequantises codes the producer offers on its own (its activation), and
/// has a producer that wrote codes only because its consumer reads them
/// (emits(): L0) recompute its floats from the frame it kept
/// (Layer::replay_emitted). Every activation is bit-identical to running
/// the layers one by one on floats.
///
/// Per-layer timing is reported through the telemetry registry: every
/// run_layer/run_layer_into span and every layer of forward() records into
/// `net.layer.<i>.<type>.ms`, and forward() additionally into
/// `net.forward.ms`.

#include <optional>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace tincy::nn {

class Network {
 public:
  /// `metrics` defaults to the process-wide registry; hand a dedicated
  /// one for isolated measurements (tests, side-by-side comparisons).
  explicit Network(Shape input_shape,
                   telemetry::MetricsRegistry* metrics = nullptr);

  /// Appends a layer; its input shape is the current output shape.
  void add(LayerPtr layer);

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  const std::vector<LayerPtr>& layers() const { return layers_; }
  Layer& layer(int64_t i) { return *layers_[static_cast<size_t>(i)]; }
  const Layer& layer(int64_t i) const { return *layers_[static_cast<size_t>(i)]; }

  Shape input_shape() const { return input_shape_; }
  /// Input shape of layer i (== output shape of layer i−1).
  Shape layer_input_shape(int64_t i) const;
  /// Output shape of the whole network.
  Shape output_shape() const;

  /// Whole-network inference; returns the final feature map. Each layer
  /// records a telemetry span, sampled by snapshot().
  const Tensor& forward(const Tensor& input);

  /// Runs a single layer on an explicit input (pipeline mode). The result
  /// lands in this layer's activation buffer and is returned.
  const Tensor& run_layer(int64_t i, const Tensor& in);

  /// Runs a single layer into an external output buffer — the demo's
  /// per-frame-buffer mode, where concurrent frames must not share
  /// activation storage. Records the same telemetry span as run_layer, so
  /// per-layer timings stay fresh in demo mode.
  void run_layer_into(int64_t i, const Tensor& in, Tensor& out);

  /// Float activation of layer i after the last forward/run_layer. A layer
  /// that wrote codes in forward() dequantises them on the first read; one
  /// that emitted its consumer's codes (emits()) recomputes its floats
  /// then, byte-identical to run_layer(i). Like forward(), not safe to call
  /// concurrently.
  const Tensor& layer_output(int64_t i) const;

  /// The hand-off plan forward() runs: entry i is the grid of the codes
  /// layer i writes for layer i + 1, or nullopt where floats cross. The
  /// last entry, the network's output, is always nullopt.
  const std::vector<MaybeGrid>& plan() const { return plan_; }

  /// Whether layer i writes codes in forward() that quantise its float
  /// activation onto its consumer's grid, rather than codes whose values
  /// are that activation (Layer::write_grid).
  bool emits(int64_t i) const;

  /// Sample of this network's metrics (the `net.` namespace of its
  /// registry): per-layer latency histograms plus `net.forward.ms`.
  telemetry::Snapshot snapshot() const;

  /// The registry this network reports into.
  telemetry::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// Layer i's activation buffers. `out` of a float boundary is allocated
  /// by the next add(); the others on first use.
  struct Slot {
    TensorU8 codes;  ///< shaped C × H × W, stored HWC
    Tensor out;
    bool out_current = true;  ///< `out` holds the latest activation
  };

  /// The float buffer of layer i, allocated on first use.
  Tensor& float_buffer(int64_t i) const;
  /// float_buffer(i) holding the latest activation of layer i.
  const Tensor& float_output(int64_t i) const;

  Shape input_shape_;
  telemetry::MetricsRegistry* metrics_;
  std::vector<LayerPtr> layers_;
  std::vector<MaybeGrid> plan_;  ///< see plan()
  /// Mutable: layer_output() dequantises a layer's codes on first read.
  mutable std::vector<Slot> slots_;
  std::vector<telemetry::Histogram*> layer_hist_;  ///< net.layer.<i>.<type>.ms
  std::vector<std::string> layer_trace_names_;     ///< net.layer.<i>.<type>
  telemetry::Histogram* forward_hist_;             ///< net.forward.ms
};

}  // namespace tincy::nn
