#pragma once

/// \file network.hpp
/// The network container: an ordered list of layers and the hand-off plan
/// between them. Besides the classic whole-net forward() it exposes per-layer
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
/// A frame's activations live in a caller-owned FrameState
/// (nn/frame_state.hpp): forward(input, state) runs one frame through
/// forward_layer(), the one per-layer step, which the Fig. 5 demo stages
/// call too (serve/demo.hpp). The network holds only the plan and the
/// layers, which keep no per-frame state, so two frames with their own
/// states can be in flight through one network. The single-frame calls
/// (forward(input), layer_output(i), run_layer) run on a state the
/// network owns.
///
/// A quantized conv followed by a max pool on codes runs as one layer
/// (fuses_pool(): L1+L2 … L9+L10 on zoo:tincy-w1a3): the conv pools each
/// band of its output in the same pass (gemm/code_layer.hpp) and writes
/// the pool's boundary, so the unpooled map never exists; the pool's step
/// does no work.
///
/// layer_output() makes the floats of a code boundary on first read: it
/// dequantises codes the producer offers on its own (its activation), has
/// a producer that wrote codes only because its consumer reads them
/// (emits(): L0) recompute its floats from the frame it kept in the state
/// (Layer::replay_emitted), and has a conv that ran its pool recompute its
/// unpooled map from its input, which the state still holds. Every
/// activation is bit-identical to running the layers one by one on floats,
/// which run_layer_into does: the per-layer float oracle of tests and
/// benches.
///
/// Per-layer timing is reported through the telemetry registry: every
/// layer run (forward_layer, run_layer, run_layer_into) records into
/// `net.layer.<i>.<type>.ms`, and forward() additionally into
/// `net.forward.ms`.

#include <optional>
#include <string>
#include <vector>

#include "nn/frame_state.hpp"
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

  /// Whole-network inference of one frame in `state`; returns the final
  /// feature map, which lives in `state`. Each layer records a telemetry
  /// span, sampled by snapshot(). Safe to call concurrently on distinct
  /// states.
  const Tensor& forward(const Tensor& input, FrameState& state) const;
  /// forward() on the network's own state.
  const Tensor& forward(const Tensor& input);

  /// The per-layer step of forward(input, state): runs layer i, reading
  /// `input` (layer 0) or layer i − 1's output in `state`, and writing its
  /// own output there as the plan says (codes or floats).
  void forward_layer(int64_t i, const Tensor& input, FrameState& state) const;

  /// Float activation of layer i in `state`. A layer that wrote codes
  /// dequantises them on the first read; one that emitted its consumer's
  /// codes (emits()) recomputes its floats then from the frame it kept,
  /// and a conv that ran its pool (fuses_pool()) from its input; all
  /// byte-identical to run_layer(i).
  const Tensor& layer_output(int64_t i, FrameState& state) const;
  /// layer_output() of the network's own state, after the last forward()
  /// or run_layer().
  const Tensor& layer_output(int64_t i);

  /// Runs a single layer on floats into the network's own state, where
  /// layer_output(i) reads it. The result is returned.
  const Tensor& run_layer(int64_t i, const Tensor& in);

  /// Runs a single layer on floats into a caller buffer: the per-layer
  /// float oracle. Records the same telemetry span as forward_layer.
  void run_layer_into(int64_t i, const Tensor& in, Tensor& out) const;

  /// The hand-off plan forward() runs: entry i is the grid of the codes
  /// layer i writes for layer i + 1, or nullopt where floats cross. The
  /// last entry, the network's output, is always nullopt.
  const std::vector<MaybeGrid>& plan() const { return plan_; }

  /// Whether layer i runs layer i + 1's code pool in forward(): a layer
  /// that runs_code_pool() before a code_pool(), with codes crossing
  /// between them and a producer of its own. It then writes the pool's
  /// output, and its own boundary stays empty.
  bool fuses_pool(int64_t i) const;

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
  /// Layer i's float buffer in `state`, allocated on first use.
  Tensor& float_buffer(int64_t i, FrameState& state) const;
  /// `state` sized for this network on its first frame.
  void bind(FrameState& state) const;
  /// Layer i's input in `state` (`input` for layer 0), as forward reads it.
  LayerIn input_of(int64_t i, const Tensor* input,
                   const FrameState& state) const;

  Shape input_shape_;
  telemetry::MetricsRegistry* metrics_;
  std::vector<LayerPtr> layers_;
  std::vector<MaybeGrid> plan_;  ///< see plan()
  std::vector<bool> fused_;      ///< see fuses_pool()
  FrameState state_;             ///< the single-frame calls' state
  std::vector<telemetry::Histogram*> layer_hist_;  ///< net.layer.<i>.<type>.ms
  std::vector<std::string> layer_trace_names_;     ///< net.layer.<i>.<type>
  telemetry::Histogram* forward_hist_;             ///< net.forward.ms
};

}  // namespace tincy::nn
