#include "fabric/accelerator.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "core/errors.hpp"
#include "gemm/layout.hpp"
#include "gemm/scratch.hpp"
#include "quant/thresholds.hpp"
#include "telemetry/trace.hpp"

namespace tincy::fabric {

void QnnLayerSpec::validate() const {
  constexpr int64_t kMaxDim = int64_t{1} << 24;
  const auto in_range = [](int64_t v, int64_t lo, int64_t hi) {
    return v >= lo && v <= hi;
  };
  TINCY_CHECK_MSG(in_range(in_channels, 1, kMaxDim) &&
                      in_range(in_height, 1, kMaxDim) &&
                      in_range(in_width, 1, kMaxDim) &&
                      in_range(filters, 1, kMaxDim),
                  "layer spec " << in_channels << "x" << in_height << "x"
                                << in_width << " -> " << filters
                                << " filters is out of range");
  TINCY_CHECK_MSG(in_range(kernel, 1, kMaxDim) &&
                      in_range(stride, 1, kMaxDim) &&
                      in_range(pad, 0, kMaxDim),
                  "layer spec kernel=" << kernel << " stride=" << stride
                                       << " pad=" << pad << " is invalid");
  TINCY_CHECK_MSG(in_range(act_bits_in, 1, 8) && in_range(act_bits_out, 1, 8),
                  "layer spec act bits " << act_bits_in << "/" << act_bits_out
                                         << " are not 1..8");
  TINCY_CHECK_MSG(!pool_after || (in_range(pool_size, 1, kMaxDim) &&
                                  in_range(pool_stride, 1, kMaxDim)),
                  "layer spec pool size=" << pool_size << " stride="
                                          << pool_stride << " is invalid");
}

gemm::ConvGeometry QnnLayerSpec::conv_geometry() const {
  gemm::ConvGeometry g;
  g.in_channels = in_channels;
  g.in_height = in_height;
  g.in_width = in_width;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  return g;
}

Shape QnnLayerSpec::output_shape() const {
  int64_t h = conv_out_height(), w = conv_out_width();
  if (pool_after) {
    PoolSpec p{filters, h, w, pool_size, pool_stride};
    h = p.out_height();
    w = p.out_width();
  }
  return Shape{filters, h, w};
}

QnnAccelerator::QnnAccelerator(CycleModel model, Device device)
    : model_(model), device_(device) {
  set_metrics(nullptr);
}

void QnnAccelerator::set_metrics(telemetry::MetricsRegistry* metrics) {
  auto* reg = metrics ? metrics : &telemetry::MetricsRegistry::global();
  dma_amortized_counter_ = &reg->counter("fabric.dma_amortized");
  dma_saved_counter_ = &reg->counter("fabric.dma_saved_cycles");
  batched_passes_counter_ = &reg->counter("fabric.batched_passes");
  batched_frames_counter_ = &reg->counter("fabric.batched_frames");
}

void QnnAccelerator::add_layer(const QnnLayerSpec& spec,
                               const quant::BinaryMatrix& weights,
                               const std::vector<ThresholdChannel>& thresholds) {
  spec.validate();
  const auto g = spec.conv_geometry();
  TINCY_CHECK_MSG(weights.rows == spec.filters &&
                      weights.cols == g.patch_size(),
                  "weight matrix " << weights.rows << "x" << weights.cols
                                   << " for spec " << spec.filters << "x"
                                   << g.patch_size());
  if (!layers_.empty()) {
    const Shape prev = layers_.back().spec.output_shape();
    const Shape expect{spec.in_channels, spec.in_height, spec.in_width};
    // FC-style stages (1×1 spatial) accept any flattening of the previous
    // output: CHW linearization is exactly the FC input order.
    const bool flatten_ok = spec.in_height == 1 && spec.in_width == 1 &&
                            prev.numel() == expect.numel();
    TINCY_CHECK_MSG(prev == expect || flatten_ok,
                    "layer input " << expect.to_string()
                                   << " does not chain from "
                                   << prev.to_string());
    TINCY_CHECK_MSG(layers_.back().spec.act_bits_out == spec.act_bits_in,
                    "activation precision mismatch between chained layers");
    TINCY_CHECK_MSG(layers_.back().spec.bipolar == spec.bipolar,
                    "activation encoding mismatch between chained layers");
  }
  if (spec.bipolar)
    TINCY_CHECK_MSG(spec.pad == 0, "bipolar conv cannot zero-pad");
  TINCY_CHECK_MSG(g.out_height() > 0 && g.out_width() > 0,
                  "degenerate conv output for spec " << spec.in_channels
                                                     << "x" << spec.in_height
                                                     << "x" << spec.in_width);
  layers_.push_back(Stage{spec, Mvtu(weights, thresholds, spec.act_bits_in,
                                     spec.bipolar ? ActEncoding::kBipolar
                                                  : ActEncoding::kUnsigned,
                                     spec.kernel)});
}

const QnnLayerSpec& QnnAccelerator::spec(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  return layers_[static_cast<size_t>(i)].spec;
}

Shape QnnAccelerator::input_shape() const {
  TINCY_CHECK(!layers_.empty());
  const auto& s = layers_.front().spec;
  return Shape{s.in_channels, s.in_height, s.in_width};
}

Shape QnnAccelerator::output_shape() const {
  TINCY_CHECK(!layers_.empty());
  return layers_.back().spec.output_shape();
}

std::vector<uint8_t> QnnAccelerator::forward_codes(
    const std::vector<uint8_t>& input) const {
  return forward_codes_batched(input, 1);
}

void QnnAccelerator::run_layer_batched(int64_t i,
                                       std::span<const uint8_t> inputs,
                                       int64_t batch,
                                       std::span<uint8_t> outputs) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  TINCY_CHECK_MSG(batch >= 1, "batch " << batch);
  const auto& s = layers_[static_cast<size_t>(i)].spec;
  const int64_t in_numel = s.in_channels * s.in_height * s.in_width;
  const int64_t out_numel = s.output_shape().numel();
  TINCY_CHECK(static_cast<int64_t>(inputs.size()) == batch * in_numel);
  TINCY_CHECK(static_cast<int64_t>(outputs.size()) == batch * out_numel);
  // The engine computes on HWC codes; this call's contract is CHW.
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  uint8_t* in_hwc = arena.alloc<uint8_t>(batch * in_numel);
  uint8_t* out_hwc = arena.alloc<uint8_t>(batch * out_numel);
  for (int64_t f = 0; f < batch; ++f)
    gemm::chw_to_hwc(inputs.data() + f * in_numel, s.in_channels,
                     s.in_height * s.in_width, in_hwc + f * in_numel);
  run_stage_hwc(i, in_hwc, batch, out_hwc);
  for (int64_t f = 0; f < batch; ++f)
    gemm::hwc_to_chw(out_hwc + f * out_numel, s.filters,
                     out_numel / s.filters, outputs.data() + f * out_numel);
}

void QnnAccelerator::run_stage_hwc(int64_t i, const uint8_t* in,
                                   int64_t batch, uint8_t* out) const {
  const Stage& stage = layers_[static_cast<size_t>(i)];
  const auto& s = stage.spec;

  // One span per engine pass, annotated with the cycle-model split so a
  // Perfetto timeline shows where each pass's cycles went. The frame
  // identity comes from the worker's thread-local context.
  char span_name[32];
  std::snprintf(span_name, sizeof span_name, "fabric.layer%" PRId64, i);
  telemetry::TraceSpan trace_span(&telemetry::TraceCollector::global(),
                                  span_name,
                                  telemetry::current_trace_context());
  if (trace_span.active()) {
    const LayerPerf perf = layer_perf_batched(i, batch);
    char args[telemetry::TraceEvent::kArgsCapacity];
    std::snprintf(args, sizeof args,
                  "\"batch\":%" PRId64 ",\"compute\":%" PRId64
                  ",\"wdma\":%" PRId64 ",\"fmap\":%" PRId64
                  ",\"overhead\":%" PRId64 ",\"pool\":%" PRId64,
                  perf.batch, perf.compute_cycles, perf.weight_dma_cycles,
                  perf.fmap_dma_cycles, perf.overhead_cycles,
                  perf.pool_cycles);
    trace_span.set_args(args);
  }

  // One weight-streaming phase covers the whole batch: the sliding window
  // streams every frame's footprints as bit-plane columns, the MVTU
  // applies the resident weights and thresholds to all of them and the
  // pool unit pools the codes. Layer-at-a-time semantics per frame are
  // unchanged (no cross-layer concurrency).
  gemm::CodeLayer layer;
  layer.geom = s.conv_geometry();
  layer.bits = s.act_bits_in;
  layer.bipolar = s.bipolar;
  layer.weights = &stage.mvtu.weights();
  layer.thresholds = &stage.mvtu.thresholds();
  if (s.pool_after) {
    layer.pool_size = s.pool_size;
    layer.pool_stride = s.pool_stride;
  }
  gemm::run_code_layer(layer, in, batch, out);

  if (batch > 1) {
    // A sequential per-frame run would have streamed the weights batch
    // times; this pass streamed them once.
    batched_passes_counter_->add(1);
    batched_frames_counter_->add(batch);
    dma_amortized_counter_->add(batch - 1);
    dma_saved_counter_->add((batch - 1) * layer_perf(i).weight_dma_cycles);
  }
}

std::vector<uint8_t> QnnAccelerator::forward_codes_batched(
    const std::vector<uint8_t>& inputs, int64_t batch) const {
  TINCY_CHECK(!layers_.empty());
  TINCY_CHECK_MSG(batch >= 1, "batch " << batch);
  TINCY_CHECK(static_cast<int64_t>(inputs.size()) ==
              batch * input_shape().numel());
  // The maps stay HWC from stage to stage: CHW at the two ends, and
  // before an FC stage over a spatial map, whose input order is the CHW
  // flattening (a 1 × 1 map is the same bytes in both layouts).
  int64_t largest = input_shape().numel();
  for (const Stage& stage : layers_)
    largest = std::max(largest, stage.spec.output_shape().numel());
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  uint8_t* cur = arena.alloc<uint8_t>(batch * largest);
  uint8_t* next = arena.alloc<uint8_t>(batch * largest);
  const auto& first = layers_.front().spec;
  const int64_t in_numel = input_shape().numel();
  for (int64_t f = 0; f < batch; ++f)
    gemm::chw_to_hwc(inputs.data() + f * in_numel, first.in_channels,
                     first.in_height * first.in_width, cur + f * in_numel);
  for (int64_t i = 0; i < num_layers(); ++i) {
    const auto& s = layers_[static_cast<size_t>(i)].spec;
    const Shape prev = i > 0 ? spec(i - 1).output_shape() : input_shape();
    const int64_t prev_pixels = prev.height() * prev.width();
    if (i > 0 && s.in_height * s.in_width == 1 && prev_pixels > 1) {
      for (int64_t f = 0; f < batch; ++f)
        gemm::hwc_to_chw(cur + f * prev.numel(), prev.channels(),
                         prev_pixels, next + f * prev.numel());
      std::swap(cur, next);
    }
    run_stage_hwc(i, cur, batch, next);
    std::swap(cur, next);
  }
  const Shape out = output_shape();
  std::vector<uint8_t> outputs(static_cast<size_t>(batch * out.numel()));
  for (int64_t f = 0; f < batch; ++f)
    gemm::hwc_to_chw(cur + f * out.numel(), out.channels(),
                     out.height() * out.width(),
                     outputs.data() + f * out.numel());
  return outputs;
}

Tensor QnnAccelerator::forward(const Tensor& input) const {
  TINCY_CHECK(!layers_.empty());
  // Element count must match; the exact shape may be any flattening (an
  // FC front layer views a CHW map as one long channel vector).
  TINCY_CHECK_MSG(input.numel() == input_shape().numel(),
                  input.shape().to_string() << " vs "
                                            << input_shape().to_string());
  const auto& first = layers_.front().spec;
  const auto& last = layers_.back().spec;

  std::vector<uint8_t> codes(static_cast<size_t>(input.numel()));
  const quant::CodeGrid in_grid{first.act_bits_in, first.in_scale,
                                first.bipolar};
  in_grid.quantize(input.data(), input.numel(), codes.data());
  const std::vector<uint8_t> out_codes = forward_codes(codes);
  Tensor out(output_shape());
  const quant::CodeGrid out_grid{last.act_bits_out, last.out_scale,
                                 last.bipolar};
  out_grid.dequantize(out_codes.data(), out.numel(), out.data());
  return out;
}

LayerPerf QnnAccelerator::layer_perf(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  const Stage& stage = layers_[static_cast<size_t>(i)];
  const auto& s = stage.spec;
  const int64_t n = s.conv_geometry().num_patches();

  LayerPerf p;
  p.compute_cycles = stage.mvtu.cycles_per_column(model_.folding) * n;
  // Layer-at-a-time execution streams this layer's weights from DDR.
  const int64_t weight_bits = stage.mvtu.rows() * stage.mvtu.cols();
  p.weight_dma_cycles = static_cast<int64_t>(
      std::ceil(static_cast<double>(weight_bits) / model_.ddr_bits_per_cycle));
  // Input and output feature maps also cross DDR between invocations.
  const int64_t in_bits =
      s.in_channels * s.in_height * s.in_width * s.act_bits_in;
  const int64_t out_bits = s.output_shape().numel() * s.act_bits_out;
  p.fmap_dma_cycles = static_cast<int64_t>(std::ceil(
      static_cast<double>(in_bits + out_bits) / model_.ddr_bits_per_cycle));
  p.overhead_cycles = model_.invocation_overhead_cycles;
  if (s.pool_after) {
    const PoolSpec ps{s.filters, s.conv_out_height(), s.conv_out_width(),
                      s.pool_size, s.pool_stride};
    p.pool_cycles = pool_cycles(ps, model_.folding.pe);
  }
  return p;
}

LayerPerf QnnAccelerator::layer_perf_batched(int64_t i, int64_t batch) const {
  TINCY_CHECK_MSG(batch >= 1, "batch " << batch);
  LayerPerf p = layer_perf(i);
  p.batch = batch;
  // Per-frame work scales; the weight stream and the invocation overhead
  // are paid once for the whole gang.
  p.compute_cycles *= batch;
  p.fmap_dma_cycles *= batch;
  p.pool_cycles *= batch;
  return p;
}

double QnnAccelerator::total_ms() const {
  int64_t cycles = 0;
  for (int64_t i = 0; i < num_layers(); ++i)
    cycles += layer_perf(i).total_cycles();
  return static_cast<double>(cycles) / (model_.clock_mhz * 1e3);
}

Resources QnnAccelerator::engine_resources() const {
  EngineSpec spec;
  spec.folding = model_.folding;
  int64_t max_depth = 1, max_rows = 1, max_weight_bits = 1;
  int act_bits = 1;
  for (const Stage& stage : layers_) {
    max_depth = std::max(max_depth, stage.mvtu.cols());
    max_rows = std::max(max_rows, stage.mvtu.rows());
    max_weight_bits =
        std::max(max_weight_bits, stage.mvtu.rows() * stage.mvtu.cols());
    act_bits = std::max(act_bits, stage.spec.act_bits_in);
  }
  spec.max_depth = max_depth;
  spec.max_rows = max_rows;
  spec.weight_bits_on_chip = max_weight_bits;
  spec.act_bits = act_bits;
  return estimate_engine(spec);
}

int64_t QnnAccelerator::engines_fitting() const {
  const Resources one = engine_resources();
  int64_t n = 0;
  Resources total;
  while (true) {
    Resources next = total;
    next += one;
    if (!fits(next, device_)) break;
    total = next;
    ++n;
  }
  return n;
}

}  // namespace tincy::fabric
