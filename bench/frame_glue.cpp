// Self-checking bench of the W1A3 frame's per-element CPU stages:
//
//   frame_glue [out.json]
//
// On the shapes of zoo:tincy-w1a3 at 416 (random weights, a random
// 640×480 camera frame), each stage's scalar per-element oracle
// (tests/frame_glue_oracle.hpp) is timed against the single-pass kernel
// the frame runs:
//
//   letterbox  640×480 → 416 (paper Fig. 5 stage #1), rows sharded over
//              the shared pool,
//   L2/L4/L10  the size-2 max pools (stride 2, 2, 1),
//   L1/L3      the golden bit-serial conv: activation quantisation, bit-
//              plane im2col, popcount GEMM and threshold epilogue. The
//              im2col and GEMM are shared, so the difference is the
//              quantisation, the epilogue and the per-call buffers;
//   L1 input   the activation quantisation on its own.
//
// L0, the 8-bit first layer, phase by phase (the driver's phase against
// the pass it replaces):
//
//   L0 calibrate         the frame's min/max, sharded vs the serial scan;
//   L0 quantise          the frame's affine codes, sharded vs serial;
//   L0 im2col + GEMM     the driver with an identity epilogue vs dense
//                        im2col + packed GEMM + dequantisation;
//   L0 epilogue          the driver with BN, bias and activation in its
//                        shards vs the driver then a separate post-pass;
//   L0 emitting L1 codes L0's code sink vs L0's floats quantised onto
//                        L1's input grid ("L0 + L1 quantise").
//
// The pixel-major code engine's stages, each against its scalar oracle,
// on L1's and L3's input codes in HWC order:
//
//   L1/L3 im2col         gemm::im2col_bitplanes (pixel planes by shift
//                        and movemask, whole C-bit field stores) against
//                        a bit-by-bit gather;
//   L1 epilogue          the bit-serial GEMM with the threshold table
//                        (its int16 compare, as the engine runs it)
//                        writing each column as one HWC pixel, against
//                        the same GEMM with one ThresholdChannel::apply
//                        per output;
//   L1+L2, L3+L4         gemm::run_code_layer with the pool, one banded
//   streamed             pass that pools each band while it is hot, as
//                        Network::forward runs the pair, against the
//                        unpooled conv map followed by max_pool_codes.
//
// The code-domain rows time what Network::forward runs between the
// quantized convs against the float path it replaces (the "oracle"
// column holds the float path):
//
//   L2/L4/L10 code pool  MaxPoolLayer::forward on the layer's input codes
//                        against the float pool on their values;
//                        exact iff the dequantised codes equal the floats;
//   L1-L12 ladder        Network::forward over the hidden ladder (codes
//                        handed layer to layer) against run_layer on
//                        floats layer by layer; exact iff the L12 outputs
//                        are byte-identical;
//   L13 from codes       L13 reading L12's HWC codes (its 8-bit frame
//                        made by table, gemm::quantize_code_frame)
//                        against L12's codes dequantised to floats and
//                        L13's float forward;
//   NMS                  detect::nms (kept boxes bucketed by class) on
//                        the 416 frame's decoded boxes (threshold 0.05, as
//                        perfbench) against the scalar greedy pass.
//
// Each pair runs alternately, so both see the same host noise; the
// median of the trials is reported. One process's medians swing 2–3×
// against another's on a shared host: bench/glue_spread.py runs several
// processes and records each row's spread with the host's steal time. Gate: every kernel's output is byte-
// identical to its oracle's, else exit 1. Writes out.json (default
// BENCH_glue.json in the working directory; run from the repo root to
// refresh the committed copy).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "data/image.hpp"
#include "detect/decode.hpp"
#include "detect/nms.hpp"
#include "frame_glue_oracle.hpp"
#include "gemm/code_layer.hpp"
#include "gemm/gemm_lowp.hpp"
#include "gemm/layout.hpp"
#include "nn/builder.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/network.hpp"
#include "nn/region_layer.hpp"
#include "nn/zoo.hpp"

using namespace tincy;

namespace {

struct Row {
  std::string stage, shape;
  double oracle_ms = 0.0, kernel_ms = 0.0;
  bool bit_exact = false;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double ms_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs oracle and kernel alternately `trials` times after one untimed
/// warm-up each; `same()` then compares their outputs.
Row time_pair(std::string stage, std::string shape, int trials,
              const std::function<void()>& oracle,
              const std::function<void()>& kernel,
              const std::function<bool()>& same) {
  oracle();
  kernel();
  Row r{std::move(stage), std::move(shape)};
  r.bit_exact = same();
  std::vector<double> o, k;
  for (int t = 0; t < trials; ++t) {
    o.push_back(ms_of(oracle));
    k.push_back(ms_of(kernel));
  }
  r.oracle_ms = median(o);
  r.kernel_ms = median(k);
  return r;
}

/// Byte-for-byte equality of two tensors.
template <typename T>
bool bytes_equal(const T& want, const T& got) {
  return want.shape() == got.shape() &&
         std::memcmp(want.data(), got.data(),
                     static_cast<size_t>(want.numel()) *
                         sizeof(*want.data())) == 0;
}

template <typename T>
Row time_pair(std::string stage, std::string shape, int trials,
              const std::function<void()>& oracle,
              const std::function<void()>& kernel, const T& want,
              const T& got) {
  return time_pair(std::move(stage), std::move(shape), trials, oracle, kernel,
                   [&] { return bytes_equal(want, got); });
}

/// The hidden ladder (layers 1..12) of the zoo:tincy-w1a3 cfg `cfg` as a
/// network of its own, on the input shape `in`.
std::unique_ptr<nn::Network> hidden_ladder(const std::string& cfg, Shape in) {
  std::string sub = "[net]\nwidth=" + std::to_string(in.width()) +
                    "\nheight=" + std::to_string(in.height()) +
                    "\nchannels=" + std::to_string(in.channels()) + "\n\n";
  // Section headers start lines: [net], L0's conv, then the ladder, which
  // ends where the 125-filter output conv begins.
  size_t begin = 0;
  for (int header = 0; header < 3; ++header)
    begin = cfg.find("\n[", begin) + 1;
  const size_t end = cfg.find("[convolutional]\nfilters=125");
  TINCY_CHECK(begin > 0 && end != std::string::npos && end > begin);
  sub += cfg.substr(begin, end - begin);
  return nn::build_network_from_string(sub);
}

std::string shape_of(const Tensor& t) { return t.shape().to_string(); }

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_glue.json";
  const int kTrials = 9;

  Rng rng(14);
  const std::string cfg = nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kW1A3, 416,
      nn::zoo::CpuProfile::kOptimized);
  auto net = nn::zoo::build(cfg);
  nn::zoo::randomize(*net, rng);
  Tensor frame(Shape{3, 480, 640});
  for (int64_t i = 0; i < frame.numel(); ++i)
    frame[i] = rng.uniform(0.0f, 1.0f);

  // Each layer's real input: the frame run through the network so far.
  std::vector<Tensor> inputs{data::letterbox(frame, 416)};
  for (int64_t i = 0; i < net->num_layers(); ++i)
    inputs.push_back(net->run_layer(i, inputs.back()));

  std::vector<Row> rows;
  {
    Tensor want, got;
    rows.push_back(time_pair(
        "letterbox (sharded)", "(3, 480, 640) -> 416", kTrials,
        [&] { want = oracle::letterbox(frame, 416); },
        [&] { got = data::letterbox(frame, 416); }, want, got));
  }
  for (const int64_t l : {2, 4, 10}) {
    auto& pool = dynamic_cast<nn::MaxPoolLayer&>(net->layer(l));
    const Tensor& in = inputs[static_cast<size_t>(l)];
    Tensor want(pool.output_shape()), got(pool.output_shape());
    rows.push_back(time_pair(
        "L" + std::to_string(l) + " maxpool", shape_of(in), kTrials,
        [&] {
          oracle::maxpool(in, pool.config().size, pool.config().stride, want);
        },
        [&] { pool.forward(in, got); }, want, got));
  }
  for (const int64_t l : {1, 3}) {
    auto& conv = dynamic_cast<nn::ConvLayer&>(net->layer(l));
    const Tensor& in = inputs[static_cast<size_t>(l)];
    const gemm::BitSerialWeights packed =
        gemm::pack_bitserial(conv.binary_weights(), conv.config().size);
    Tensor want(conv.output_shape()), got(conv.output_shape());
    rows.push_back(time_pair(
        "L" + std::to_string(l) + " golden conv", shape_of(in), kTrials,
        [&] { oracle::golden_conv(conv, packed, in, want); },
        [&] { conv.forward(in, got); }, want, got));
  }
  {
    const Tensor& in = inputs[1];
    const quant::UniformActQuant q{3, 1.0f};
    TensorU8 want(in.shape()), got(in.shape());
    rows.push_back(time_pair(
        "L1 input quantisation", shape_of(in), kTrials,
        [&] {
          for (int64_t i = 0; i < in.numel(); ++i)
            want[i] = oracle::uniform_quantize(q, in[i]);
        },
        [&] {
          quant::quantize_activations(in.data(), in.numel(), q, got.data());
        },
        want, got));
  }

  {
    // L0, the 8-bit first layer, phase by phase: each phase of the driver
    // against the single-threaded or separate pass it replaces.
    auto& conv = dynamic_cast<nn::ConvLayer&>(net->layer(0));
    const Tensor& in = inputs[0];
    const std::string shape = shape_of(in);
    core::ThreadPool& pool = core::ThreadPool::shared();
    std::pair<float, float> want_range, got_range;
    rows.push_back(time_pair(
        "L0 calibrate", shape, kTrials,
        [&] { want_range = oracle::min_max(in); },
        [&] { got_range = quant::min_max(in.data(), in.numel(), pool); },
        [&] {
          return std::memcmp(&want_range, &got_range, sizeof want_range) == 0;
        }));
    const quant::AffineParams params =
        quant::choose_affine_params(want_range.first, want_range.second);
    TensorU8 want_q(in.shape()), got_q(in.shape());
    rows.push_back(time_pair(
        "L0 quantise", shape, kTrials,
        [&] { quant::quantize(in.data(), in.numel(), params, want_q.data()); },
        [&] {
          quant::quantize(in.data(), in.numel(), params, got_q.data(), pool);
        },
        want_q, got_q));

    // The layer's weight panels, quantised as the layer does it.
    const auto [wlo, whi] = quant::min_max(conv.weights());
    const quant::AffineParams w_params = quant::choose_affine_params(wlo, whi);
    const TensorU8 wq = quant::quantize(conv.weights(), w_params);
    const gemm::PackedLhs packed =
        gemm::pack_lhs(wq.data(), conv.config().filters,
                       conv.geometry().patch_size(), w_params.zero_point);
    Tensor raw(conv.output_shape()), got_raw(conv.output_shape());
    rows.push_back(time_pair(
        "L0 im2col + GEMM", shape, kTrials,
        [&] {
          oracle::lowp_conv_raw(want_q.data(), conv.geometry(), params,
                                packed, w_params, raw.data());
        },
        [&] {
          gemm::fused_conv_lowp_f32out(want_q.data(), conv.geometry(), params,
                                       packed, w_params, {}, got_raw.data());
        },
        raw, got_raw));

    // The epilogue: a separate post-pass over the raw floats against the
    // chain inside the driver's shards (both include im2col + GEMM).
    const nn::ConvConfig& cfg0 = conv.config();
    std::vector<float> mul(static_cast<size_t>(cfg0.filters));
    std::vector<float> add(mul.size());
    for (int64_t c = 0; c < cfg0.filters; ++c) {
      const float inv_sigma =
          1.0f / std::sqrt(conv.bn_var()[c] + nn::kBatchNormEps);
      mul[static_cast<size_t>(c)] = conv.bn_scales()[c] * inv_sigma;
      add[static_cast<size_t>(c)] =
          -conv.bn_mean()[c] * mul[static_cast<size_t>(c)];
    }
    gemm::LowpEpilogue epilogue;
    epilogue.mul = mul.data();
    epilogue.add = add.data();
    epilogue.bias = conv.biases().data();
    epilogue.act = cfg0.activation;
    Tensor want_post(conv.output_shape()), got_post(conv.output_shape());
    rows.push_back(time_pair(
        "L0 epilogue", shape, kTrials,
        [&] {
          gemm::fused_conv_lowp_f32out(want_q.data(), conv.geometry(), params,
                                       packed, w_params, {}, want_post.data());
          oracle::apply_post(conv, want_post);
        },
        [&] {
          gemm::fused_conv_lowp_f32out(want_q.data(), conv.geometry(), params,
                                       packed, w_params, epilogue,
                                       got_post.data());
        },
        want_post, got_post));

    // The whole hand-off: L0's floats quantised onto L1's grid, against L0
    // writing those codes itself.
    const auto& l1 = dynamic_cast<const nn::ConvLayer&>(net->layer(1));
    const quant::CodeGrid grid{l1.config().act_bits, l1.config().in_scale,
                               l1.config().bipolar};
    Tensor floats(conv.output_shape());
    TensorU8 chw_codes(conv.output_shape()), want_codes(conv.output_shape()),
        got_codes(conv.output_shape());
    const int64_t l1_pixels = l1.geometry().in_height * l1.geometry().in_width;
    rows.push_back(time_pair(
        "L0 emitting L1 codes", shape, kTrials,
        [&] {
          conv.forward(in, floats);
          grid.quantize(floats.data(), floats.numel(), chw_codes.data());
          oracle::to_hwc(chw_codes.data(), l1.geometry().in_channels,
                         l1_pixels, want_codes.data());
        },
        [&] {
          conv.forward(nn::LayerIn{&in},
                       nn::LayerOut{nullptr, got_codes.data(), grid});
        },
        want_codes, got_codes));
  }

  // The pixel-major code engine's stages on L1's and L3's real input
  // codes (HWC, as Network::forward hands them).
  std::vector<TensorU8> hwc_codes(4);
  for (const int64_t l : {1, 3}) {
    const auto& conv = dynamic_cast<const nn::ConvLayer&>(net->layer(l));
    const Tensor& in = inputs[static_cast<size_t>(l)];
    hwc_codes[static_cast<size_t>(l)] = TensorU8(in.shape());
    gemm::quantize_to_hwc(*conv.read_grid(std::nullopt), in.data(),
                          in.shape().channels(),
                          in.shape().height() * in.shape().width(),
                          hwc_codes[static_cast<size_t>(l)].data());
  }
  for (const int64_t l : {1, 3}) {
    const auto& conv = dynamic_cast<const nn::ConvLayer&>(net->layer(l));
    const gemm::ConvGeometry& g = conv.geometry();
    const int bits = conv.config().act_bits;
    const int64_t words =
        g.num_patches() * bits * gemm::bitplane_words(g.patch_size());
    std::vector<uint64_t> want(static_cast<size_t>(words)),
        got(static_cast<size_t>(words));
    const uint8_t* codes = hwc_codes[static_cast<size_t>(l)].data();
    rows.push_back(time_pair(
        "L" + std::to_string(l) + " im2col", shape_of(inputs[static_cast<size_t>(l)]),
        kTrials, [&] { oracle::im2col_bitplanes(codes, g, bits, want.data()); },
        [&] { gemm::im2col_bitplanes(codes, g, bits, got.data()); },
        [&] { return want == got; }));
  }
  {
    // L1's threshold epilogue inside the bit-serial GEMM: one
    // ThresholdChannel::apply per output against the table compare
    // writing each column's codes as one HWC pixel. Both arms run the
    // same im2col'd columns through the same GEMM.
    auto& conv = dynamic_cast<nn::ConvLayer&>(net->layer(1));
    const gemm::ConvGeometry& g = conv.geometry();
    const int bits = conv.config().act_bits;
    const gemm::BitSerialWeights packed =
        gemm::pack_bitserial(conv.binary_weights(), conv.config().size);
    const gemm::ThresholdTable table(conv.quant_thresholds());
    const int64_t n = g.num_patches(), rows_out = conv.config().filters;
    std::vector<uint64_t> planes(
        static_cast<size_t>(n * bits * gemm::bitplane_words(g.patch_size())));
    gemm::im2col_bitplanes(hwc_codes[1].data(), g, bits, planes.data());
    const auto& channels = conv.quant_thresholds();
    // The engine's bound: with it the table compares on int16 lanes.
    const int64_t bound = g.patch_size() * ((int64_t{1} << bits) - 1);
    TensorU8 want(conv.output_shape()), got(conv.output_shape());
    rows.push_back(time_pair(
        "L1 epilogue", shape_of(inputs[1]), kTrials,
        [&] {
          gemm::bitserial_gemm(
              packed, planes.data(), n, bits, false,
              [&](int64_t j0, int64_t count, const int32_t* acc) {
                for (int64_t jj = 0; jj < count; ++jj)
                  for (int64_t c = 0; c < rows_out; ++c)
                    want[(j0 + jj) * rows_out + c] =
                        channels[static_cast<size_t>(c)].apply(
                            acc[jj * rows_out + c]);
              });
        },
        [&] {
          gemm::bitserial_gemm(
              packed, planes.data(), n, bits, false,
              [&](int64_t j0, int64_t count, const int32_t* acc) {
                gemm::threshold_columns(table, acc, count,
                                        got.data() + j0 * rows_out, bound);
              });
        },
        want, got));
  }
  for (const int64_t l : {1, 3}) {
    // The conv and the pool after it as Network::forward runs them: one
    // banded pass, each band pooled while hot, against the conv's whole
    // unpooled map followed by the pool as a pass of its own.
    const auto& conv = dynamic_cast<const nn::ConvLayer&>(net->layer(l));
    const auto& pool = dynamic_cast<const nn::MaxPoolLayer&>(net->layer(l + 1));
    const nn::ConvConfig& cc = conv.config();
    const gemm::BitSerialWeights packed =
        gemm::pack_bitserial(conv.binary_weights(), cc.size);
    const gemm::ThresholdTable table(conv.quant_thresholds());
    gemm::CodeLayer layer;
    layer.geom = conv.geometry();
    layer.bits = cc.act_bits;
    layer.weights = &packed;
    layer.thresholds = &table;
    const gemm::PoolGeometry pg{cc.filters, layer.geom.out_height(),
                                layer.geom.out_width(), pool.config().size,
                                pool.config().stride};
    gemm::CodeLayer pooled = layer;
    pooled.pool_size = pg.size;
    pooled.pool_stride = pg.stride;
    TensorU8 map(conv.output_shape()), want(pool.output_shape()),
        got(pool.output_shape());
    const uint8_t* codes = hwc_codes[static_cast<size_t>(l)].data();
    rows.push_back(time_pair(
        "L" + std::to_string(l) + "+L" + std::to_string(l + 1) + " streamed",
        shape_of(inputs[static_cast<size_t>(l)]), kTrials,
        [&] {
          gemm::run_code_layer(layer, codes, 1, map.data());
          gemm::max_pool_codes(pg, map.data(), want.data());
        },
        [&] { gemm::run_code_layer(pooled, codes, 1, got.data()); }, want,
        got));
  }

  for (const int64_t l : {2, 4, 10}) {
    // The pool's input codes: the previous conv's values on its grid.
    auto& pool = dynamic_cast<nn::MaxPoolLayer&>(net->layer(l));
    const Tensor& in = inputs[static_cast<size_t>(l)];
    const nn::ConvConfig& conv =
        dynamic_cast<const nn::ConvLayer&>(net->layer(l - 1)).config();
    const quant::CodeGrid grid{conv.act_bits, conv.out_scale, conv.bipolar};
    // Code maps are pixel-major (HWC).
    const Shape out = pool.output_shape();
    TensorU8 chw(in.shape()), codes(in.shape()), pooled(out), pooled_chw(out);
    grid.quantize(in.data(), in.numel(), chw.data());
    oracle::to_hwc(chw.data(), in.shape().channels(),
                   in.shape().height() * in.shape().width(), codes.data());
    Tensor want(out), got(out);
    rows.push_back(time_pair(
        "L" + std::to_string(l) + " code pool", shape_of(in), kTrials,
        [&] { pool.forward(in, want); },
        [&] {
          pool.forward(nn::LayerIn{nullptr, codes.data(), grid},
                       nn::LayerOut{nullptr, pooled.data(), grid});
        },
        [&] {
          oracle::to_chw(pooled.data(), out.channels(),
                         out.height() * out.width(), pooled_chw.data());
          grid.dequantize(pooled_chw.data(), pooled_chw.numel(), got.data());
          return bytes_equal(want, got);
        }));
  }
  {
    // Two copies of the ladder with the same parameters: one runs
    // forward() on codes, the other run_layer on floats.
    const Tensor& in = inputs[1];
    auto coded = hidden_ladder(cfg, in.shape());
    auto floats = hidden_ladder(cfg, in.shape());
    Rng ladder_rng(15);
    nn::zoo::randomize(*coded, ladder_rng);
    ladder_rng = Rng(15);
    nn::zoo::randomize(*floats, ladder_rng);
    const Tensor* want = nullptr;
    const Tensor* got = nullptr;
    rows.push_back(time_pair(
        "L1-L12 ladder", shape_of(in), kTrials,
        [&] {
          want = &in;
          for (int64_t i = 0; i < floats->num_layers(); ++i)
            want = &floats->run_layer(i, *want);
        },
        [&] { got = &coded->forward(in); },
        [&] { return bytes_equal(*want, *got); }));
  }

  {
    // L13 on L12's codes: the float path dequantised them into L13's
    // input, which L13 quantised again on its own calibration.
    auto& conv = dynamic_cast<nn::ConvLayer&>(net->layer(13));
    const nn::ConvConfig& c12 =
        dynamic_cast<const nn::ConvLayer&>(net->layer(12)).config();
    const quant::CodeGrid grid{c12.act_bits, c12.out_scale, c12.bipolar};
    const Tensor& in = inputs[13];
    const int64_t C = in.shape().channels(), P = in.numel() / C;
    TensorU8 codes(in.shape());
    gemm::quantize_to_hwc(grid, in.data(), C, P, codes.data());
    Tensor floats(in.shape()), want(conv.output_shape()),
        got(conv.output_shape());
    rows.push_back(time_pair(
        "L13 from codes", shape_of(in), kTrials,
        [&] {
          gemm::dequantize_to_chw(grid, codes.data(), C, P, floats.data());
          conv.forward(floats, want);
        },
        [&] {
          conv.forward(nn::LayerIn{nullptr, codes.data(), grid},
                       nn::LayerOut{&got});
        },
        want, got));
  }
  {
    const auto& region =
        dynamic_cast<const nn::RegionLayer&>(net->layer(14)).config();
    const std::vector<detect::Detection> boxes =
        detect::decode_region(inputs[15], region, 0.05f);
    std::vector<detect::Detection> want, got;
    rows.push_back(time_pair(
        "NMS", std::to_string(boxes.size()) + " boxes", kTrials,
        [&] { want = oracle::nms(boxes, 0.45f); },
        [&] { got = detect::nms(boxes, 0.45f); },
        [&] {
          return want.size() == got.size() &&
                 std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(detect::Detection)) == 0;
        }));
  }

  const int threads = core::ThreadPool::shared().threads();
  bool pass = true;
  std::ostringstream js;
  js << "{\n  \"schema\": \"tincy-bench-glue-v1\",\n"
     << "  \"network\": \"zoo:tincy-w1a3 at 416\",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"trials\": " << kTrials << ",\n  \"stages\": [";
  std::printf("%-22s %-22s %10s %10s %8s  parity\n", "stage", "input",
              "oracle ms", "kernel ms", "speedup");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup = r.oracle_ms / r.kernel_ms;
    pass = pass && r.bit_exact;
    std::printf("%-22s %-22s %10.3f %10.3f %7.1fx  %s\n", r.stage.c_str(),
                r.shape.c_str(), r.oracle_ms, r.kernel_ms, speedup,
                r.bit_exact ? "bit-exact" : "MISMATCH");
    js << (i ? ",\n" : "\n") << "    {\"stage\": \"" << r.stage
       << "\", \"input\": \"" << r.shape << "\", \"oracle_ms\": "
       << r.oracle_ms << ", \"kernel_ms\": " << r.kernel_ms
       << ", \"speedup\": " << speedup
       << ", \"bit_exact\": " << (r.bit_exact ? "true" : "false") << "}";
  }
  js << "\n  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";

  std::ofstream out(json_path);
  out << js.str();
  if (!out) {
    std::fprintf(stderr, "frame_glue: cannot write %s\n", json_path);
    return 1;
  }
  std::printf("%d threads; wrote %s\n%s\n", threads, json_path,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
