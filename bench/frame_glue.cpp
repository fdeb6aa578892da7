// Self-checking bench of the W1A3 frame's per-element CPU stages:
//
//   frame_glue [out.json]
//
// On the shapes of zoo:tincy-w1a3 at 416 (random weights, a random
// 640×480 camera frame), each stage's scalar per-element oracle
// (tests/frame_glue_oracle.hpp) is timed against the single-pass kernel
// the frame runs:
//
//   letterbox  640×480 → 416 (paper Fig. 5 stage #1),
//   L2/L4/L10  the size-2 max pools (stride 2, 2, 1),
//   L1/L3      the golden bit-serial conv: activation quantisation, bit-
//              plane im2col, popcount GEMM and threshold epilogue. The
//              im2col and GEMM are shared, so the difference is the
//              quantisation, the epilogue and the per-call buffers;
//   L1 input   the activation quantisation on its own.
//
// Each pair runs alternately, so both see the same host noise; the
// median of the trials is reported. Gate: every kernel's output is byte-
// identical to its oracle's, else exit 1. Writes out.json (default
// BENCH_glue.json in the working directory; run from the repo root to
// refresh the committed copy).

#include <algorithm>
#include <chrono>
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
#include "frame_glue_oracle.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/network.hpp"
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
/// warm-up each; the two write `want` and `got`, compared byte for byte.
template <typename T>
Row time_pair(std::string stage, std::string shape, int trials,
              const std::function<void()>& oracle,
              const std::function<void()>& kernel, const T& want,
              const T& got) {
  oracle();
  kernel();
  Row r{std::move(stage), std::move(shape)};
  r.bit_exact = want.shape() == got.shape() &&
                std::memcmp(want.data(), got.data(),
                            static_cast<size_t>(want.numel()) *
                                sizeof(*want.data())) == 0;
  std::vector<double> o, k;
  for (int t = 0; t < trials; ++t) {
    o.push_back(ms_of(oracle));
    k.push_back(ms_of(kernel));
  }
  r.oracle_ms = median(o);
  r.kernel_ms = median(k);
  return r;
}

std::string shape_of(const Tensor& t) { return t.shape().to_string(); }

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_glue.json";
  const int kTrials = 9;

  Rng rng(14);
  auto net = nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kW1A3, 416,
      nn::zoo::CpuProfile::kOptimized));
  nn::zoo::randomize(*net, rng);
  Tensor frame(Shape{3, 480, 640});
  for (int64_t i = 0; i < frame.numel(); ++i)
    frame[i] = rng.uniform(0.0f, 1.0f);

  // Each layer's real input: the frame run through the network so far.
  std::vector<Tensor> inputs{data::letterbox(frame, 416)};
  for (int64_t i = 0; i <= 10; ++i)
    inputs.push_back(net->run_layer(i, inputs.back()));

  std::vector<Row> rows;
  {
    Tensor want, got;
    rows.push_back(time_pair(
        "letterbox", "(3, 480, 640) -> 416", kTrials,
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
