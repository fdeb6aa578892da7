// Frame-path benchmark of the Tincy YOLO reproduction.
//
// Workloads (inputs are generated from --seed before anything is timed:
// weights by nn::zoo::randomize, camera frames by video::SyntheticCamera):
//
//   w1a3_416       closed loop, one stream, one frame in flight:
//                  zoo:tincy-w1a3 at 416 on 640x480 frames, letterbox ->
//                  Network::forward -> decode -> NMS.
//   float_416      the same loop on the float Tincy YOLO
//                  (CpuProfile::kFused): the control without bit-serial
//                  code.
//   serve_w1a3_x4  four streams of 128x96 frames through one
//                  serve::StreamServer running W1A3 Tincy YOLO at 64x64.
//                  Letterbox, L0, L13, region, decode and NMS are CPU
//                  stages; the hidden stack is seven gang-scheduled engine
//                  stages over a QnnAccelerator imported from the network.
//                  Phase 1 is an open loop at a fixed per-stream rate,
//                  phase 2 a closed loop that keeps every queue full.
//
// Untraced runs time whole frames. Traced runs (--trace 1) replace
// Network::forward by per-layer run_layer calls, wrap every stage in a
// span and write the spans as one Chrome/Perfetto trace (--trace-out).
//
// Prints one JSON object on stdout: every measured value with its unit,
// the output checks and the frame counts. perfbench/run.py builds this
// program and turns that object into the benchmark's result line.
//
//   frame_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-out PATH]

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "data/image.hpp"
#include "detect/decode.hpp"
#include "detect/nms.hpp"
#include "fabric/accelerator.hpp"
#include "nn/builder.hpp"
#include "nn/conv_layer.hpp"
#include "nn/ops.hpp"
#include "nn/region_layer.hpp"
#include "nn/zoo.hpp"
#include "offload/import.hpp"
#include "perf/stage_times.hpp"
#include "quant/thresholds.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"
#include "video/camera.hpp"
#include "video/sink.hpp"

using namespace tincy;
using perfbench::Clock;
using perfbench::median;
using perfbench::ms_between;
using perfbench::percentile;

namespace {

// Tincy YOLO layer indices: input conv, hidden conv/pool ladder, output
// conv, region.
constexpr int64_t kFirstHidden = 1;
constexpr int64_t kLastHidden = 12;
constexpr int64_t kOutputConv = 13;
constexpr int64_t kRegion = 14;
constexpr int64_t kNumLayers = 15;

/// Score threshold of decode_region: evaluation-style low, so that random
/// weights leave boxes for NMS on every workload (at the demo's 0.3 the
/// float network leaves none).
constexpr float kDetectThreshold = 0.05f;
constexpr float kNmsIou = 0.45f;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// A frame workload times at least this many frames, however long; kept
/// low so a run on a slowed-down host still ends near --seconds.
constexpr int64_t kMinFrames = 2;
/// float_416 passes when its region output is within this share of the
/// reference build's largest magnitude (at least 1).
constexpr double kFloatTolerance = 1e-3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Everything a run reports: named values with units, and the checks.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a failed output check (the run is then not correct).
  void fail(const std::string& what) { errors_.push_back(what); }

  int64_t attempted = 0;
  int64_t failed = 0;

  std::string to_json(const std::string& workload) const {
    std::string out = "{\"workload\": \"" + workload + "\", \"correct\": ";
    out += errors_.empty() && failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"errors\": [";
    for (size_t i = 0; i < errors_.size(); ++i) {
      out += i == 0 ? "\"" : ", \"";
      for (const char c : errors_[i])
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
          out += c;
      out += "\"";
    }
    out += "], \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[64];
      if (std::isfinite(m.value))
        std::snprintf(value, sizeof value, "%.17g", m.value);
      else
        std::snprintf(value, sizeof value, "null");
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string layer_name(int64_t i) { return "nn.L" + std::to_string(i); }

// ---------------------------------------------------------------------------
// Networks
// ---------------------------------------------------------------------------

std::string tincy_cfg(nn::zoo::QuantMode q, int size, nn::zoo::CpuProfile p) {
  return nn::zoo::tiny_yolo_cfg(nn::zoo::TinyVariant::kTincy, q, size, p);
}

/// zoo:tincy-w1a3 at `size`.
std::string w1a3_cfg(int size) {
  return tincy_cfg(nn::zoo::QuantMode::kW1A3, size,
                   nn::zoo::CpuProfile::kOptimized);
}

void check_topology(const nn::Network& net) {
  TINCY_CHECK_MSG(net.num_layers() == kNumLayers &&
                      dynamic_cast<const nn::ConvLayer*>(
                          &net.layer(kOutputConv)) != nullptr &&
                      dynamic_cast<const nn::RegionLayer*>(
                          &net.layer(kRegion)) != nullptr,
                  "unexpected Tincy YOLO topology");
}

/// Copies the parameters of every conv layer i of `dst` from conv layer
/// `src_first + i` of `src`.
void copy_conv_params(const nn::Network& src, int64_t src_first,
                      nn::Network& dst) {
  for (int64_t i = 0; i < dst.num_layers(); ++i) {
    auto* d = dynamic_cast<nn::ConvLayer*>(&dst.layer(i));
    if (d == nullptr) continue;
    const auto* s =
        dynamic_cast<const nn::ConvLayer*>(&src.layer(src_first + i));
    TINCY_CHECK_MSG(s != nullptr, "layer " << src_first + i << " not conv");
    d->weights() = s->weights();
    d->biases() = s->biases();
    d->bn_scales() = s->bn_scales();
    d->bn_mean() = s->bn_mean();
    d->bn_var() = s->bn_var();
    d->invalidate_cached_quantization();
  }
}

/// The sections of a cfg text, each from its "[name]" line to the next.
std::vector<std::string> cfg_sections(const std::string& cfg) {
  std::vector<std::string> sections;
  size_t pos = 0;
  while (pos < cfg.size()) {
    size_t end = cfg.find('\n', pos);
    end = end == std::string::npos ? cfg.size() : end + 1;
    const std::string line = cfg.substr(pos, end - pos);
    if (!line.empty() && line[0] == '[') sections.emplace_back();
    if (!sections.empty()) sections.back() += line;
    pos = end;
  }
  return sections;
}

/// The hidden layers of `net` (built from `cfg`) as a network of their
/// own with the same parameters: the offload subtopology.
std::unique_ptr<nn::Network> hidden_subnet(
    const std::string& cfg, const nn::Network& net,
    telemetry::MetricsRegistry* metrics) {
  const std::vector<std::string> sections = cfg_sections(cfg);
  TINCY_CHECK(static_cast<int64_t>(sections.size()) == kNumLayers + 1);
  const Shape in = net.layer_input_shape(kFirstHidden);
  std::string sub = "[net]\nwidth=" + std::to_string(in.width()) +
                    "\nheight=" + std::to_string(in.height()) +
                    "\nchannels=" + std::to_string(in.channels()) + "\n\n";
  for (int64_t i = kFirstHidden; i <= kLastHidden; ++i)
    sub += sections[static_cast<size_t>(i + 1)];
  auto subnet = nn::build_network_from_string(sub, metrics);
  copy_conv_params(net, kFirstHidden, *subnet);
  return subnet;
}

/// Does each layer's one-time weight quantisation and packing, which the
/// layers otherwise do lazily inside the first frame.
void prime(nn::Network& net) {
  for (int64_t i = 0; i < net.num_layers(); ++i) {
    auto* conv = dynamic_cast<nn::ConvLayer*>(&net.layer(i));
    if (conv == nullptr) continue;
    const nn::ConvConfig& c = conv->config();
    if (c.binary_weights && c.act_bits < 8) {
      conv->binary_weights();
      conv->quant_thresholds();
      continue;
    }
    if (c.kernel == nn::ConvKernel::kReference ||
        c.kernel == nn::ConvKernel::kFused ||
        c.kernel == nn::ConvKernel::kFirstLayerF32)
      continue;  // float kernels keep no derived weights
    Tensor ramp(net.layer_input_shape(i));
    for (int64_t j = 0; j < ramp.numel(); ++j)
      ramp[j] = 0.125f * static_cast<float>(j % 9);
    net.run_layer(i, ramp);
  }
}

std::vector<Tensor> camera_frames(int64_t width, int64_t height, int count,
                                  uint64_t seed) {
  video::CameraConfig cc;
  cc.width = width;
  cc.height = height;
  cc.num_objects = 3;
  cc.seed = seed;
  video::SyntheticCamera camera(cc);
  std::vector<Tensor> frames;
  for (int i = 0; i < count; ++i) frames.push_back(camera.read_frame().image);
  return frames;
}

bool all_finite(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i)
    if (!std::isfinite(t[i])) return false;
  return true;
}

double modeled_zu3eg_ms(const nn::Network& net) {
  return perf::model_stage_times(net, perf::ZynqPlatform{},
                                 perf::FirstLayerImpl::kSpecAcc16,
                                 perf::HiddenImpl::kFabric)
      .total_ms();
}

void add_fabric_cycles(Result& r, const fabric::QnnAccelerator& acc) {
  for (int64_t j = 0; j < acc.num_layers(); ++j)
    r.add("fabric.F" + std::to_string(j) + ".cycles",
          static_cast<double>(acc.layer_perf(j).total_cycles()), "count");
}

/// A finished trace: the spans and their self times, index-aligned.
struct Trace {
  std::vector<perfbench::Span> spans;
  std::vector<double> self;

  explicit Trace(const perfbench::SpanLog& log)
      : spans(log.spans()), self(log.self_ms()) {}

  /// Median self time of the spans called `name` with tag `tag`.
  double median_self(const std::string& name, int tag) const {
    std::vector<double> v;
    for (size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name == name && spans[i].tag == tag) v.push_back(self[i]);
    return median(std::move(v));
  }

  /// Per-frame sums of the hidden layers' self times (spans with `tag`).
  std::vector<double> hidden_sums(int tag) const {
    std::map<int64_t, double> by_frame;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].tag != tag) continue;
      for (int64_t l = kFirstHidden; l <= kLastHidden; ++l)
        if (spans[i].name == layer_name(l)) by_frame[spans[i].frame] += self[i];
    }
    std::vector<double> sums;
    for (const auto& [frame, ms] : by_frame) sums.push_back(ms);
    return sums;
  }
};

/// The nn module's rows: ms and Gop/s per layer (ops from nn::ops_rows),
/// and the hidden stack's median per-frame time.
void add_layer_metrics(Result& r, const nn::Network& net,
                       const std::vector<double>& layer_ms,
                       const std::vector<double>& hidden_per_frame) {
  const std::vector<nn::LayerOpsRow> ops = nn::ops_rows(net);
  for (int64_t i = 0; i < kNumLayers; ++i) {
    const auto u = static_cast<size_t>(i);
    r.add(layer_name(i) + ".ms", layer_ms[u], "ms");
    if (ops[u].type == "conv")
      r.add(layer_name(i) + ".gops",
            static_cast<double>(ops[u].ops) / (layer_ms[u] * 1e6), "Gop/s");
  }
  r.add("nn.hidden_ms", median(hidden_per_frame), "ms");
}

/// Threads the workload runs besides the shared pool's callers: the main
/// thread (frame loop or submitter), server workers and pool workers.
void add_thread_budget(Result& r, int server_workers) {
  const int pool_workers = core::ThreadPool::shared().threads() - 1;
  const int total = 1 + server_workers + pool_workers;
  r.add("threads.main", 1, "count");
  r.add("threads.server_workers", server_workers, "count");
  r.add("threads.pool_workers", pool_workers, "count");
  r.add("threads.total", total, "count");
  const unsigned nproc = std::thread::hardware_concurrency();
  r.add("threads.nproc", nproc, "count");
  if (nproc > 0 && total > static_cast<int>(nproc))
    std::fprintf(stderr, "warning: %d threads on %u cores\n", total, nproc);
}

// ---------------------------------------------------------------------------
// Frame workloads: w1a3_416 and float_416
// ---------------------------------------------------------------------------

constexpr int kFrameSize = 416;

struct FrameRig {
  std::unique_ptr<nn::Network> net;
  std::unique_ptr<fabric::QnnAccelerator> accel;  ///< W1A3 only
  double import_ms = 0.0;
};

std::unique_ptr<FrameRig> set_up_frame_rig(const std::string& cfg, bool w1a3,
                                           uint64_t seed) {
  auto rig = std::make_unique<FrameRig>();
  rig->net = nn::zoo::build(cfg);
  check_topology(*rig->net);
  Rng rng(seed);
  nn::zoo::randomize(*rig->net, rng);
  prime(*rig->net);
  if (w1a3) {
    telemetry::MetricsRegistry subnet_metrics;
    const auto subnet = hidden_subnet(cfg, *rig->net, &subnet_metrics);
    const auto t0 = Clock::now();
    rig->accel = std::make_unique<fabric::QnnAccelerator>(
        offload::import_accelerator(*subnet));
    rig->import_ms = ms_between(t0, Clock::now());
  }
  return rig;
}

Result run_frame_workload(const Options& opts, bool w1a3) {
  Result r;
  const std::string cfg =
      w1a3 ? w1a3_cfg(kFrameSize)
           : tincy_cfg(nn::zoo::QuantMode::kFloat, kFrameSize,
                       nn::zoo::CpuProfile::kFused);
  const std::vector<Tensor> frames =
      camera_frames(640, 480, 4, opts.seed ^ 0x5EEDC0FFEEull);

  std::vector<double> setup_s;
  std::unique_ptr<FrameRig> rig;
  for (int k = 0; k < kSetupReps; ++k) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = set_up_frame_rig(cfg, w1a3, opts.seed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  nn::Network& net = *rig->net;
  const nn::RegionConfig region_cfg =
      dynamic_cast<const nn::RegionLayer&>(net.layer(kRegion)).config();

  perfbench::SpanLog log;
  std::vector<double> latency_ms;
  int64_t bad_frames = 0, first_boxes = 0;
  Tensor last_boxed;
  const auto loop_start = Clock::now();
  for (int64_t n = 0;; ++n) {
    // Start a frame only if it is expected to end within --seconds.
    const double elapsed_ms = ms_between(loop_start, Clock::now());
    if (n >= kMinFrames &&
        elapsed_ms + median(latency_ms) > opts.seconds * 1e3)
      break;
    const Tensor& image = frames[static_cast<size_t>(n) % frames.size()];
    const auto t0 = Clock::now();
    Tensor boxed;
    const Tensor* out = nullptr;
    std::vector<detect::Detection> dets;
    if (!opts.trace) {
      boxed = data::letterbox(image, kFrameSize);
      out = &net.forward(boxed);
      dets = detect::nms(
          detect::decode_region(*out, region_cfg, kDetectThreshold), kNmsIou);
    } else {
      const int64_t frame = log.open("frame", -1, n, 0, t0);
      auto mark = Clock::now();
      auto span = [&](const std::string& name) {
        const auto now = Clock::now();
        log.add(name, frame, n, 0, mark, now);
        mark = now;
      };
      boxed = data::letterbox(image, kFrameSize);
      span("data.letterbox");
      out = &boxed;
      for (int64_t i = 0; i < net.num_layers(); ++i) {
        out = &net.run_layer(i, *out);
        span(layer_name(i));
      }
      dets = detect::decode_region(*out, region_cfg, kDetectThreshold);
      span("detect.decode");
      dets = detect::nms(std::move(dets), kNmsIou);
      span("detect.nms");
      log.close(frame, mark);
    }
    latency_ms.push_back(ms_between(t0, Clock::now()));
    if (!all_finite(*out)) ++bad_frames;
    if (n == 0) first_boxes = static_cast<int64_t>(dets.size());
    last_boxed = std::move(boxed);
  }
  const double loop_s = ms_between(loop_start, Clock::now()) / 1e3;
  const auto frames_done = static_cast<int64_t>(latency_ms.size());
  const double rss_mb = peak_rss_mb();

  // Output check on the last timed frame, whose activations the network
  // still holds; untimed.
  int64_t failed = bad_frames;
  if (w1a3) {
    const Tensor& l0 = net.layer_output(0);
    const Tensor& golden = net.layer_output(kLastHidden);
    const Tensor fabric_out = rig->accel->forward(l0);
    int64_t mismatches = 0;
    if (fabric_out.numel() != golden.numel()) {
      mismatches = golden.numel();
    } else {
      for (int64_t i = 0; i < golden.numel(); ++i)
        mismatches += fabric_out[i] != golden[i];
    }
    r.add("fabric.mismatches", static_cast<double>(mismatches), "count");
    r.add("fabric.checked_codes", static_cast<double>(golden.numel()),
          "count");
    if (mismatches != 0) {
      ++failed;
      r.fail("fabric codes differ from the golden L12 output in " +
             std::to_string(mismatches) + " places");
    }
  } else {
    const auto ref =
        nn::zoo::build(tincy_cfg(nn::zoo::QuantMode::kFloat, kFrameSize,
                                 nn::zoo::CpuProfile::kReference));
    copy_conv_params(net, 0, *ref);
    const Tensor& want = ref->forward(last_boxed);
    const Tensor& got = net.layer_output(kRegion);
    double diff = 0.0, scale = 1.0;
    for (int64_t i = 0; i < want.numel(); ++i) {
      diff = std::max(diff, std::fabs(static_cast<double>(got[i] - want[i])));
      scale = std::max(scale, std::fabs(static_cast<double>(want[i])));
    }
    const double rel = diff / scale;
    r.add("nn.reference_rel_diff", rel, "ratio");
    if (!(rel <= kFloatTolerance)) {
      ++failed;
      r.fail("float output differs from the reference build by " +
             std::to_string(rel));
    }
  }
  if (bad_frames != 0) r.fail("non-finite network output");

  r.attempted = frames_done;
  r.failed = std::min(failed, frames_done);

  // End to end.
  r.add("fps", static_cast<double>(frames_done) / loop_s, "1/s");
  r.add("latency_ms_p50", percentile(latency_ms, 0.5), "ms");
  r.add("latency_ms_p90", percentile(latency_ms, 0.9), "ms");
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("failed_share",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "ratio");
  r.add("frames", static_cast<double>(frames_done), "count");

  // Exact counts and the model.
  r.add("detect.boxes", static_cast<double>(first_boxes), "count");
  r.add("perf.modeled_zu3eg_ms", modeled_zu3eg_ms(net), "ms");
  if (w1a3) {
    add_fabric_cycles(r, *rig->accel);
    r.add("offload.import_ms", rig->import_ms, "ms");
  }
  add_thread_budget(r, /*server_workers=*/0);

  if (opts.trace) {
    const Trace t(log);
    std::vector<double> layer_ms;
    for (int64_t i = 0; i < kNumLayers; ++i)
      layer_ms.push_back(t.median_self(layer_name(i), 0));
    add_layer_metrics(r, net, layer_ms, t.hidden_sums(0));
    r.add("data.letterbox_ms", t.median_self("data.letterbox", 0), "ms");
    r.add("detect.decode_ms", t.median_self("detect.decode", 0), "ms");
    r.add("detect.nms_ms", t.median_self("detect.nms", 0), "ms");
    r.add("trace.frame_ms", percentile(latency_ms, 0.5), "ms");
    r.add("trace.frame_self_ms", t.median_self("frame", 0), "ms");
    if (!opts.trace_out.empty()) log.write_chrome_trace(opts.trace_out);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Serving workload: serve_w1a3_x4
// ---------------------------------------------------------------------------

constexpr int kStreams = 4;
constexpr int kServeSize = 64;
constexpr int kServeWorkers = 3;
constexpr int64_t kQueueCapacity = 8;
constexpr int64_t kMaxBatch = 4;
constexpr int64_t kLingerUs = 0;
/// Phase 1 rate per stream. Four streams at 2.5 fps use about a third of
/// the engine's capacity on the reference host, so phase-1 latency is
/// mostly service time, and a host slowed down twofold still admits every
/// frame.
constexpr double kStreamFps = 2.5;
constexpr int kPoolFrames = 3;        ///< camera frames per stream, reused
constexpr int64_t kMaxFrames = 4096;  ///< per stream and run

/// The stage chain of one session; engine stages are F0..F6.
const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> names = {
      "data.letterbox", "nn.L0",      "fabric.F0",     "fabric.F1",
      "fabric.F2",      "fabric.F3",  "fabric.F4",     "fabric.F5",
      "fabric.F6",      "nn.L13",     "nn.L14",        "detect.decode",
      "detect.nms"};
  return names;
}
constexpr int kNumStages = 13;
constexpr int kFirstEngineStage = 2;
constexpr int kNumEngineStages = 7;
bool is_engine_stage(int k) {
  return k >= kFirstEngineStage && k < kFirstEngineStage + kNumEngineStages;
}

enum Phase : int { kWarmup = 0, kOpenLoop = 1, kClosedLoop = 2, kCheck = 3 };

/// Per-frame timestamps, written by whichever thread handles the frame
/// and read by the main thread after StreamServer::drain().
struct FrameRecord {
  Phase phase = kWarmup;
  Clock::time_point due, submit_start, submit_end, delivered;
  std::array<Clock::time_point, kNumStages> start{}, end{};
  int64_t frame_span = -1;
};

/// Frame sequence numbers interleave the streams, so each session sees a
/// strictly increasing sequence and every frame names its stream.
int64_t sequence_of(int stream, int64_t local) {
  return local * kStreams + stream;
}
int stream_of(int64_t sequence) {
  return static_cast<int>(sequence % kStreams);
}
int64_t local_of(int64_t sequence) { return sequence / kStreams; }

struct ServeState {
  bool trace = false;
  perfbench::SpanLog* log = nullptr;
  std::vector<std::vector<Tensor>> pool;  ///< [stream][k] camera frames
  std::vector<std::unique_ptr<nn::Network>> nets;  ///< one per session
  std::unique_ptr<fabric::QnnAccelerator> accel;
  double import_ms = 0.0;
  nn::RegionConfig region_cfg;
  std::vector<std::vector<FrameRecord>> records;  ///< [stream][local]
  std::vector<int64_t> next_local;                ///< per stream
  std::vector<int64_t> submitted;                 ///< per stream
  std::vector<std::unique_ptr<video::OrderCheckingSink>> sinks;
  /// Golden-path region output and box count per [stream][pool frame];
  /// deliveries are compared once `checking` is set.
  std::vector<std::vector<Tensor>> expected;
  std::vector<std::vector<size_t>> expected_boxes;
  bool checking = false;
  std::atomic<int64_t> mismatches{0};
  /// Engine passes and the frames they covered; only the engine holder
  /// writes, so increments never contend.
  std::atomic<int64_t> engine_calls{0};
  std::atomic<int64_t> engine_frames{0};
  telemetry::MetricsRegistry metrics;
  /// Declared last: destroyed (workers joined) before what they use.
  std::unique_ptr<serve::StreamServer> server;
};

/// One engine pass of fabric layer j over a gang of frames: quantise each
/// frame's activation onto the layer's input grid, run the layer once for
/// the whole gang, dequantise back into the frames.
void run_engine_layer(const fabric::QnnAccelerator& acc, int64_t j,
                      std::span<video::Frame* const> frames) {
  const fabric::QnnLayerSpec& spec = acc.spec(j);
  const auto batch = static_cast<int64_t>(frames.size());
  const int64_t in_n = spec.in_channels * spec.in_height * spec.in_width;
  const Shape out_shape = spec.output_shape();
  const int64_t out_n = out_shape.numel();
  const quant::UniformActQuant q_in{spec.act_bits_in, spec.in_scale};
  const quant::UniformActQuant q_out{spec.act_bits_out, spec.out_scale};
  std::vector<uint8_t> in(static_cast<size_t>(batch * in_n));
  std::vector<uint8_t> out(static_cast<size_t>(batch * out_n));
  for (int64_t b = 0; b < batch; ++b) {
    const Tensor& x = frames[static_cast<size_t>(b)]->features;
    TINCY_CHECK_MSG(x.numel() == in_n, "fabric layer " << j << " input");
    for (int64_t i = 0; i < in_n; ++i)
      in[static_cast<size_t>(b * in_n + i)] = q_in.quantize(x[i]);
  }
  acc.run_layer_batched(j, in, batch, out);
  for (int64_t b = 0; b < batch; ++b) {
    Tensor y(out_shape);
    for (int64_t i = 0; i < out_n; ++i)
      y[i] = q_out.dequantize(out[static_cast<size_t>(b * out_n + i)]);
    frames[static_cast<size_t>(b)]->features = std::move(y);
  }
}

void record_stage(ServeState& st, int64_t sequence, int k,
                  Clock::time_point t0, Clock::time_point t1) {
  FrameRecord& rec = st.records[static_cast<size_t>(stream_of(sequence))]
                               [static_cast<size_t>(local_of(sequence))];
  rec.start[static_cast<size_t>(k)] = t0;
  rec.end[static_cast<size_t>(k)] = t1;
}

std::vector<serve::ServeStage> session_stages(ServeState& st, int stream) {
  nn::Network& net = *st.nets[static_cast<size_t>(stream)];
  std::vector<serve::ServeStage> stages;
  const auto cpu = [&](std::function<void(video::Frame&)> fn) {
    const int k = static_cast<int>(stages.size());
    serve::ServeStage stage;
    stage.name = stage_names()[static_cast<size_t>(k)];
    if (st.trace) {
      stage.work = [&st, k, fn = std::move(fn)](video::Frame& f) {
        const auto t0 = Clock::now();
        fn(f);
        record_stage(st, f.sequence, k, t0, Clock::now());
      };
    } else {
      stage.work = std::move(fn);
    }
    stages.push_back(std::move(stage));
  };
  const auto layer = [&net](int64_t i) {
    return [&net, i](video::Frame& f) {
      Tensor out(net.layer(i).output_shape());
      Tensor& in = i == 0 ? f.boxed : f.features;
      in.reshape(net.layer_input_shape(i));
      net.run_layer_into(i, in, out);
      f.features = std::move(out);
    };
  };

  cpu([](video::Frame& f) { f.boxed = data::letterbox(f.image, kServeSize); });
  cpu(layer(0));
  for (int64_t j = 0; j < kNumEngineStages; ++j) {
    const int k = static_cast<int>(stages.size());
    serve::ServeStage stage;
    stage.name = stage_names()[static_cast<size_t>(k)];
    stage.uses_engine = true;
    stage.engine_layer = j;
    stage.batch_work = [&st, j, k](std::span<video::Frame* const> frames) {
      const auto t0 = Clock::now();
      run_engine_layer(*st.accel, j, frames);
      const auto t1 = Clock::now();
      st.engine_calls.fetch_add(1, std::memory_order_relaxed);
      st.engine_frames.fetch_add(static_cast<int64_t>(frames.size()),
                                 std::memory_order_relaxed);
      if (st.trace)
        for (const video::Frame* f : frames)
          record_stage(st, f->sequence, k, t0, t1);
    };
    stages.push_back(std::move(stage));
  }
  cpu(layer(kOutputConv));
  cpu(layer(kRegion));
  cpu([&st](video::Frame& f) {
    f.detections =
        detect::decode_region(f.features, st.region_cfg, kDetectThreshold);
  });
  cpu([](video::Frame& f) {
    f.detections = detect::nms(std::move(f.detections), kNmsIou);
  });
  TINCY_CHECK(static_cast<int>(stages.size()) == kNumStages);
  return stages;
}

void deliver(ServeState& st, int stream, video::Frame&& f) {
  const auto now = Clock::now();
  const int64_t local = local_of(f.sequence);
  FrameRecord& rec =
      st.records[static_cast<size_t>(stream)][static_cast<size_t>(local)];
  rec.delivered = now;
  if (st.trace && rec.frame_span >= 0) st.log->close(rec.frame_span, now);
  st.sinks[static_cast<size_t>(stream)]->push(f);
  if (!st.checking) return;
  const size_t k = static_cast<size_t>(local % kPoolFrames);
  const Tensor& want = st.expected[static_cast<size_t>(stream)][k];
  bool ok = f.features.numel() == want.numel() &&
            f.detections.size() ==
                st.expected_boxes[static_cast<size_t>(stream)][k];
  for (int64_t i = 0; ok && i < want.numel(); ++i)
    ok = f.features[i] == want[i];
  if (!ok) st.mismatches.fetch_add(1, std::memory_order_relaxed);
}

/// Submits the next frame of `stream`; returns the server's answer.
serve::ServeResult submit(ServeState& st, int stream, Phase phase,
                          Clock::time_point due) {
  const auto s = static_cast<size_t>(stream);
  const int64_t local = st.next_local[s];
  TINCY_CHECK_MSG(local < kMaxFrames, "stream " << stream << " frame cap");
  video::Frame f;
  f.sequence = sequence_of(stream, local);
  f.image = st.pool[s][static_cast<size_t>(local % kPoolFrames)];
  FrameRecord& rec = st.records[s][static_cast<size_t>(local)];
  rec.phase = phase;
  rec.due = due;
  rec.submit_start = Clock::now();
  if (st.trace)
    rec.frame_span = st.log->open("frame", -1, f.sequence, phase,
                                  rec.submit_start);
  const serve::ServeResult res = st.server->submit(stream, std::move(f));
  rec.submit_end = Clock::now();
  ++st.submitted[s];
  if (res == serve::ServeResult::kAccepted) {
    ++st.next_local[s];
  } else if (st.trace) {
    st.log->close(rec.frame_span, rec.submit_end);
    rec.frame_span = -1;
  }
  return res;
}

std::unique_ptr<ServeState> set_up_serve(
    const std::string& cfg, uint64_t seed, bool trace, perfbench::SpanLog* log,
    const std::vector<std::vector<Tensor>>& pool) {
  auto st = std::make_unique<ServeState>();
  st->trace = trace;
  st->log = log;
  st->pool = pool;
  for (int s = 0; s < kStreams; ++s) {
    st->nets.push_back(nn::zoo::build(cfg));
    check_topology(*st->nets.back());
  }
  Rng rng(seed);
  nn::zoo::randomize(*st->nets[0], rng);
  for (int s = 1; s < kStreams; ++s)
    copy_conv_params(*st->nets[0], 0, *st->nets[static_cast<size_t>(s)]);
  for (auto& net : st->nets) prime(*net);
  st->region_cfg =
      dynamic_cast<const nn::RegionLayer&>(st->nets[0]->layer(kRegion))
          .config();
  {
    telemetry::MetricsRegistry subnet_metrics;
    const auto subnet = hidden_subnet(cfg, *st->nets[0], &subnet_metrics);
    const auto t0 = Clock::now();
    st->accel = std::make_unique<fabric::QnnAccelerator>(
        offload::import_accelerator(*subnet));
    st->import_ms = ms_between(t0, Clock::now());
  }
  TINCY_CHECK(st->accel->num_layers() == kNumEngineStages);
  st->records.assign(kStreams, std::vector<FrameRecord>(kMaxFrames));
  st->next_local.assign(kStreams, 0);
  st->submitted.assign(kStreams, 0);
  for (int s = 0; s < kStreams; ++s)
    st->sinks.push_back(std::make_unique<video::OrderCheckingSink>());

  serve::ServerOptions so;
  so.num_workers = kServeWorkers;
  so.metrics = &st->metrics;
  so.arbiter.max_batch = kMaxBatch;
  so.arbiter.batch_linger_us = kLingerUs;
  st->server = std::make_unique<serve::StreamServer>(so);
  for (int s = 0; s < kStreams; ++s) {
    serve::SessionConfig sc;
    sc.name = "s" + std::to_string(s);
    sc.stages = session_stages(*st, s);
    sc.queue_capacity = kQueueCapacity;
    ServeState* state = st.get();
    sc.deliver = [state, s](video::Frame&& f) {
      deliver(*state, s, std::move(f));
    };
    TINCY_CHECK(st->server->open_session(std::move(sc)) == s);
  }
  st->server->start();
  // Warm-up: one frame per stream through the whole chain.
  for (int s = 0; s < kStreams; ++s)
    TINCY_CHECK(submit(*st, s, kWarmup, Clock::now()) ==
                serve::ServeResult::kAccepted);
  st->server->drain();
  return st;
}

/// Golden reference for the output check: every pool frame of every
/// stream through letterbox -> Network (bit-serial golden hidden layers)
/// -> decode -> NMS, layer by layer. Traced runs also take the nn
/// module's hidden-layer times from this pass, since the serving path runs
/// those layers on the fabric.
void golden_pass(ServeState& st) {
  nn::Network& net = *st.nets[0];
  st.expected.assign(kStreams, {});
  st.expected_boxes.assign(kStreams, {});
  int64_t frame_id = 0;
  for (int s = 0; s < kStreams; ++s) {
    for (int k = 0; k < kPoolFrames; ++k, ++frame_id) {
      auto mark = Clock::now();
      const int64_t root =
          st.trace ? st.log->open("check.frame", -1, -1 - frame_id, kCheck,
                                  mark)
                   : -1;
      const Tensor boxed = data::letterbox(
          st.pool[static_cast<size_t>(s)][static_cast<size_t>(k)],
          kServeSize);
      const Tensor* out = &boxed;
      for (int64_t i = 0; i < net.num_layers(); ++i) {
        out = &net.run_layer(i, *out);
        const auto now = Clock::now();
        if (st.trace)
          st.log->add(layer_name(i), root, -1 - frame_id, kCheck, mark, now);
        mark = now;
      }
      const auto dets = detect::nms(
          detect::decode_region(*out, st.region_cfg, kDetectThreshold),
          kNmsIou);
      if (st.trace) st.log->close(root, Clock::now());
      st.expected[static_cast<size_t>(s)].push_back(*out);
      st.expected_boxes[static_cast<size_t>(s)].push_back(dets.size());
    }
  }
}

Result run_serve_workload(const Options& opts) {
  Result r;
  const std::string cfg = w1a3_cfg(kServeSize);
  std::vector<std::vector<Tensor>> pool;
  for (int s = 0; s < kStreams; ++s)
    pool.push_back(camera_frames(128, 96, kPoolFrames,
                                 opts.seed * 31 + static_cast<uint64_t>(s)));

  perfbench::SpanLog log;
  std::vector<double> setup_s;
  std::unique_ptr<ServeState> st;
  for (int k = 0; k < kSetupReps; ++k) {
    st.reset();
    const auto t0 = Clock::now();
    st = set_up_serve(cfg, opts.seed, opts.trace, &log, pool);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  golden_pass(*st);
  st->checking = true;
  serve::StreamServer& server = *st->server;

  // Phase 1: open loop. Stream s sends frame k at t0 + (k + s/streams)/rate;
  // latency runs from that due time, so generator stalls count.
  const double phase_s = opts.seconds / 2.0;
  const auto p1_start = Clock::now() + std::chrono::milliseconds(20);
  const auto period = std::chrono::duration<double>(1.0 / kStreamFps);
  int64_t rejected_open_loop = 0;
  for (int64_t k = 0;; ++k) {
    bool any = false;
    for (int s = 0; s < kStreams; ++s) {
      const auto offset = period * (static_cast<double>(k) +
                                    static_cast<double>(s) / kStreams);
      const auto due =
          p1_start + std::chrono::duration_cast<Clock::duration>(offset);
      if (ms_between(p1_start, due) >= phase_s * 1e3) continue;
      any = true;
      std::this_thread::sleep_until(due);
      if (submit(*st, s, kOpenLoop, due) != serve::ServeResult::kAccepted)
        ++rejected_open_loop;
    }
    if (!any) break;
  }
  server.drain();

  // Phase 2: closed loop, every admission queue kept full.
  const int64_t calls_before = st->engine_calls.load();
  const int64_t frames_before = st->engine_frames.load();
  const int64_t grants_before = server.arbiter().grants();
  const auto p2_start = Clock::now();
  const auto p2_end =
      p2_start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(phase_s));
  int64_t rejected_closed_loop = 0;
  while (Clock::now() < p2_end) {
    for (int s = 0; s < kStreams; ++s)
      while (server.queue_depth(s) < kQueueCapacity &&
             st->next_local[static_cast<size_t>(s)] < kMaxFrames)
        if (submit(*st, s, kClosedLoop, Clock::now()) !=
            serve::ServeResult::kAccepted) {
          ++rejected_closed_loop;
          break;
        }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.drain();
  const int64_t engine_calls = st->engine_calls.load() - calls_before;
  const int64_t engine_frames = st->engine_frames.load() - frames_before;
  const int64_t grants = server.arbiter().grants() - grants_before;
  const double rss_mb = peak_rss_mb();
  server.stop();

  // Per-frame figures from the records.
  std::vector<double> latency, lateness, submit_us, queue, handoff,
      engine_wait;
  std::vector<Clock::time_point> closed_deliveries;
  int64_t attempted = rejected_open_loop, p2_frames = 0;
  for (int s = 0; s < kStreams; ++s) {
    const auto& recs = st->records[static_cast<size_t>(s)];
    for (int64_t l = 0; l < st->next_local[static_cast<size_t>(s)]; ++l) {
      const FrameRecord& rec = recs[static_cast<size_t>(l)];
      if (rec.phase == kClosedLoop) {
        ++attempted;
        ++p2_frames;
        if (rec.delivered >= p2_start && rec.delivered <= p2_end)
          closed_deliveries.push_back(rec.delivered);
      }
      if (rec.phase != kOpenLoop) continue;
      ++attempted;
      latency.push_back(ms_between(rec.due, rec.delivered));
      lateness.push_back(ms_between(rec.due, rec.submit_start));
      submit_us.push_back(ms_between(rec.submit_start, rec.submit_end) * 1e3);
      if (!opts.trace) continue;
      queue.push_back(ms_between(rec.submit_start, rec.start[0]));
      double cpu_gap = 0.0, engine_gap = 0.0;
      for (int k = 1; k < kNumStages; ++k) {
        const double gap = ms_between(rec.end[static_cast<size_t>(k - 1)],
                                      rec.start[static_cast<size_t>(k)]);
        (is_engine_stage(k) ? engine_gap : cpu_gap) += gap;
      }
      handoff.push_back(cpu_gap);
      engine_wait.push_back(engine_gap);
    }
  }
  std::sort(closed_deliveries.begin(), closed_deliveries.end());
  double fps = 0.0;
  if (closed_deliveries.size() >= 2)
    fps = static_cast<double>(closed_deliveries.size() - 1) /
          (ms_between(closed_deliveries.front(), closed_deliveries.back()) /
           1e3);

  // Output checks: golden-identical outputs, in-order delivery, exact
  // accounting, no open-loop rejection.
  const telemetry::Snapshot snap = st->metrics.snapshot();
  int64_t failed = st->mismatches.load() + rejected_open_loop;
  if (st->mismatches.load() != 0)
    r.fail(std::to_string(st->mismatches.load()) +
           " served frames differ from the golden path");
  if (rejected_open_loop != 0)
    r.fail(std::to_string(rejected_open_loop) + " open-loop rejections");
  for (int s = 0; s < kStreams; ++s) {
    const std::string prefix = "serve.session.s" + std::to_string(s) + ".";
    const int64_t delivered = server.delivered(s);
    const int64_t accounted = delivered + server.rejected(s) +
                              snap.counter_value(prefix + "shed") +
                              snap.counter_value(prefix + "dropped");
    const auto& sink = *st->sinks[static_cast<size_t>(s)];
    const int64_t submitted = st->submitted[static_cast<size_t>(s)];
    if (!sink.in_order() || accounted != submitted ||
        sink.frames_received() != delivered) {
      ++failed;
      r.fail("stream " + std::to_string(s) + " out of order or accounting " +
             std::to_string(accounted) + " != submitted " +
             std::to_string(submitted));
    }
  }
  r.attempted = std::max<int64_t>(attempted, 1);
  r.failed = std::min(failed, r.attempted);

  r.add("fps", fps, "1/s");
  r.add("latency_ms_p50", percentile(latency, 0.5), "ms");
  r.add("latency_ms_p90", percentile(latency, 0.9), "ms");
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("failed_share",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted),
        "ratio");
  r.add("frames", static_cast<double>(latency.size() + p2_frames), "count");
  r.add("serve.open_loop_frames", static_cast<double>(latency.size()),
        "count");
  r.add("serve.closed_loop_frames", static_cast<double>(p2_frames), "count");
  r.add("serve.gen_lateness_ms_p50", percentile(lateness, 0.5), "ms");
  r.add("serve.gen_lateness_ms_max", percentile(lateness, 1.0), "ms");
  r.add("serve.submit_us", percentile(submit_us, 0.5), "us");
  r.add("serve.rejected",
        static_cast<double>(rejected_open_loop + rejected_closed_loop),
        "count");
  r.add("serve.grants_per_frame",
        engine_frames > 0 ? static_cast<double>(grants) /
                                (static_cast<double>(engine_frames) /
                                 kNumEngineStages)
                          : 0.0,
        "count");
  r.add("fabric.gang_mean",
        engine_calls > 0 ? static_cast<double>(engine_frames) /
                               static_cast<double>(engine_calls)
                         : 0.0,
        "count");
  r.add("detect.boxes", static_cast<double>(st->expected_boxes[0][0]),
        "count");
  r.add("perf.modeled_zu3eg_ms", modeled_zu3eg_ms(*st->nets[0]), "ms");
  add_fabric_cycles(r, *st->accel);
  r.add("offload.import_ms", st->import_ms, "ms");
  add_thread_budget(r, kServeWorkers);

  if (opts.trace) {
    r.add("serve.queue_ms", percentile(queue, 0.5), "ms");
    r.add("serve.handoff_ms", percentile(handoff, 0.5), "ms");
    r.add("serve.engine_wait_ms", percentile(engine_wait, 0.5), "ms");
    // Stage spans of the timed frames, parented to their frame span.
    for (int s = 0; s < kStreams; ++s) {
      const auto& recs = st->records[static_cast<size_t>(s)];
      for (int64_t l = 0; l < st->next_local[static_cast<size_t>(s)]; ++l) {
        const FrameRecord& rec = recs[static_cast<size_t>(l)];
        if (rec.frame_span < 0 || rec.phase == kWarmup) continue;
        for (int k = 0; k < kNumStages; ++k)
          log.add(stage_names()[static_cast<size_t>(k)], rec.frame_span,
                  sequence_of(s, l), rec.phase,
                  rec.start[static_cast<size_t>(k)],
                  rec.end[static_cast<size_t>(k)]);
      }
    }
    const Trace t(log);
    // The layers the serving path runs on the CPU are timed there; the
    // hidden layers, which it runs on the fabric, on the golden check pass.
    std::vector<double> layer_ms;
    for (int64_t i = 0; i < kNumLayers; ++i) {
      const bool on_path = i == 0 || i == kOutputConv || i == kRegion;
      layer_ms.push_back(
          t.median_self(layer_name(i), on_path ? kOpenLoop : kCheck));
    }
    add_layer_metrics(r, *st->nets[0], layer_ms, t.hidden_sums(kCheck));
    for (int64_t j = 0; j < kNumEngineStages; ++j)
      r.add("fabric.F" + std::to_string(j) + ".ms",
            t.median_self("fabric.F" + std::to_string(j), kOpenLoop), "ms");
    r.add("data.letterbox_ms", t.median_self("data.letterbox", kOpenLoop),
          "ms");
    r.add("detect.decode_ms", t.median_self("detect.decode", kOpenLoop),
          "ms");
    r.add("detect.nms_ms", t.median_self("detect.nms", kOpenLoop), "ms");
    r.add("trace.frame_ms", percentile(latency, 0.5), "ms");
    r.add("trace.frame_self_ms", t.median_self("frame", kOpenLoop), "ms");
    if (!opts.trace_out.empty()) log.write_chrome_trace(opts.trace_out);
  }
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: frame_bench --workload w1a3_416|float_416|"
               "serve_w1a3_x4 --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage();
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      return usage();
    }
  }
  if (!(opts.seconds > 0.0)) return usage();
  try {
    Result r;
    if (opts.workload == "w1a3_416") {
      r = run_frame_workload(opts, /*w1a3=*/true);
    } else if (opts.workload == "float_416") {
      r = run_frame_workload(opts, /*w1a3=*/false);
    } else if (opts.workload == "serve_w1a3_x4") {
      r = run_serve_workload(opts);
    } else {
      return usage();
    }
    std::printf("%s\n", r.to_json(opts.workload).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "frame_bench: %s\n", e.what());
    return 1;
  }
}
