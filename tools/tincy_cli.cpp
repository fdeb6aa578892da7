// The `tincy` command-line tool — the Darknet-style front end of the
// reproduction. Subcommands:
//
//   tincy summary <cfg>                         layer table + op counts
//   tincy ops <cfg>                             Table-I/II style accounting
//   tincy detect <cfg> <weights|-> <in.ppm> [thresh] [out.ppm]
//                                               single-image detection
//   tincy demo [frames] [workers]               pipelined live demo (Fig. 5)
//                                               of zoo:tincy-w1a3 at 416
//   tincy serve-sim [streams] [frames] [workers]
//                                               multi-stream serving over the
//                                               shared fabric engine
//   tincy export-binparam <cfg> <weights|-> <dir>
//                                               fabric parameter export
//   tincy ladder                                the Sec. III speedup ladder
//   tincy kernels                               GEMM + popcount kernel dispatch
//                                               table on this machine
//
// Global flags (any subcommand):
//   --metrics-json <path>   write the telemetry snapshot as JSON on exit
//   --metrics-summary       print the telemetry summary table to stderr
//   --trace <path>          enable tracing and write a Chrome trace-event
//                           JSON on exit (load in Perfetto / chrome://tracing)
//
// cfg arguments accept either a file path or one of the zoo shorthands
// `zoo:tiny`, `zoo:tincy`, `zoo:tincy-w1a3`, `zoo:mlp4`, `zoo:cnv6`.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#include "core/rng.hpp"
#include "core/string_utils.hpp"
#include "data/image.hpp"
#include "detect/decode.hpp"
#include "detect/nms.hpp"
#include "gemm/kernels.hpp"
#include "nn/builder.hpp"
#include "nn/describe.hpp"
#include "nn/ops.hpp"
#include "nn/region_layer.hpp"
#include "nn/weights_io.hpp"
#include "nn/zoo.hpp"
#include "offload/import.hpp"
#include "offload/registration.hpp"
#include "perf/ladder.hpp"
#include "pipeline/virtual_time.hpp"
#include "serve/demo.hpp"
#include "serve/server.hpp"
#include "video/draw.hpp"
#include "video/ppm.hpp"
#include "video/sink.hpp"

using namespace tincy;

namespace {

std::unique_ptr<nn::Network> open_network(const std::string& spec) {
  using namespace nn::zoo;
  offload::register_standard_backends();
  if (spec == "zoo:tiny")
    return build(tiny_yolo_cfg(TinyVariant::kTiny, QuantMode::kFloat));
  if (spec == "zoo:tincy")
    return build(tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kFloat));
  if (spec == "zoo:tincy-w1a3")
    return build(tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kW1A3, 416,
                               CpuProfile::kOptimized));
  if (spec == "zoo:mlp4") return build(mlp4_cfg());
  if (spec == "zoo:cnv6") return build(cnv6_cfg());
  return nn::build_network_from_file(spec);
}

void maybe_load_weights(nn::Network& net, const std::string& weights) {
  if (weights == "-") {
    Rng rng(1);
    nn::zoo::randomize(net, rng);
    std::fprintf(stderr, "(using random weights)\n");
  } else {
    nn::load_weights(net, weights);
  }
}

int cmd_summary(const std::string& cfg) {
  const auto net = open_network(cfg);
  std::fputs(nn::summary(*net).c_str(), stdout);
  return 0;
}

int cmd_ops(const std::string& cfg) {
  const auto net = open_network(cfg);
  std::fputs(nn::summary(*net).c_str(), stdout);
  const auto w = nn::dot_product_workload(*net);
  std::printf(
      "\ndot-product workload: reduced %s [%s], 8-bit %s, float %s\n",
      with_commas(w.reduced_ops).c_str(), w.reduced_precision.name().c_str(),
      with_commas(w.eight_bit_ops).c_str(), with_commas(w.float_ops).c_str());
  return 0;
}

int cmd_detect(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: tincy detect <cfg> <weights|-> <in.ppm> "
                 "[thresh] [out.ppm]\n");
    return 2;
  }
  const auto net = open_network(argv[0]);
  maybe_load_weights(*net, argv[1]);
  const Tensor image = video::read_ppm(argv[2]);
  const float thresh = argc > 3 ? std::strtof(argv[3], nullptr) : 0.3f;

  const auto* region = dynamic_cast<const nn::RegionLayer*>(
      &net->layer(net->num_layers() - 1));
  if (!region) {
    std::fprintf(stderr, "network does not end in a [region] layer\n");
    return 1;
  }
  const int64_t input_size = net->input_shape().height();
  const Tensor boxed = data::letterbox(image, input_size);
  const Tensor& features = net->forward(boxed);
  auto dets = detect::nms(
      detect::decode_region(features, region->config(), thresh));
  const int64_t w = image.shape().width(), h = image.shape().height();
  for (auto& d : dets)
    data::unletterbox_box(d.box.x, d.box.y, d.box.w, d.box.h, w, h,
                          input_size);

  std::printf("%zu detections:\n", dets.size());
  for (const auto& d : dets)
    std::printf("  class %2d  score %.2f  box (%.3f, %.3f, %.3f, %.3f)\n",
                d.class_id, d.score(), d.box.x, d.box.y, d.box.w, d.box.h);
  if (argc > 4) {
    Tensor annotated = image;
    video::draw_detections(annotated, dets);
    video::write_ppm(argv[4], annotated);
    std::printf("wrote %s\n", argv[4]);
  }
  return 0;
}

/// Reads positional argument `i` into `out` when present. False (a usage
/// error) when it is not an integer in [lo, hi].
bool int_arg(int argc, char** argv, int i, int64_t lo, int64_t hi,
             int64_t& out) {
  if (i >= argc) return true;
  try {
    out = parse_int(argv[i]);
  } catch (const Error&) {
    return false;
  }
  return out >= lo && out <= hi;
}

int cmd_demo(int argc, char** argv) {
  int64_t frames = 64, workers = 4;
  if (!int_arg(argc, argv, 0, 1, INT64_MAX, frames) ||
      !int_arg(argc, argv, 1, 1, serve::kMaxWorkers, workers)) {
    std::fprintf(stderr, "usage: tincy demo [frames>=1] [workers 1..%d]\n",
                 serve::kMaxWorkers);
    return 2;
  }
  // The real frame path: W1A3 Tincy YOLO at 416, its hidden stages handing
  // each other codes, the first and output layers on the packed lowp GEMM
  // engine (so the demo's --metrics-json carries the gemm.* surface).
  auto net = open_network("zoo:tincy-w1a3");
  Rng rng(3);
  nn::zoo::randomize(*net, rng);
  video::SyntheticCamera camera({.width = 128, .height = 96, .seed = 17});
  video::OrderCheckingSink sink;
  serve::DemoConfig cfg;
  cfg.num_workers = static_cast<int>(workers);
  serve::run_demo(
      camera, *net, frames, [&sink](video::Frame&& f) { sink.push(f); }, cfg);
  // Host fps beside the paper's pipelined ZU3EG model (the perf ladder's
  // final stage times on its four cores), as bench/fig5_pipeline prints.
  const perf::ZynqPlatform platform;
  const auto modeled = pipeline::simulate(
      perf::pipelined_stages(platform,
                             perf::optimization_ladder(platform).back().times),
      platform.cores, 64);
  std::printf("%lld frames, %.1f fps on this host (%d workers) vs %.1f fps "
              "modeled on the ZU3EG (%d cores), order %s\n",
              static_cast<long long>(sink.frames_received()), sink.fps(),
              cfg.num_workers, modeled.fps, platform.cores,
              sink.in_order() ? "preserved" : "VIOLATED");
  return sink.in_order() ? 0 : 1;
}

int cmd_serve_sim(int argc, char** argv) {
  int64_t streams = 4, frames = 32, workers = 4;
  if (!int_arg(argc, argv, 0, 1, INT32_MAX, streams) ||
      !int_arg(argc, argv, 1, 1, INT64_MAX, frames) ||
      !int_arg(argc, argv, 2, 1, serve::kMaxWorkers, workers)) {
    std::fprintf(stderr,
                 "usage: tincy serve-sim [streams>=1] [frames>=1] "
                 "[workers 1..%d]\n",
                 serve::kMaxWorkers);
    return 2;
  }

  serve::ServerOptions opts;
  opts.num_workers = static_cast<int>(workers);
  serve::StreamServer server(opts);

  // Every stream is an independent client: its own network instance (no
  // shared activation storage), its own camera, its own ordered sink.
  // Only the fabric engine is shared, through the arbiter.
  std::vector<std::unique_ptr<nn::Network>> nets;
  std::vector<std::unique_ptr<video::SyntheticCamera>> cameras;
  std::vector<std::function<video::Frame()>> sources;
  std::vector<video::OrderCheckingSink> sinks(static_cast<size_t>(streams));
  for (int64_t i = 0; i < streams; ++i) {
    auto net = nn::zoo::build(nn::zoo::tiny_yolo_cfg(
        nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kFloat, 64,
        nn::zoo::CpuProfile::kFused));
    Rng rng(3 + static_cast<uint64_t>(i));
    nn::zoo::randomize(*net, rng);
    cameras.push_back(std::make_unique<video::SyntheticCamera>(
        video::CameraConfig{.width = 128,
                            .height = 96,
                            .seed = 17 + static_cast<uint64_t>(i)}));
    sources.push_back([camera = cameras.back().get()] {
      return camera->read_frame();
    });
    serve::SessionConfig sc;
    sc.stages = serve::make_demo_stages(*net, serve::DemoConfig{},
                                        serve::EnginePolicy::kHiddenLayers);
    auto* sink = &sinks[static_cast<size_t>(i)];
    sc.deliver = [sink](video::Frame&& f) { sink->push(f); };
    sc.queue_capacity = 4;
    server.open_session(std::move(sc));
    nets.push_back(std::move(net));
  }

  server.start();
  const auto t0 = std::chrono::steady_clock::now();
  serve::feed(server, sources, frames);
  server.drain();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  server.stop();

  bool ok = true;
  const auto snapshot = server.snapshot();
  std::printf("stream  frames  rejected  mean_lat_ms  order\n");
  for (int64_t i = 0; i < streams; ++i) {
    const auto& sink = sinks[static_cast<size_t>(i)];
    const auto* lat = snapshot.find_histogram(
        "serve.session.s" + std::to_string(i) + ".latency_ms");
    std::printf("s%-5lld  %6lld  %8lld  %11.2f  %s\n",
                static_cast<long long>(i),
                static_cast<long long>(sink.frames_received()),
                static_cast<long long>(server.rejected(i)),
                lat ? lat->stats.mean() : 0.0,
                sink.in_order() ? "ok" : "VIOLATED");
    ok = ok && sink.in_order() && sink.frames_received() == frames;
  }
  const auto total = static_cast<long long>(streams * frames);
  std::printf(
      "%lld stream(s), %lld frames total, %.2f s, %.1f fps aggregate, "
      "%lld engine grants\n",
      static_cast<long long>(streams), total, elapsed_s,
      elapsed_s > 0.0 ? static_cast<double>(total) / elapsed_s : 0.0,
      static_cast<long long>(server.arbiter().grants()));
  return ok ? 0 : 1;
}

int cmd_export_binparam(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: tincy export-binparam <cfg> <weights|-> <dir>\n");
    return 2;
  }
  const auto net = open_network(argv[0]);
  maybe_load_weights(*net, argv[1]);
  offload::export_binparams(*net, argv[2]);
  std::printf("exported %lld stage(s) to %s\n",
              static_cast<long long>(fabric::load_binparams(argv[2]).size()),
              argv[2]);
  return 0;
}

int cmd_ladder() {
  const perf::ZynqPlatform platform;
  for (const auto& step : perf::optimization_ladder(platform))
    std::printf("%-48s %7.2f fps  (%.1fx total)\n", step.name.c_str(),
                step.fps, step.speedup_total);
  return 0;
}

int cmd_kernels() {
  // Reports the packed-GEMM micro-kernel dispatch table on this machine:
  // which variants are runnable, which one kAuto resolves to, and
  // whether a TINCY_GEMM_KERNEL override is steering the choice.
  const char* env = std::getenv("TINCY_GEMM_KERNEL");
  const gemm::Kernel resolved = gemm::resolve_kernel(gemm::Kernel::kAuto);
  std::printf("packed-GEMM micro-kernel variants (gemm/kernels.hpp):\n");
  for (const gemm::Kernel k : gemm::kConcreteKernels) {
    std::printf("  %-7s %-11s%s\n", gemm::kernel_name(k),
                gemm::kernel_supported(k) ? "supported" : "unavailable",
                k == resolved ? "  <- dispatched by kAuto" : "");
  }
  std::printf("widest supported: %s\n",
              gemm::kernel_name(gemm::widest_supported_kernel()));
  if (env)
    std::printf("TINCY_GEMM_KERNEL=%s (%s)\n", env,
                gemm::parse_kernel_name(env) == gemm::Kernel::kAuto
                    ? "unrecognized -> auto selection"
                    : "honoured by kAuto dispatch");
  else
    std::printf("TINCY_GEMM_KERNEL unset (set to scalar|lanes|avx2|avx512 to "
                "override kAuto)\n");

  // The bit-serial W1A<bits> kernel's popcount variants.
  const gemm::PopcountKernel pop_resolved =
      gemm::resolve_kernel(gemm::PopcountKernel::kAuto);
  std::printf("bit-serial popcount variants (gemm/bitserial.hpp):\n");
  for (const gemm::PopcountKernel k :
       {gemm::PopcountKernel::kPortable, gemm::PopcountKernel::kPopcnt,
        gemm::PopcountKernel::kAvx2, gemm::PopcountKernel::kAvx512}) {
    std::printf("  %-9s %-11s%s\n", gemm::kernel_name(k),
                gemm::kernel_supported(k) ? "supported" : "unavailable",
                k == pop_resolved ? "  <- dispatched by kAuto" : "");
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "tincy — Tincy YOLO reproduction CLI\n"
      "  tincy summary <cfg|zoo:...>\n"
      "  tincy ops <cfg|zoo:...>\n"
      "  tincy detect <cfg|zoo:...> <weights|-> <in.ppm> [thresh] [out.ppm]\n"
      "  tincy demo [frames] [workers]\n"
      "  tincy serve-sim [streams] [frames] [workers]\n"
      "  tincy export-binparam <cfg|zoo:...> <weights|-> <dir>\n"
      "  tincy ladder\n"
      "  tincy kernels\n"
      "global flags: --metrics-json <path>  --metrics-summary  "
      "--trace <path>\n"
      "zoo shorthands: zoo:tiny zoo:tincy zoo:tincy-w1a3 zoo:mlp4 zoo:cnv6\n");
  return 2;
}

/// Emits the collected trace as requested by --trace; runs after the
/// subcommand so every recorded span is included.
int emit_trace(const std::string& trace_path, int rc) {
  if (trace_path.empty()) return rc;
  try {
    const auto events = telemetry::TraceCollector::global().snapshot();
    telemetry::write_chrome_trace(events, trace_path);
    std::fprintf(stderr, "wrote %zu trace events to %s\n", events.size(),
                 trace_path.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return rc == 0 ? 1 : rc;
  }
  return rc;
}

/// Emits the collected telemetry as requested by the global flags; runs
/// after the subcommand so every recorded span is included.
int emit_metrics(const std::string& json_path, bool print_summary, int rc) {
  if (json_path.empty() && !print_summary) return rc;
  const auto snapshot = telemetry::MetricsRegistry::global().snapshot();
  if (print_summary)
    std::fputs(telemetry::summary_table(snapshot).c_str(), stderr);
  if (!json_path.empty()) {
    try {
      telemetry::write_json(snapshot, json_path);
      std::fprintf(stderr, "wrote metrics to %s\n", json_path.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return rc == 0 ? 1 : rc;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global telemetry flags so subcommands see only their own
  // positional arguments.
  std::string metrics_json;
  std::string trace_json;
  bool metrics_summary = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --metrics-json requires a <path>\n");
        return 2;
      }
      metrics_json = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --trace requires a <path>\n");
        return 2;
      }
      trace_json = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-summary") == 0) {
      metrics_summary = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const int nargs = static_cast<int>(args.size());
  if (!trace_json.empty())
    telemetry::TraceCollector::global().set_enabled(true);

  if (nargs < 2) return usage();
  const std::string cmd = args[1];
  try {
    int rc = -1;
    if (cmd == "summary" && nargs >= 3) rc = cmd_summary(args[2]);
    else if (cmd == "ops" && nargs >= 3) rc = cmd_ops(args[2]);
    else if (cmd == "detect") rc = cmd_detect(nargs - 2, args.data() + 2);
    else if (cmd == "demo") rc = cmd_demo(nargs - 2, args.data() + 2);
    else if (cmd == "serve-sim")
      rc = cmd_serve_sim(nargs - 2, args.data() + 2);
    else if (cmd == "export-binparam")
      rc = cmd_export_binparam(nargs - 2, args.data() + 2);
    else if (cmd == "ladder") rc = cmd_ladder();
    else if (cmd == "kernels") rc = cmd_kernels();
    if (rc >= 0) {
      rc = emit_trace(trace_json, rc);
      return emit_metrics(metrics_json, metrics_summary, rc);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::bad_alloc&) {
    // A cfg under the builder's size caps can still ask for more memory
    // than the process may have.
    std::fprintf(stderr, "error: out of memory\n");
    return 1;
  }
  return usage();
}
