// Reproduces Fig. 5: the pipeline stages of the new demo mode — the
// network-length+4 stage list, running live on the synthetic camera with
// the threaded scheduler, plus the virtual-time model of the 4-core
// ZU3EG reaching ~16 fps.

#include <cstdio>
#include <string>

#include "core/rng.hpp"
#include "nn/zoo.hpp"
#include "perf/ladder.hpp"
#include "pipeline/virtual_time.hpp"
#include "serve/demo.hpp"
#include "video/sink.hpp"

using namespace tincy;
using nn::zoo::CpuProfile;
using nn::zoo::QuantMode;
using nn::zoo::TinyVariant;

int main() {
  std::printf("FIG. 5 — PIPELINE STAGES OF THE NEW demo MODE\n\n");

  // The real frame path: W1A3 Tincy YOLO at 416, 8-bit first and output
  // layers, the hidden stages handing each other codes.
  auto net = nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      TinyVariant::kTincy, QuantMode::kW1A3, 416, CpuProfile::kOptimized));
  Rng rng(3);
  nn::zoo::randomize(*net, rng);

  serve::DemoConfig cfg;
  cfg.num_workers = 4;
  const auto stages =
      serve::make_demo_stages(*net, cfg, serve::EnginePolicy::kNone);
  std::printf("stage list (N+4 = %zu stages for the N=%lld-layer network):\n",
              stages.size(), static_cast<long long>(net->num_layers()));
  for (size_t i = 0; i < stages.size(); ++i)
    std::printf("  #%-2zu %s\n", i, stages[i].name.c_str());

  video::SyntheticCamera camera({.width = 96, .height = 72, .seed = 5});
  video::OrderCheckingSink sink;
  const auto snapshot = serve::run_demo(
      camera, *net, 48, [&sink](video::Frame&& f) { sink.push(f); }, cfg);
  std::printf("\nhost run: %lld frames, %.1f fps (host-relative), order %s\n",
              static_cast<long long>(sink.frames_received()), sink.fps(),
              sink.in_order() ? "preserved" : "VIOLATED");
  std::printf("%-22s %8s %6s\n", "stage", "busy ms", "jobs");
  for (const auto& s : stages) {
    const std::string prefix =
        "serve.session.demo.stage." + serve::metric_label(s.name) + ".";
    const auto* busy = snapshot.find_histogram(prefix + "busy_ms");
    std::printf("%-22s %8.1f %6lld\n", s.name.c_str(),
                busy ? busy->stats.sum : 0.0,
                static_cast<long long>(snapshot.counter_value(prefix + "jobs")));
  }

  // Modeled ZU3EG pipeline (the paper's stage times).
  const perf::ZynqPlatform platform;
  const auto ladder = perf::optimization_ladder(platform);
  const auto& final_times = ladder.back().times;
  const auto timed = perf::pipelined_stages(platform, final_times);
  std::printf("\nmodeled ZU3EG stages (incl. %.1f ms sync overhead each):\n",
              platform.pipeline_sync_overhead_ms);
  for (const auto& s : timed)
    std::printf("  %-18s %6.1f ms%s\n", s.name.c_str(), s.duration_ms,
                s.exclusive_resource.empty() ? "" : "  [exclusive PL]");
  const auto sim = pipeline::simulate(timed, platform.cores, 64);
  std::printf("\nsequential: %.1f fps;  pipelined on %d cores: %.1f fps "
              "(paper: ~5.x -> 16 fps);  core utilization %.0f %%;  "
              "frame latency %.0f ms\n\n",
              pipeline::sequential_fps(timed), platform.cores, sim.fps,
              100.0 * sim.utilization(), sim.latency_ms);
  std::fputs(
      pipeline::render_schedule(sim, timed, platform.cores, 480.0, 6.0)
          .c_str(),
      stdout);
  std::printf("\nzoo:tincy-w1a3 at 416: %.1f fps on this host (%d workers) "
              "vs %.1f fps modeled on the ZU3EG (%d cores)\n",
              sink.fps(), cfg.num_workers, sim.fps, platform.cores);
  return sink.in_order() ? 0 : 1;
}
