#include "serve/demo.hpp"

#include <chrono>
#include <optional>
#include <thread>

#include "core/errors.hpp"
#include "data/image.hpp"
#include "detect/decode.hpp"
#include "detect/nms.hpp"
#include "nn/offload_layer.hpp"
#include "nn/region_layer.hpp"
#include "video/draw.hpp"

namespace tincy::serve {

namespace {

/// Whether network layer `layer` runs on the shared engine under `policy`.
bool uses_engine(const nn::Network& net, int64_t layer,
                 EnginePolicy policy) {
  switch (policy) {
    case EnginePolicy::kNone:
      return false;
    case EnginePolicy::kOffloadLayers:
      return dynamic_cast<const nn::OffloadLayer*>(&net.layer(layer)) !=
             nullptr;
    case EnginePolicy::kHiddenLayers:
      // First conv (layer 0), last conv (L-2) and region (L-1) stay on
      // the CPU, as in the paper's deployment.
      return layer >= 1 && layer <= net.num_layers() - 3;
  }
  return false;
}

}  // namespace

std::vector<ServeStage> make_demo_stages(const nn::Network& net,
                                         const DemoConfig& cfg,
                                         EnginePolicy policy) {
  TINCY_CHECK_MSG(net.num_layers() >= 1, "empty network");
  auto* region =
      dynamic_cast<const nn::RegionLayer*>(&net.layer(net.num_layers() - 1));
  TINCY_CHECK_MSG(region != nullptr,
                  "demo pipeline expects the network to end in [region]");
  const int64_t input_size = net.input_shape().height();
  TINCY_CHECK_MSG(net.input_shape().width() == input_size,
                  "demo expects a square network input");

  std::vector<ServeStage> stages;
  const auto add = [&stages](std::string name,
                             std::function<void(video::Frame&)> work,
                             bool engine = false) {
    ServeStage stage;
    stage.name = std::move(name);
    stage.work = std::move(work);
    stage.uses_engine = engine;
    stages.push_back(std::move(stage));
  };

  // #0 Read Frame — the camera pull happens in the feeder; this stage
  // represents the capture/copy cost as its own job slot (the paper split
  // image acquisition into camera access and scaling).
  add("read_frame", [](video::Frame&) {});

  // #1 Letter Boxing.
  add("letterbox", [input_size](video::Frame& f) {
    f.boxed = data::letterbox(f.image, input_size);
  });

  // #2 .. N+1: one stage per network layer, each the per-layer step of
  // Network::forward on the frame's own state: codes cross the hidden
  // stages as they cross forward's layers, and per-layer telemetry stays
  // fresh in demo mode.
  for (int64_t i = 0; i < net.num_layers(); ++i)
    add("L[" + std::to_string(i) + "] " + net.layer(i).type_name(),
        [&net, i](video::Frame& f) { net.forward_layer(i, f.boxed, f.state); },
        uses_engine(net, i, policy));

  // #N+2 Object Boxing: decode + NMS, boxes mapped back to camera space.
  const nn::RegionConfig region_cfg = region->config();
  const float thresh = cfg.detect_threshold;
  const float nms_iou = cfg.nms_iou;
  const int64_t last = net.num_layers() - 1;
  add("object_boxing",
      [&net, last, region_cfg, thresh, nms_iou, input_size](video::Frame& f) {
        auto dets = detect::decode_region(net.layer_output(last, f.state),
                                          region_cfg, thresh);
        dets = detect::nms(std::move(dets), nms_iou);
        const int64_t w = f.image.shape().width();
        const int64_t h = f.image.shape().height();
        for (auto& d : dets)
          data::unletterbox_box(d.box.x, d.box.y, d.box.w, d.box.h, w, h,
                                input_size);
        f.detections = std::move(dets);
      });

  // #N+3 Frame Drawing.
  add("frame_drawing", [](video::Frame& f) {
    video::draw_detections(f.image, f.detections);
  });

  return stages;
}

void feed(StreamServer& server,
          std::span<const std::function<video::Frame()>> sources,
          int64_t frames) {
  const size_t n = sources.size();
  std::vector<int64_t> sent(n, 0);
  std::vector<std::optional<video::Frame>> held(n);
  size_t remaining = frames > 0 ? n : 0;
  while (remaining > 0) {
    bool progressed = false;
    for (size_t i = 0; i < n; ++i) {
      if (sent[i] == frames) continue;
      if (!held[i]) held[i] = sources[i]();
      // The held frame moves into the server only on acceptance; a
      // kOverloaded refusal leaves it here for the next round, uncopied.
      const ServeResult r =
          server.try_submit(static_cast<int64_t>(i), *held[i]);
      if (r == ServeResult::kOverloaded) continue;
      held[i].reset();
      // Accepted, or the session will never accept again.
      sent[i] = r == ServeResult::kAccepted ? sent[i] + 1 : frames;
      if (sent[i] == frames) --remaining;
      progressed = true;
    }
    if (!progressed)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

telemetry::Snapshot run_demo(video::SyntheticCamera& camera,
                             const nn::Network& net,
                             int64_t num_frames,
                             std::function<void(video::Frame&&)> deliver,
                             const DemoConfig& cfg) {
  TINCY_CHECK_MSG(num_frames >= 1, "num_frames " << num_frames);
  ServerOptions options;
  options.num_workers = cfg.num_workers;
  options.metrics = cfg.metrics;
  options.trace = cfg.trace;
  StreamServer server(options);
  SessionConfig session;
  session.name = "demo";
  session.stages = make_demo_stages(net, cfg, EnginePolicy::kNone);
  session.deliver = std::move(deliver);
  session.queue_capacity = 4;
  server.open_session(std::move(session));
  server.start();
  const std::function<video::Frame()> source = [&camera] {
    return camera.read_frame();
  };
  feed(server, std::span(&source, 1), num_frames);
  server.drain();
  server.stop();
  if (server.quarantined(0)) throw Error(server.fault_message(0));
  return server.snapshot();
}

}  // namespace tincy::serve
