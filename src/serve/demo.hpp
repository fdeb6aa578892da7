#pragma once

/// \file demo.hpp
/// The paper's demo mode (Fig. 5) as a client of the StreamServer: a stage
/// chain four stages longer than the network —
///   #0 Read Frame, #1 Letter Boxing, #2..N+1 the network layers
///   (the forward pass "disintegrated" into per-layer jobs),
///   #N+2 Object Boxing, #N+3 Frame Drawing —
/// plus the round-robin feeder that `tincy demo` (one session) and
/// `tincy serve-sim` (one session per stream) drive the server with.
/// Every frame carries its own activations (nn::FrameState), so sessions
/// and frames share no activation storage, only the (arbitrated) engine.

#include <functional>
#include <span>
#include <vector>

#include "nn/network.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "video/camera.hpp"

namespace tincy::serve {

/// Which stages of a session require the exclusive engine grant.
enum class EnginePolicy {
  kNone,           ///< pure-CPU session (the demo, float nets, tests)
  kOffloadLayers,  ///< stages wrapping an [offload] layer (Fig. 3/4 path)
  /// The paper's split: every hidden layer (all but the first conv, the
  /// last conv and the region layer) runs on the time-shared PL engine.
  kHiddenLayers,
};

struct DemoConfig {
  int num_workers = 4;            ///< worker threads (paper: 4 × A53)
  float detect_threshold = 0.3f;  ///< objectness/score threshold
  float nms_iou = 0.45f;          ///< NMS overlap threshold
  /// Registry the server reports into; null selects the process-wide
  /// default. The network keeps reporting into its own registry (set at
  /// construction) — pass the same one for a unified snapshot.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Trace sink handed to the server (per-frame spans); null selects
  /// telemetry::TraceCollector::global().
  telemetry::TraceCollector* trace = nullptr;
};

/// Builds the Fig. 5 stage list around `net` and marks engine stages per
/// `policy`. The network must end in a region layer; each layer becomes
/// one stage running Network::forward_layer, the per-layer step of
/// Network::forward, on the frame's own nn::FrameState (video::Frame):
/// concurrent frames never share activation storage, the stages hand
/// each other what the plan says (u8 HWC codes between the quantized
/// layers), and per-layer telemetry (`net.layer.<i>.<type>.ms`) stays
/// fresh in demo mode. Object boxing decodes the region layer's output
/// from the state. The network outlives the session.
std::vector<ServeStage> make_demo_stages(const nn::Network& net,
                                         const DemoConfig& cfg,
                                         EnginePolicy policy);

/// Submits `frames` frames to each of the server's first
/// `sources.size()` sessions, pulling session i's frames from
/// `sources[i]`, round-robin. A full admission queue answers kOverloaded
/// and the held frame is retried after a short sleep — per-stream
/// backpressure. A session that stops accepting (closed or quarantined)
/// is given up on. Returns once every session is fed; the caller drains.
void feed(StreamServer& server,
          std::span<const std::function<video::Frame()>> sources,
          int64_t frames);

/// Runs `num_frames` camera frames through the demo stages as one
/// StreamServer session named "demo" (metrics under
/// `serve.session.demo.`), fed by feed() and drained; `deliver` sees the
/// drawn frames in order. Returns the server registry's snapshot. Throws
/// tincy::Error if a stage faulted.
telemetry::Snapshot run_demo(video::SyntheticCamera& camera,
                             const nn::Network& net,
                             int64_t num_frames,
                             std::function<void(video::Frame&&)> deliver,
                             const DemoConfig& cfg = {});

}  // namespace tincy::serve
