#pragma once

/// \file virtual_time.hpp
/// Deterministic discrete-event execution of the Fig. 5/6 pipeline in
/// *virtual* time: each stage has a fixed duration and the scheduler
/// dispatches jobs to a fixed number of cores with the paper's
/// most-mature-first policy. This is how the reproduction predicts the
/// embedded platform's frame rate (4 × Cortex-A53) from per-stage stage
/// times on a host with a different core count — the paper's "theoretical
/// maximum of a fourfold increase ... diluted by parallelization and
/// synchronization overhead" becomes an exact computable quantity.

#include <string>
#include <vector>

namespace tincy::pipeline {

/// A stage in the virtual-time model.
struct TimedStage {
  std::string name;
  double duration_ms = 0.0;
  /// Stages bound to an exclusive resource (the PL accelerator) contend on
  /// it in addition to needing a CPU core slot for the wrapping driver
  /// call; stages sharing the same non-empty tag serialize globally.
  std::string exclusive_resource;
};

/// One dispatched job in the simulated schedule.
struct ScheduledJob {
  int64_t stage = 0;
  int64_t frame = 0;
  int core = 0;
  double start_ms = 0.0;
  double finish_ms = 0.0;
};

/// Result of a virtual-time run.
struct VirtualRunResult {
  double makespan_ms = 0.0;         ///< completion time of the last frame
  double fps = 0.0;                 ///< steady-state throughput
  double latency_ms = 0.0;          ///< per-frame latency (steady state)
  std::vector<double> core_busy_ms; ///< accumulated busy time per core
  std::vector<int64_t> completion_order;  ///< frame ids in sink order
  std::vector<ScheduledJob> schedule;     ///< all jobs in dispatch order

  /// Mean core utilization over the makespan.
  double utilization() const;
};

/// Renders the first `horizon_ms` of a schedule as an ASCII per-core
/// timeline (one row per core, one column per `resolution_ms`), labelling
/// each job by its frame id modulo 10.
std::string render_schedule(const VirtualRunResult& result,
                            const std::vector<TimedStage>& stages,
                            int num_cores, double horizon_ms,
                            double resolution_ms);

/// Simulates `num_frames` frames through the staged pipeline on
/// `num_cores` cores. Buffering and scheduling follow a StreamServer
/// session (serve/server.hpp) exactly: single-slot output buffers,
/// stage-serial execution, most-mature-first.
VirtualRunResult simulate(const std::vector<TimedStage>& stages,
                          int num_cores, int64_t num_frames);

/// Sequential baseline: one frame at a time through all stages (the
/// pre-§III-F demo mode). fps = 1000 / Σ duration.
double sequential_fps(const std::vector<TimedStage>& stages);

}  // namespace tincy::pipeline
