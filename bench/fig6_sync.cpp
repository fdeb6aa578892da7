// Reproduces Fig. 6: the producer/consumer free/avail synchronization of
// pipelined frame processing — stressing the single-slot handshake of a
// one-session StreamServer with many frames, jittered stage durations and
// varying worker counts, and verifying the ordering guarantee ("prevents
// that one frame overtakes another") plus the job-selection policy's
// consequences.

#include <chrono>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <thread>

#include "core/rng.hpp"
#include "pipeline/virtual_time.hpp"
#include "serve/demo.hpp"
#include "video/sink.hpp"

using namespace tincy;

int main() {
  std::printf("FIG. 6 — SYNCHRONIZATION OF PIPELINED FRAME PROCESSING\n\n");

  std::printf("%7s %7s %8s %9s %s\n", "workers", "stages", "frames",
              "host fps", "ordering");
  bool all_ordered = true;
  for (const int workers : {1, 2, 4, 8}) {
    for (const int num_stages : {3, 6}) {
      Rng jitter(static_cast<uint64_t>(workers * 100 + num_stages));
      serve::SessionConfig session;
      for (int s = 0; s < num_stages; ++s) {
        // Jittered busy-wait stages exercise out-of-order completions.
        const int base_us = 100 + static_cast<int>(jitter.uniform_int(0, 400));
        serve::ServeStage stage;
        stage.name = "s" + std::to_string(s);
        stage.work = [base_us](video::Frame&) {
          std::this_thread::sleep_for(std::chrono::microseconds(base_us));
        };
        session.stages.push_back(std::move(stage));
      }
      video::OrderCheckingSink sink;
      session.deliver = [&sink](video::Frame&& f) { sink.push(f); };
      serve::ServerOptions options;
      options.num_workers = workers;
      serve::StreamServer server(options);
      server.open_session(std::move(session));
      server.start();
      int64_t next = 0;
      const std::function<video::Frame()> source = [&next] {
        video::Frame f;
        f.sequence = next++;
        return f;
      };
      serve::feed(server, std::span(&source, 1), 200);
      server.drain();
      server.stop();
      all_ordered = all_ordered && sink.in_order();
      std::printf("%7d %7d %8lld %9.0f %s\n", workers, num_stages,
                  static_cast<long long>(sink.frames_received()), sink.fps(),
                  sink.in_order() ? "preserved" : "VIOLATED");
    }
  }

  // The free/avail handshake in virtual time: a single-slot buffer means a
  // fast producer is throttled by its consumer (back-pressure).
  std::printf("\nback-pressure (virtual time): producer 5 ms, consumer 20 ms\n");
  const std::vector<pipeline::TimedStage> stages{{"producer", 5.0, ""},
                                                 {"consumer", 20.0, ""}};
  const auto sim = pipeline::simulate(stages, 4, 100);
  std::printf("throughput %.1f fps — gated by the consumer (50.0 expected)\n",
              sim.fps);

  std::printf("\nall orderings preserved: %s\n", all_ordered ? "yes" : "NO");
  return all_ordered ? 0 : 1;
}
