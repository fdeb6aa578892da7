#pragma once

/// \file spans.hpp
/// The benchmark's own tracing: spans recorded around calls into the
/// program's modules, kept in memory and written once at exit as a
/// Chrome trace-event file (loads in Perfetto / chrome://tracing). A span
/// has a name, a start, an end, a parent and a frame id shared by every
/// span of one frame; its self time is its duration minus the part of it
/// that its children cover.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Percentile q in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
double percentile(std::vector<double> sample, double q);
inline double median(std::vector<double> sample) {
  return percentile(std::move(sample), 0.5);
}

struct Span {
  std::string name;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  int64_t frame = -1;   ///< shared by every span of one frame
  int tag = 0;          ///< workload-defined group, e.g. the serving phase
  int tid = 0;          ///< small id of the recording thread
  double start_ms = 0.0;  ///< since the log's epoch
  double end_ms = -1.0;   ///< -1 while the span is open
};

/// Thread-safe, append-only span store.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  /// Opens a span whose end is recorded later by close(); returns its index.
  int64_t open(std::string name, int64_t parent, int64_t frame, int tag,
               Clock::time_point start);
  void close(int64_t span, Clock::time_point end);
  /// Records a finished span; returns its index.
  int64_t add(std::string name, int64_t parent, int64_t frame, int tag,
              Clock::time_point start, Clock::time_point end);

  std::vector<Span> spans() const;
  /// Self time of every span (index-aligned with spans()): its duration
  /// minus the union of its children's intervals within it.
  std::vector<double> self_ms() const;

  /// Writes every closed span as a complete ("X") trace event whose args
  /// carry the frame id, the parent index and the self time.
  void write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
