#pragma once

/// \file trace.hpp
/// Per-frame causal tracing: a lock-free, per-thread ring-buffer trace
/// collector plus Chrome trace-event JSON export (loadable in Perfetto /
/// chrome://tracing).
///
/// Aggregate histograms (metrics.hpp) answer "how slow on average"; the
/// trace answers "where did *this* frame's milliseconds go" — admission
/// queue dwell, arbiter wait, gang seat (leader vs. ride-along), each
/// fabric layer pass with its LayerPerf cycle split, GEMM pack/compute,
/// delivery. Events are written into fixed-size per-thread rings of
/// atomic words, so emission never blocks and never allocates; a reader
/// (exporter, flight recorder) snapshots concurrently and simply drops
/// slots that were overwritten mid-read.
///
/// Event model (see docs/observability.md "Tracing"):
///   async "frame"  b/e    submit -> delivery (or shed/drop), one per frame
///   async "queue"  b/e    submit -> stage-0 claim (admission-queue dwell)
///   X "stage:<name>"      one server stage execution
///   i "gang"              engine grant seat: role=leader|member, grant id,
///                         leader also carries batch size
///   X "arbiter.wait"      denied engine claim -> eventual grant
///   X "deliver"           the deliver callback
///   X "net.layer.<i>.*"   one network-layer forward
///   X "fabric.layer<i>"   one (possibly batched) fabric pass, cycle args
///   X "gemm.pack|compute" GEMM spans
/// Deep spans (net/fabric/gemm) learn their frame identity from the
/// thread-local TraceContext installed by the server worker.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tincy::telemetry {

enum class TracePhase : uint8_t {
  kComplete,    ///< Chrome "X": ts + dur span on one thread
  kInstant,     ///< Chrome "i": point event
  kAsyncBegin,  ///< Chrome "b": start of a cross-thread span
  kAsyncEnd,    ///< Chrome "e": end of a cross-thread span
};

/// One decoded trace event. Fixed-size (trivially copyable) so it can be
/// stored in the atomic-word rings; name/args are NUL-terminated and
/// silently truncated on overflow.
struct TraceEvent {
  static constexpr size_t kNameCapacity = 48;
  static constexpr size_t kArgsCapacity = 115;

  double ts_ms = 0.0;   ///< milliseconds since the collector's epoch
  double dur_ms = 0.0;  ///< kComplete only
  int64_t session = -1;
  int64_t frame = -1;
  int32_t tid = 0;  ///< collector-local track id (registration order)
  TracePhase phase = TracePhase::kInstant;
  char name[kNameCapacity] = {};
  char args[kArgsCapacity] = {};  ///< JSON object fragment, e.g. "\"batch\":4"

  std::string_view name_view() const { return {name}; }
  std::string_view args_view() const { return {args}; }
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// Looks up an integer value in an event's args fragment; `fallback`
/// when the key is absent or non-numeric.
int64_t trace_arg_int(const TraceEvent& event, std::string_view key,
                      int64_t fallback = -1);

/// Looks up a string value ("key":"value") in an event's args fragment.
std::string trace_arg_str(const TraceEvent& event, std::string_view key);

/// Thread-local frame identity, installed by the server worker
/// around stage execution so nested net/fabric/gemm spans tag themselves.
struct TraceContext {
  int64_t session = -1;
  int64_t frame = -1;
};

TraceContext& current_trace_context();

class ScopedTraceContext {
 public:
  ScopedTraceContext(int64_t session, int64_t frame)
      : prev_(current_trace_context()) {
    current_trace_context() = {session, frame};
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
  ~ScopedTraceContext() { current_trace_context() = prev_; }

 private:
  TraceContext prev_;
};

/// Lock-free trace sink. Each emitting thread gets its own ring of
/// `capacity` events (oldest overwritten); emit() is wait-free after the
/// first (mutex-protected, once-per-thread) registration. Disabled
/// collectors cost one relaxed atomic load per emission site.
///
/// Readers (snapshot / session_tail) run concurrently with writers: a
/// slot is copied word-by-word and discarded if the writer lapped it
/// while the copy was in flight, so no locks and no torn events.
class TraceCollector {
 public:
  static constexpr int64_t kDefaultCapacity = 8192;  ///< events per thread

  explicit TraceCollector(int64_t capacity_per_thread = kDefaultCapacity);
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Process-wide default instance, used by components that are not
  /// handed an explicit collector (gemm, fabric, Network).
  static TraceCollector& global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Milliseconds since this collector's construction (its trace epoch).
  double now_ms() const;

  /// Records one event on the calling thread's ring. No-op while
  /// disabled. `ts_ms` < 0 means "now"; `dur_ms` only matters for
  /// kComplete. `args` is a JSON object fragment without braces.
  void emit(TracePhase phase, std::string_view name, int64_t session,
            int64_t frame, std::string_view args = {}, double dur_ms = 0.0,
            double ts_ms = -1.0);

  void instant(std::string_view name, int64_t session, int64_t frame,
               std::string_view args = {}) {
    emit(TracePhase::kInstant, name, session, frame, args);
  }
  void async_begin(std::string_view name, int64_t session, int64_t frame,
                   std::string_view args = {}) {
    emit(TracePhase::kAsyncBegin, name, session, frame, args);
  }
  void async_end(std::string_view name, int64_t session, int64_t frame,
                 std::string_view args = {}) {
    emit(TracePhase::kAsyncEnd, name, session, frame, args);
  }

  /// All retained events from every thread, sorted by (ts, -dur) so
  /// enclosing spans precede the spans they contain.
  std::vector<TraceEvent> snapshot() const;

  /// The last `max_events` retained events touching `session`, ts-sorted
  /// — the flight-recorder query.
  std::vector<TraceEvent> session_tail(int64_t session,
                                       size_t max_events) const;

  /// Logically discards all retained events. Rings stay allocated and
  /// registered threads keep writing into them.
  void reset();

  int64_t capacity_per_thread() const { return capacity_; }

 private:
  struct Buffer;

  Buffer* buffer_for_this_thread();
  void read_buffer(const Buffer& buf, std::vector<TraceEvent>& out) const;

  const int64_t capacity_;
  const uint64_t instance_id_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};

  mutable std::mutex register_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII complete-span: captures start at construction, emits a
/// TracePhase::kComplete event at destruction. Inert when the collector
/// is null or disabled at construction.
class TraceSpan {
 public:
  TraceSpan(TraceCollector* collector, std::string_view name,
            int64_t session = -1, int64_t frame = -1);

  /// Convenience: tags with the current thread's TraceContext.
  TraceSpan(TraceCollector* collector, std::string_view name,
            const TraceContext& ctx)
      : TraceSpan(collector, name, ctx.session, ctx.frame) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  bool active() const { return collector_ != nullptr; }

  /// Attaches a JSON args fragment (without braces) to the span.
  void set_args(std::string_view args);

 private:
  TraceCollector* collector_ = nullptr;
  double start_ms_ = 0.0;
  int64_t session_ = -1;
  int64_t frame_ = -1;
  char name_[TraceEvent::kNameCapacity] = {};
  char args_[TraceEvent::kArgsCapacity] = {};
};

/// Serializes events as Chrome trace-event JSON (schema
/// "tincy.trace.v1"): {"traceEvents":[{"name","cat","ph","ts","dur",
/// "pid","tid","id","args":{...,"session","frame"}},...]}. ts/dur are
/// microseconds, as the format requires; async events get cat "frame"
/// and id "s<session>.f<frame>". `header_fields` is spliced verbatim
/// into the top-level object before "traceEvents" — the flight recorder
/// uses it to stamp its own schema/session/fault fields while the file
/// stays loadable in Perfetto.
std::string to_chrome_trace(
    const std::vector<TraceEvent>& events,
    std::string_view header_fields = "\"schema\":\"tincy.trace.v1\"");

/// Writes to_chrome_trace() to `path`; throws tincy::Error on I/O failure.
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        const std::string& path);

/// Inverse of to_chrome_trace for the subset it emits; throws
/// tincy::Error on malformed input. Used by tools/check_metrics --trace.
std::vector<TraceEvent> parse_chrome_trace(const std::string& json);

}  // namespace tincy::telemetry
