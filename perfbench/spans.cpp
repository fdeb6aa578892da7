#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// Span names are the benchmark's own identifiers; escape anyway so the
/// file stays valid JSON.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

int64_t SpanLog::open(std::string name, int64_t parent, int64_t frame,
                      int tag, Clock::time_point start) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.frame = frame;
  s.tag = tag;
  s.tid = thread_id();
  s.start_ms = ms_between(epoch_, start);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::close(int64_t span, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<size_t>(span)).end_ms = ms_between(epoch_, end);
}

int64_t SpanLog::add(std::string name, int64_t parent, int64_t frame,
                     int tag, Clock::time_point start,
                     Clock::time_point end) {
  const int64_t i = open(std::move(name), parent, frame, tag, start);
  close(i, end);
  return i;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanLog::self_ms() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all)
    if (s.parent >= 0 && s.end_ms >= 0.0)
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ms,
                                                           s.end_ms);
  std::vector<double> self(all.size(), 0.0);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ms < 0.0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to this span.
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ms);
      hi = std::min(hi, s.end_ms);
      if (hi <= lo) continue;
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_ms();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ms < 0.0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"frame\":%lld,\"tag\":%d,"
                 "\"self_ms\":%.6f}}",
                 first ? "" : ",", json_string(s.name).c_str(), s.tid,
                 s.start_ms * 1e3, (s.end_ms - s.start_ms) * 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.frame), s.tag, self[i]);
    first = false;
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
