#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace tincy::telemetry {

namespace {

/// Smallest covered value in ms (1 µs); buckets grow by 2^(1/4) per step,
/// so kNumBuckets = 112 steps span 2^28 ≈ 2.7e8× — up to ~4.5 minutes.
constexpr double kBase = 1e-3;
constexpr double kStepsPerOctave = 4.0;

int log_bucket_index(double value) {
  if (!(value > kBase)) return 0;  // also catches NaN and negatives
  const int idx =
      1 + static_cast<int>(kStepsPerOctave * std::log2(value / kBase));
  return std::min(idx, Histogram::kNumBuckets - 1);
}

/// Nearest-rank quantile over log-scaled buckets — shared by the
/// cumulative Histogram and the merged view of WindowedHistogram slices.
double log_bucket_quantile(const int64_t* buckets, int64_t count, double min,
                           double max, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based (nearest-rank method).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count))));
  int64_t seen = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Geometric midpoint of the bucket, clamped to the observed range.
      const double lo = i == 0 ? min
                               : kBase * std::exp2(static_cast<double>(i - 1) /
                                                   kStepsPerOctave);
      const double hi =
          kBase * std::exp2(static_cast<double>(i) / kStepsPerOctave);
      const double mid = i == 0 ? lo : std::sqrt(lo * hi);
      return std::clamp(mid, min, max);
    }
  }
  return max;
}

}  // namespace

int Histogram::bucket_index(double value) { return log_bucket_index(value); }

void Histogram::record(double value) {
  std::lock_guard lock(mutex_);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  last_ = value;
  ++buckets_[bucket_index(value)];
}

double Histogram::quantile_locked(double q) const {
  return log_bucket_quantile(buckets_, count_, min_, max_, q);
}

HistogramStats Histogram::stats() const {
  std::lock_guard lock(mutex_);
  HistogramStats s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.last = last_;
  s.p50 = quantile_locked(0.5);
  s.p95 = quantile_locked(0.95);
  s.p99 = quantile_locked(0.99);
  return s;
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  count_ = 0;
  sum_ = min_ = max_ = last_ = 0.0;
  std::fill(std::begin(buckets_), std::end(buckets_), 0);
}

int64_t Histogram::count() const {
  std::lock_guard lock(mutex_);
  return count_;
}

double Histogram::quantile(double q) const {
  std::lock_guard lock(mutex_);
  return quantile_locked(q);
}

/// One rotating sub-bucket of a WindowedHistogram. `tag` is the absolute
/// slice index it currently holds; a slot whose tag fell out of the
/// window is logically empty and gets recycled in place.
struct WindowedHistogram::Slice {
  int64_t tag = -1;
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;
  int64_t buckets[Histogram::kNumBuckets] = {};

  void clear(int64_t new_tag) {
    tag = new_tag;
    count = 0;
    sum = min = max = last = 0.0;
    std::fill(std::begin(buckets), std::end(buckets), 0);
  }
};

WindowedHistogram::WindowedHistogram(WindowOptions opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {
  if (opts_.slices < 1) opts_.slices = 1;
  if (opts_.window.count() < opts_.slices)
    opts_.window = std::chrono::milliseconds(opts_.slices);
  slices_.resize(static_cast<size_t>(opts_.slices));
}

WindowedHistogram::~WindowedHistogram() = default;

int64_t WindowedHistogram::slice_of(
    std::chrono::steady_clock::time_point now) const {
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - epoch_);
  const int64_t slice_ms =
      std::max<int64_t>(1, opts_.window.count() / opts_.slices);
  return std::max<int64_t>(0, elapsed.count()) / slice_ms;
}

void WindowedHistogram::record(double value) {
  record_at(value, std::chrono::steady_clock::now());
}

void WindowedHistogram::record_at(double value,
                                  std::chrono::steady_clock::time_point now) {
  const int64_t current = slice_of(now);
  std::lock_guard lock(mutex_);
  Slice& slice = slices_[static_cast<size_t>(current % opts_.slices)];
  if (slice.tag != current) slice.clear(current);
  if (slice.count == 0) {
    slice.min = slice.max = value;
  } else {
    slice.min = std::min(slice.min, value);
    slice.max = std::max(slice.max, value);
  }
  ++slice.count;
  slice.sum += value;
  slice.last = value;
  ++slice.buckets[log_bucket_index(value)];
}

HistogramStats WindowedHistogram::stats_locked(int64_t current) const {
  HistogramStats s;
  int64_t merged[Histogram::kNumBuckets] = {};
  int64_t freshest = -1;
  for (const Slice& slice : slices_) {
    // Live slices are those whose tag is within the trailing window
    // ending at the current slice (inclusive).
    if (slice.tag < 0 || slice.tag > current ||
        slice.tag <= current - opts_.slices || slice.count == 0)
      continue;
    if (s.count == 0) {
      s.min = slice.min;
      s.max = slice.max;
    } else {
      s.min = std::min(s.min, slice.min);
      s.max = std::max(s.max, slice.max);
    }
    s.count += slice.count;
    s.sum += slice.sum;
    if (slice.tag > freshest) {
      freshest = slice.tag;
      s.last = slice.last;
    }
    for (int i = 0; i < Histogram::kNumBuckets; ++i)
      merged[i] += slice.buckets[i];
  }
  s.p50 = log_bucket_quantile(merged, s.count, s.min, s.max, 0.5);
  s.p95 = log_bucket_quantile(merged, s.count, s.min, s.max, 0.95);
  s.p99 = log_bucket_quantile(merged, s.count, s.min, s.max, 0.99);
  return s;
}

HistogramStats WindowedHistogram::stats() const {
  return stats_at(std::chrono::steady_clock::now());
}

HistogramStats WindowedHistogram::stats_at(
    std::chrono::steady_clock::time_point now) const {
  const int64_t current = slice_of(now);
  std::lock_guard lock(mutex_);
  return stats_locked(current);
}

void WindowedHistogram::reset() {
  std::lock_guard lock(mutex_);
  for (Slice& slice : slices_) slice.clear(-1);
}

WindowedRate::WindowedRate(WindowOptions opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {
  if (opts_.slices < 1) opts_.slices = 1;
  if (opts_.window.count() < opts_.slices)
    opts_.window = std::chrono::milliseconds(opts_.slices);
  slices_.resize(static_cast<size_t>(opts_.slices));
}

int64_t WindowedRate::slice_of(
    std::chrono::steady_clock::time_point now) const {
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - epoch_);
  const int64_t slice_ms =
      std::max<int64_t>(1, opts_.window.count() / opts_.slices);
  return std::max<int64_t>(0, elapsed.count()) / slice_ms;
}

void WindowedRate::add(int64_t n) {
  add_at(n, std::chrono::steady_clock::now());
}

void WindowedRate::add_at(int64_t n,
                          std::chrono::steady_clock::time_point now) {
  const int64_t current = slice_of(now);
  std::lock_guard lock(mutex_);
  Slice& slice = slices_[static_cast<size_t>(current % opts_.slices)];
  if (slice.tag != current) {
    slice.tag = current;
    slice.count = 0;
  }
  slice.count += n;
}

double WindowedRate::per_second() const {
  return per_second_at(std::chrono::steady_clock::now());
}

double WindowedRate::per_second_at(
    std::chrono::steady_clock::time_point now) const {
  const int64_t current = slice_of(now);
  const int64_t slice_ms =
      std::max<int64_t>(1, opts_.window.count() / opts_.slices);
  std::lock_guard lock(mutex_);
  int64_t total = 0;
  int64_t oldest = current + 1;
  for (const Slice& slice : slices_) {
    if (slice.tag < 0 || slice.tag > current ||
        slice.tag <= current - opts_.slices)
      continue;
    total += slice.count;
    oldest = std::min(oldest, slice.tag);
  }
  if (total == 0) return 0.0;
  // Early in a run less than a full window has elapsed; divide by the
  // observed span so warm-up fps is not biased low.
  const int64_t span_ms = (current - oldest + 1) * slice_ms;
  return static_cast<double>(total) /
         (static_cast<double>(std::min<int64_t>(span_ms,
                                                opts_.window.count())) /
          1000.0);
}

void WindowedRate::reset() {
  std::lock_guard lock(mutex_);
  for (Slice& slice : slices_) {
    slice.tag = -1;
    slice.count = 0;
  }
}

const CounterSample* Snapshot::find_counter(std::string_view name) const {
  for (const auto& c : counters)
    if (c.name == name) return &c;
  return nullptr;
}

const GaugeSample* Snapshot::find_gauge(std::string_view name) const {
  for (const auto& g : gauges)
    if (g.name == name) return &g;
  return nullptr;
}

const HistogramSample* Snapshot::find_histogram(std::string_view name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

int64_t Snapshot::counter_value(std::string_view name) const {
  const auto* c = find_counter(name);
  return c ? c->value : 0;
}

double Snapshot::gauge_value(std::string_view name) const {
  const auto* g = find_gauge(name);
  return g ? g->value : 0.0;
}

std::vector<const HistogramSample*> Snapshot::histograms_with_prefix(
    std::string_view prefix) const {
  std::vector<const HistogramSample*> out;
  for (const auto& h : histograms)
    if (std::string_view(h.name).substr(0, prefix.size()) == prefix)
      out.push_back(&h);
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

WindowedHistogram& MetricsRegistry::windowed_histogram(const std::string& name,
                                                       WindowOptions opts) {
  std::lock_guard lock(mutex_);
  auto& slot = windowed_hists_[name];
  if (!slot) slot = std::make_unique<WindowedHistogram>(opts);
  return *slot;
}

WindowedRate& MetricsRegistry::windowed_rate(const std::string& name,
                                             WindowOptions opts) {
  std::lock_guard lock(mutex_);
  auto& slot = windowed_rates_[name];
  if (!slot) slot = std::make_unique<WindowedRate>(opts);
  return *slot;
}

namespace {

bool has_prefix(const std::string& name, std::string_view prefix) {
  return std::string_view(name).substr(0, prefix.size()) == prefix;
}

}  // namespace

Snapshot MetricsRegistry::snapshot(std::string_view prefix) const {
  std::lock_guard lock(mutex_);
  Snapshot s;
  for (const auto& [name, c] : counters_)
    if (has_prefix(name, prefix)) s.counters.push_back({name, c->value()});
  for (const auto& [name, g] : gauges_)
    if (has_prefix(name, prefix)) s.gauges.push_back({name, g->value()});
  for (const auto& [name, h] : histograms_)
    if (has_prefix(name, prefix)) s.histograms.push_back({name, h->stats()});
  // Windowed metrics surface as ordinary samples (rate -> gauge); re-sort
  // the merged sections so each stays name-ordered.
  for (const auto& [name, r] : windowed_rates_)
    if (has_prefix(name, prefix)) s.gauges.push_back({name, r->per_second()});
  for (const auto& [name, w] : windowed_hists_)
    if (has_prefix(name, prefix)) s.histograms.push_back({name, w->stats()});
  std::sort(s.gauges.begin(), s.gauges.end(),
            [](const GaugeSample& a, const GaugeSample& b) {
              return a.name < b.name;
            });
  std::sort(s.histograms.begin(), s.histograms.end(),
            [](const HistogramSample& a, const HistogramSample& b) {
              return a.name < b.name;
            });
  return s;
}

void MetricsRegistry::reset(std::string_view prefix) {
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_)
    if (has_prefix(name, prefix)) c->reset();
  for (const auto& [name, g] : gauges_)
    if (has_prefix(name, prefix)) g->reset();
  for (const auto& [name, h] : histograms_)
    if (has_prefix(name, prefix)) h->reset();
  for (const auto& [name, r] : windowed_rates_)
    if (has_prefix(name, prefix)) r->reset();
  for (const auto& [name, w] : windowed_hists_)
    if (has_prefix(name, prefix)) w->reset();
}

int64_t MetricsRegistry::remove(std::string_view prefix) {
  std::lock_guard lock(mutex_);
  int64_t removed = 0;
  // Names sharing a prefix are one contiguous run of each sorted map.
  const std::string first(prefix);
  auto drop = [&](auto& metrics) {
    auto it = metrics.lower_bound(first);
    for (; it != metrics.end() && has_prefix(it->first, prefix); ++removed)
      it = metrics.erase(it);
  };
  drop(counters_);
  drop(gauges_);
  drop(histograms_);
  drop(windowed_rates_);
  drop(windowed_hists_);
  return removed;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

double ScopedTimer::stop() {
  if (hist_ == nullptr) return 0.0;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  hist_->record(ms);
  hist_ = nullptr;
  return ms;
}

}  // namespace tincy::telemetry
