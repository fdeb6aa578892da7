#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "nn/conv_layer.hpp"
#include "nn/network.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::telemetry {
namespace {

// --- Concurrency: updates from N threads land exactly ---

TEST(Telemetry, ConcurrentCounterUpdatesLandExactly) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.events");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIters; ++i) counter.add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kIters);
}

TEST(Telemetry, ConcurrentHistogramUpdatesLandExactly) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("test.latency_ms");
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kIters; ++i)
        hist.record(1.0 + static_cast<double>(t));  // values 1..8 ms
    });
  for (auto& t : threads) t.join();

  const HistogramStats s = hist.stats();
  EXPECT_EQ(s.count, int64_t{kThreads} * kIters);
  // Σ over threads t of kIters·(1+t) = kIters·(kThreads + kThreads·(kThreads-1)/2)
  const double expected_sum =
      kIters * (kThreads + kThreads * (kThreads - 1) / 2.0);
  EXPECT_NEAR(s.sum, expected_sum, 1e-6);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

TEST(Telemetry, ConcurrentGaugeAddIsLossless) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("test.accum");
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kIters; ++i) gauge.add(0.5);
    });
  for (auto& t : threads) t.join();
  EXPECT_NEAR(gauge.value(), 0.5 * kThreads * kIters, 1e-6);
}

// --- Histogram semantics ---

TEST(Telemetry, HistogramQuantilesBracketedAndOrdered) {
  Histogram hist;
  for (int i = 1; i <= 1000; ++i) hist.record(static_cast<double>(i) * 0.1);
  const HistogramStats s = hist.stats();
  EXPECT_EQ(s.count, 1000);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.max);
  // Log-bucketed estimate: p50 of U(0.1, 100) ≈ 50 within bucket error.
  EXPECT_NEAR(s.p50, 50.0, 50.0 * 0.10);
  EXPECT_NEAR(s.p95, 95.0, 95.0 * 0.10);
  EXPECT_DOUBLE_EQ(s.last, 100.0);
}

TEST(Telemetry, HistogramResetClearsEverything) {
  Histogram hist;
  hist.record(3.0);
  hist.reset();
  const HistogramStats s = hist.stats();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.last, 0.0);
}

TEST(Telemetry, ScopedTimerRecordsOneSpan) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("span.ms");
  {
    ScopedTimer span(hist);
  }
  EXPECT_EQ(hist.count(), 1);
  {
    ScopedTimer span(registry, "span.ms");
    EXPECT_GE(span.stop(), 0.0);
  }  // destructor after stop() must not double-record
  EXPECT_EQ(hist.count(), 2);
}

TEST(Telemetry, RegistrySnapshotFiltersByPrefix) {
  MetricsRegistry registry;
  registry.counter("a.x").add(1);
  registry.counter("b.y").add(2);
  registry.histogram("a.h").record(1.0);
  const Snapshot all = registry.snapshot();
  EXPECT_EQ(all.counters.size(), 2u);
  const Snapshot only_a = registry.snapshot("a.");
  EXPECT_EQ(only_a.counters.size(), 1u);
  EXPECT_EQ(only_a.histograms.size(), 1u);
  EXPECT_EQ(only_a.counter_value("a.x"), 1);
  EXPECT_EQ(only_a.counter_value("b.y"), 0);  // filtered out
}

TEST(Telemetry, RegistryRemoveDropsOnlyThePrefix) {
  MetricsRegistry registry;
  registry.counter("s.a.x").add(1);
  registry.gauge("s.a.g").set(2.0);
  registry.histogram("s.a.h").record(1.0);
  registry.windowed_histogram("s.a.w").record(1.0);
  registry.windowed_rate("s.a.r").add(1);
  Counter& kept = registry.counter("s.ab.x");
  kept.add(3);
  registry.counter("s.b.x").add(4);
  EXPECT_EQ(registry.remove("s.a."), 5);
  const Snapshot after = registry.snapshot();
  EXPECT_TRUE(registry.snapshot("s.a.").counters.empty());
  EXPECT_TRUE(registry.snapshot("s.a.").gauges.empty());
  EXPECT_TRUE(registry.snapshot("s.a.").histograms.empty());
  EXPECT_EQ(after.counter_value("s.ab.x"), 3);
  EXPECT_EQ(after.counter_value("s.b.x"), 4);
  kept.add(1);  // the other metrics' objects are untouched
  EXPECT_EQ(registry.snapshot().counter_value("s.ab.x"), 4);
  EXPECT_EQ(registry.remove("s.a."), 0);
  // A removed name registers afresh.
  EXPECT_EQ(registry.counter("s.a.x").value(), 0);
}

// --- JSON round trip ---

TEST(Telemetry, JsonExportRoundTrips) {
  MetricsRegistry registry;
  registry.counter("pipeline.frames").add(42);
  registry.gauge("pipeline.fps").set(16.25);
  registry.gauge("weird \"name\"\t").set(-1.5e-3);
  Histogram& h = registry.histogram("net.layer.0.convolutional.ms");
  Rng rng(11);
  for (int i = 0; i < 257; ++i) h.record(0.05 + 10.0 * rng.uniform());

  const Snapshot before = registry.snapshot();
  const std::string json = to_json(before);
  const Snapshot after = parse_snapshot(json);

  ASSERT_EQ(after.counters.size(), before.counters.size());
  ASSERT_EQ(after.gauges.size(), before.gauges.size());
  ASSERT_EQ(after.histograms.size(), before.histograms.size());
  EXPECT_EQ(after.counter_value("pipeline.frames"), 42);
  EXPECT_DOUBLE_EQ(after.gauge_value("pipeline.fps"), 16.25);
  EXPECT_DOUBLE_EQ(after.gauge_value("weird \"name\"\t"), -1.5e-3);
  const auto* hs = after.find_histogram("net.layer.0.convolutional.ms");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->stats.count, before.histograms[0].stats.count);
  EXPECT_DOUBLE_EQ(hs->stats.sum, before.histograms[0].stats.sum);
  EXPECT_DOUBLE_EQ(hs->stats.min, before.histograms[0].stats.min);
  EXPECT_DOUBLE_EQ(hs->stats.max, before.histograms[0].stats.max);
  EXPECT_DOUBLE_EQ(hs->stats.p50, before.histograms[0].stats.p50);
  EXPECT_DOUBLE_EQ(hs->stats.p95, before.histograms[0].stats.p95);
}

TEST(Telemetry, JsonParserRejectsGarbage) {
  EXPECT_THROW(parse_snapshot("not json"), Error);
  EXPECT_THROW(parse_snapshot("{}"), Error);  // missing schema
  EXPECT_THROW(parse_snapshot("{\"schema\": \"other.v9\"}"), Error);
  const std::string ok =
      "{\"schema\": \"tincy.telemetry.v1\", \"counters\": {}, "
      "\"gauges\": {}, \"histograms\": {}}";
  EXPECT_NO_THROW(parse_snapshot(ok));
}

TEST(Telemetry, SummaryTableMentionsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("c.one").add(7);
  registry.histogram("h.two").record(1.25);
  const std::string table = summary_table(registry.snapshot());
  EXPECT_NE(table.find("c.one"), std::string::npos);
  EXPECT_NE(table.find("h.two"), std::string::npos);
}

// --- Network integration: per-layer spans stay fresh in demo mode ---

TEST(Telemetry, NetworkRunLayerIntoRecordsFreshTimings) {
  MetricsRegistry registry;
  nn::Network net(Shape{3, 8, 8}, &registry);
  nn::ConvConfig cfg;
  cfg.filters = 2;
  net.add(std::make_unique<nn::ConvLayer>(cfg, net.input_shape()));

  Rng rng(5);
  Tensor in(net.input_shape());
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = rng.uniform();

  net.forward(in);
  const auto snap = net.snapshot();
  const auto* layer0 = snap.find_histogram("net.layer.0.convolutional.ms");
  ASSERT_NE(layer0, nullptr);
  EXPECT_EQ(layer0->stats.count, 1);

  // Demo mode: external per-frame buffer, same telemetry stream.
  Tensor out(net.layer(0).output_shape());
  net.run_layer_into(0, in, out);
  EXPECT_EQ(net.snapshot().find_histogram("net.layer.0.convolutional.ms")->stats.count,
            2);
  EXPECT_EQ(net.snapshot().find_histogram("net.forward.ms")->stats.count, 1);
}

}  // namespace
}  // namespace tincy::telemetry
