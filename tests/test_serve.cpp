// Concurrency suite for the multi-stream serving layer (src/serve).
// This is the primary TSan target: run it from a -DTINCY_SANITIZE=thread
// build to exercise the scheduler, arbiter and shutdown paths under the
// race detector (see tests/README.md).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/errors.hpp"
#include "core/rng.hpp"
#include "data/image.hpp"
#include "detect/decode.hpp"
#include "detect/nms.hpp"
#include "nn/builder.hpp"
#include "nn/region_layer.hpp"
#include "nn/zoo.hpp"
#include "serve/arbiter.hpp"
#include "serve/demo.hpp"
#include "serve/server.hpp"
#include "video/camera.hpp"
#include "video/sink.hpp"

// ServeStage carries optional batched fields (batch_work, engine_layer)
// with safe defaults; the three-field {name, work, uses_engine} literal
// stays the canonical spelling for plain CPU stages throughout this suite.
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

namespace tincy::serve {
namespace {

video::Frame make_frame(int64_t seq) {
  video::Frame f;
  f.sequence = seq;
  return f;
}

// --- EngineArbiter ---

TEST(EngineArbiter, ExclusiveAndCountsGrants) {
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry);
  arb.add_session(0);
  arb.add_session(1);
  EXPECT_TRUE(arb.try_acquire(0));
  EXPECT_TRUE(arb.busy());
  EXPECT_FALSE(arb.try_acquire(1));  // held -> refused, claim pending
  EXPECT_EQ(arb.pending(), 1);
  arb.release(0);
  EXPECT_FALSE(arb.busy());
  // Session 1 has the pending claim; 0 must yield to it now.
  EXPECT_FALSE(arb.try_acquire(0));
  EXPECT_TRUE(arb.try_acquire(1));
  arb.release(1);
  EXPECT_EQ(arb.grants(), 2);
  EXPECT_EQ(registry.snapshot().counter_value("serve.arbiter.grants"), 2);
}

TEST(EngineArbiter, WeightedRoundRobinShares) {
  // Both sessions permanently contending: a weight-2 session must receive
  // twice the grants of a weight-1 session.
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry);
  arb.add_session(0, /*weight=*/2);
  arb.add_session(1, /*weight=*/1);
  int grants0 = 0, grants1 = 0;
  for (int round = 0; round < 30; ++round) {
    int64_t held;
    if (arb.try_acquire(0)) held = 0;
    else if (arb.try_acquire(1)) held = 1;
    else FAIL() << "engine free but nobody granted";
    // The loser of this round keeps (or registers) its pending claim.
    arb.try_acquire(held == 0 ? 1 : 0);
    (held == 0 ? grants0 : grants1)++;
    arb.release(held);
  }
  EXPECT_NEAR(grants0, 20, 2);
  EXPECT_NEAR(grants1, 10, 2);
}

TEST(EngineArbiter, PriorityTierBeatsWeightAndVtime) {
  // A pending high-tier session always takes the engine before a low-tier
  // one, whatever the weights say.
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry);
  arb.add_session(0, /*weight=*/8, /*priority=*/0);
  arb.add_session(1, /*weight=*/1, /*priority=*/1);
  ASSERT_TRUE(arb.try_acquire(0));
  EXPECT_FALSE(arb.try_acquire(1));  // pending high-tier claim
  arb.release(0);
  for (int round = 0; round < 10; ++round) {
    // As long as the high tier keeps contending, the low tier never wins.
    EXPECT_FALSE(arb.try_acquire(0));
    ASSERT_TRUE(arb.try_acquire(1));
    EXPECT_FALSE(arb.try_acquire(1));  // re-register the claim while held
    arb.release(1);
  }
  // High tier goes idle: the low tier's matured claim is served.
  arb.cancel(1);
  EXPECT_TRUE(arb.try_acquire(0));
  arb.release(0);
}

TEST(EngineArbiter, RemoveSessionWithdrawsPendingClaim) {
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry);
  arb.add_session(0);
  arb.add_session(1);
  ASSERT_TRUE(arb.try_acquire(0));
  EXPECT_FALSE(arb.try_acquire(1));
  EXPECT_EQ(arb.pending(), 1);
  arb.remove_session(1);  // churned away while its claim matures
  EXPECT_EQ(arb.pending(), 0);
  arb.release(0);
  // No stale claim from the removed session blocks the survivor.
  EXPECT_TRUE(arb.try_acquire(0));
  arb.release(0);
  EXPECT_EQ(registry.snapshot().gauge_value("serve.arbiter.queue_depth"), 0);
}

// --- EngineArbiter: gang scheduling (weight-DMA amortization) ---

TEST(EngineArbiter, GangCoalescesSameLayerPeers) {
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry, {.max_batch = 4});
  for (int64_t s = 0; s < 5; ++s) arb.add_session(s);

  // Five sessions ready at layer 7; one grant covers max_batch of them,
  // leader first then ties broken toward the lower id.
  const std::vector<int64_t> candidates{1, 2, 3, 4};
  std::vector<int64_t> gang;
  ASSERT_TRUE(arb.try_acquire_gang(0, /*layer=*/7, candidates, gang));
  EXPECT_EQ(gang, (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(arb.grants(), 1);  // the whole gang is ONE grant
  arb.release(0);

  // The left-out peer leads its own (lone) gang next.
  ASSERT_TRUE(arb.try_acquire_gang(4, /*layer=*/7, {}, gang));
  EXPECT_EQ(gang, std::vector<int64_t>{4});
  arb.release(4);

  const auto snap = registry.snapshot();
  const auto* hist = snap.find_histogram("serve.arbiter.batch_size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->stats.count, 2);    // two grants...
  EXPECT_EQ(hist->stats.sum, 5.0);    // ...covering five frames
  EXPECT_EQ(snap.counter_value("serve.arbiter.grants"), 2);
}

TEST(EngineArbiter, GangPrefersHigherTierPeers) {
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry, {.max_batch = 3});
  arb.add_session(0);
  arb.add_session(1, /*weight=*/1, /*priority=*/0);
  arb.add_session(2, /*weight=*/1, /*priority=*/1);
  arb.add_session(3, /*weight=*/1, /*priority=*/0);
  // Room for two peers: the high-tier session rides first, then the
  // lowest-id equal-vtime peer.
  const std::vector<int64_t> candidates{1, 2, 3};
  std::vector<int64_t> gang;
  ASSERT_TRUE(arb.try_acquire_gang(0, /*layer=*/2, candidates, gang));
  EXPECT_EQ(gang, (std::vector<int64_t>{0, 2, 1}));
  arb.release(0);
}

TEST(EngineArbiter, PendingSameLayerPeerRidesAlongInsteadOfBlocking) {
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry, {.max_batch = 2});
  arb.add_session(0);
  arb.add_session(1);
  std::vector<int64_t> gang;
  ASSERT_TRUE(arb.try_acquire_gang(0, /*layer=*/3, {}, gang));
  EXPECT_FALSE(arb.try_acquire_gang(1, /*layer=*/3, {}, gang));
  arb.release(0);
  // Session 1 now has the stronger claim (smaller vtime): a layer-agnostic
  // re-acquire by 0 must yield to it...
  EXPECT_FALSE(arb.try_acquire(0));
  arb.cancel(0);
  // ...but offering 1 a seat in the gang is at least as good as leading,
  // so the gang grant goes through with the claimant aboard.
  const std::vector<int64_t> candidates{1};
  ASSERT_TRUE(arb.try_acquire_gang(0, /*layer=*/3, candidates, gang));
  EXPECT_EQ(gang, (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(arb.pending(), 0);  // the ganged claim is consumed
  arb.release(0);
}

TEST(EngineArbiter, LingerHoldsPartialBatchThenSettles) {
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry, {.max_batch = 4, .batch_linger_us = 2000});
  arb.add_session(0);
  arb.add_session(1);
  arb.add_session(2);  // outside the gang: lingering is worthwhile
  const std::vector<int64_t> candidates{1};
  std::vector<int64_t> gang;
  // Partial gang (2 of 4) with a third session around: hold off.
  EXPECT_FALSE(arb.try_acquire_gang(0, /*layer=*/5, candidates, gang));
  const auto deadline = arb.linger_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_FALSE(arb.try_acquire_gang(0, /*layer=*/5, candidates, gang));
  EXPECT_FALSE(arb.busy());  // the engine stays free while lingering
  std::this_thread::sleep_until(*deadline + std::chrono::microseconds(100));
  // Deadline passed and nobody else arrived: settle for the partial gang.
  ASSERT_TRUE(arb.try_acquire_gang(0, /*layer=*/5, candidates, gang));
  EXPECT_EQ(gang, (std::vector<int64_t>{0, 1}));
  EXPECT_FALSE(arb.linger_deadline().has_value());
  arb.release(0);
}

TEST(EngineArbiter, LingerSkippedWhenBatchFullOrAllAboard) {
  telemetry::MetricsRegistry registry;
  // Absurdly long linger: any wait would hang the test.
  EngineArbiter arb(&registry, {.max_batch = 2, .batch_linger_us = 5000000});
  arb.add_session(0);
  arb.add_session(1);
  arb.add_session(2);
  std::vector<int64_t> gang;
  // Full batch: granting now cannot get better.
  ASSERT_TRUE(arb.try_acquire_gang(0, /*layer=*/1, std::vector<int64_t>{1},
                                   gang));
  EXPECT_EQ(gang.size(), 2u);
  arb.release(0);
  arb.remove_session(2);
  // Partial batch but every live session is aboard: nobody to wait for.
  EngineArbiter all(&registry, {.max_batch = 8, .batch_linger_us = 5000000});
  all.add_session(0);
  all.add_session(1);
  ASSERT_TRUE(all.try_acquire_gang(0, /*layer=*/1, std::vector<int64_t>{1},
                                   gang));
  EXPECT_EQ(gang.size(), 2u);
  all.release(0);
}

TEST(EngineArbiter, RemovedSessionNeverJoinsGang) {
  // Regression: the server's candidate scan can race a close — the
  // arbiter must skip a candidate whose session was removed between the
  // scan and the gang grant, and the removal must purge the (session,
  // layer) gang-queue entry.
  telemetry::MetricsRegistry registry;
  EngineArbiter arb(&registry, {.max_batch = 4});
  arb.add_session(0);
  arb.add_session(1);
  arb.add_session(2);
  std::vector<int64_t> gang;
  ASSERT_TRUE(arb.try_acquire_gang(0, /*layer=*/9, {}, gang));
  EXPECT_FALSE(arb.try_acquire_gang(1, /*layer=*/9, {}, gang));  // queued at 9
  arb.remove_session(1);  // closed while its gang-queue claim matures
  EXPECT_EQ(arb.pending(), 0);
  arb.release(0);
  // Stale candidate list still naming session 1: it must not be seated.
  const std::vector<int64_t> stale{1, 0};
  ASSERT_TRUE(arb.try_acquire_gang(2, /*layer=*/9, stale, gang));
  EXPECT_EQ(gang, (std::vector<int64_t>{2, 0}));
  arb.release(2);
}

// --- StreamServer: the 4x64 stress test (tier-1, primary TSan target) ---

TEST(StreamServer, FourStreamsPreserveOrderLoseNothing) {
  constexpr int kStreams = 4;
  constexpr int64_t kFrames = 64;

  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 4;
  opts.metrics = &registry;
  StreamServer server(opts);

  // Each stream stamps its frames in three stages (one engine-tagged) and
  // collects delivered sequence numbers.
  std::vector<std::vector<int64_t>> delivered(kStreams);
  std::vector<std::unique_ptr<std::mutex>> sink_mutex;
  for (int i = 0; i < kStreams; ++i)
    sink_mutex.push_back(std::make_unique<std::mutex>());
  std::atomic<int64_t> stamped{0};
  for (int i = 0; i < kStreams; ++i) {
    SessionConfig sc;
    sc.stages = {
        {"tag", [&stamped](video::Frame&) { stamped++; }, false},
        {"engine", [](video::Frame&) {}, true},
        {"finish", [](video::Frame&) {}, false},
    };
    auto* out = &delivered[static_cast<size_t>(i)];
    auto* m = sink_mutex[static_cast<size_t>(i)].get();
    sc.deliver = [out, m](video::Frame&& f) {
      std::lock_guard lock(*m);
      out->push_back(f.sequence);
    };
    sc.queue_capacity = kFrames;  // admit everything: loss would be a bug
    EXPECT_EQ(server.open_session(std::move(sc)), i);
  }
  server.start();

  // Concurrent producers, one per stream.
  std::vector<std::thread> producers;
  for (int i = 0; i < kStreams; ++i) {
    producers.emplace_back([&server, i] {
      for (int64_t seq = 0; seq < kFrames; ++seq)
        ASSERT_EQ(server.submit(i, make_frame(seq)),
                  ServeResult::kAccepted);
    });
  }
  for (auto& t : producers) t.join();
  server.drain();
  server.stop();

  // Per-stream frame order preserved; no frame lost or duplicated.
  for (int i = 0; i < kStreams; ++i) {
    const auto& seqs = delivered[static_cast<size_t>(i)];
    ASSERT_EQ(seqs.size(), static_cast<size_t>(kFrames)) << "stream " << i;
    for (int64_t s = 0; s < kFrames; ++s)
      EXPECT_EQ(seqs[static_cast<size_t>(s)], s) << "stream " << i;
  }
  EXPECT_EQ(stamped.load(), kStreams * kFrames);

  // serve.* counters must sum to the submitted frame count.
  const auto snap = server.snapshot();
  int64_t frames_sum = 0;
  for (int i = 0; i < kStreams; ++i) {
    const std::string base = "serve.session.s" + std::to_string(i) + ".";
    const int64_t n = snap.counter_value(base + "frames");
    EXPECT_EQ(n, kFrames) << base;
    frames_sum += n;
    const auto* lat = snap.find_histogram(base + "latency_ms");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->stats.count, kFrames);
    EXPECT_EQ(snap.counter_value(base + "rejected"), 0);
  }
  EXPECT_EQ(frames_sum, kStreams * kFrames);
  // Every frame crossed the engine stage exactly once.
  EXPECT_EQ(snap.counter_value("serve.arbiter.grants"),
            kStreams * kFrames);
}

// --- Backpressure and graceful rejection ---

/// A frame whose image holds `seq` in every element.
video::Frame make_image_frame(int64_t seq) {
  video::Frame f = make_frame(seq);
  f.image = Tensor(Shape{3, 8, 8}, static_cast<float>(seq));
  return f;
}

TEST(StreamServer, RefusedTrySubmitLeavesTheFrameWithTheCaller) {
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.metrics = &registry;
  StreamServer server(opts);
  std::atomic<bool> release{false};
  SessionConfig sc;
  sc.stages = {{"block", [&release](video::Frame&) {
                  while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                }, false}};
  sc.queue_capacity = 1;
  server.open_session(std::move(sc));
  server.start();

  // Submit until the queue refuses; every refused frame keeps its buffer.
  int64_t seq = 0;
  for (;; ++seq) {
    video::Frame f = make_image_frame(seq);
    const float* buffer = f.image.data();
    const ServeResult r = server.try_submit(0, f);
    if (r == ServeResult::kAccepted) {
      EXPECT_TRUE(f.image.empty()) << "accepted frames move in";
      ASSERT_LT(seq, 100) << "the queue never filled";
      continue;
    }
    ASSERT_EQ(r, ServeResult::kOverloaded);
    EXPECT_EQ(f.sequence, seq);
    EXPECT_EQ(f.image.data(), buffer);
    EXPECT_EQ(f.image, Tensor(Shape{3, 8, 8}, static_cast<float>(seq)));
    break;
  }
  release.store(true);
  server.drain();
  server.stop();
  video::Frame late = make_image_frame(99);
  const float* buffer = late.image.data();
  EXPECT_EQ(server.try_submit(0, late), ServeResult::kClosed);
  EXPECT_EQ(late.image.data(), buffer);
  EXPECT_EQ(late.sequence, 99);
}

TEST(StreamServer, FeedMovesEachFrameInWithoutACopy) {
  // A stage held shut and a one-frame queue make feed() retry on
  // kOverloaded; each delivered image must still be the buffer the source
  // allocated.
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.metrics = &registry;
  StreamServer server(opts);
  std::atomic<bool> release{false};
  std::mutex mu;
  std::vector<const float*> created, delivered;
  SessionConfig sc;
  sc.stages = {{"gated", [&](video::Frame& f) {
                  while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                  std::lock_guard lock(mu);
                  delivered.push_back(f.image.data());
                }, false}};
  sc.queue_capacity = 1;
  server.open_session(std::move(sc));
  server.start();
  int64_t next = 0;
  const std::function<video::Frame()> source = [&] {
    video::Frame f = make_image_frame(next++);
    std::lock_guard lock(mu);
    created.push_back(f.image.data());
    return f;
  };
  std::thread feeder([&] { feed(server, std::span(&source, 1), 12); });
  while (server.rejected(0) == 0)  // a held frame was refused at least once
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  release.store(true);
  feeder.join();
  server.drain();
  server.stop();
  std::lock_guard lock(mu);
  EXPECT_EQ(delivered, created);
}

TEST(StreamServer, OverloadRejectsInsteadOfBlocking) {
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.metrics = &registry;
  StreamServer server(opts);

  // A stage that blocks until released, so the queue genuinely fills.
  std::atomic<bool> release{false};
  SessionConfig sc;
  sc.stages = {{"block", [&release](video::Frame&) {
                  while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                }, false}};
  sc.queue_capacity = 2;
  server.open_session(std::move(sc));
  server.start();

  // First submit is consumed by the worker; then the queue (capacity 2)
  // fills; further submissions are shed, not blocked.
  int accepted = 0, overloaded = 0;
  for (int i = 0; i < 10; ++i) {
    const auto r = server.submit(0, make_frame(i));
    if (r == ServeResult::kAccepted) ++accepted;
    if (r == ServeResult::kOverloaded) ++overloaded;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(accepted, 3);            // 1 in flight + 2 queued
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(accepted + overloaded, 10);
  EXPECT_EQ(server.rejected(0), overloaded);
  release.store(true);
  server.drain();
  EXPECT_EQ(server.delivered(0), accepted);
  server.stop();
  EXPECT_EQ(server.submit(0, make_frame(99)), ServeResult::kClosed);
  EXPECT_EQ(server.snapshot().counter_value("serve.session.s0.rejected"),
            overloaded);
}

// --- Shutdown: stop() mid-stream never loses the handoff ---

TEST(StreamServer, StopMidStreamIsClean) {
  for (int iter = 0; iter < 20; ++iter) {
    telemetry::MetricsRegistry registry;
    ServerOptions opts;
    opts.num_workers = 3;
    opts.metrics = &registry;
    StreamServer server(opts);
    std::vector<std::vector<int64_t>> delivered(2);
    std::mutex m;
    for (int i = 0; i < 2; ++i) {
      SessionConfig sc;
      sc.stages = {{"a", [](video::Frame&) {
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(200));
                    }, false},
                   {"engine", [](video::Frame&) {}, true}};
      auto* out = &delivered[static_cast<size_t>(i)];
      sc.deliver = [out, &m](video::Frame&& f) {
        std::lock_guard lock(m);
        out->push_back(f.sequence);
      };
      sc.queue_capacity = 64;
      server.open_session(std::move(sc));
    }
    server.start();
    std::thread producer([&server] {
      for (int64_t seq = 0; seq < 64; ++seq)
        for (int i = 0; i < 2; ++i)
          if (server.submit(i, make_frame(seq)) == ServeResult::kClosed)
            return;
    });
    std::this_thread::sleep_for(std::chrono::microseconds(300 + 137 * iter));
    server.stop();
    producer.join();
    // Whatever arrived is an in-order prefix per stream.
    for (const auto& seqs : delivered)
      for (size_t s = 0; s < seqs.size(); ++s)
        EXPECT_EQ(seqs[s], static_cast<int64_t>(s));
  }
}

// --- Configuration validation ---

TEST(StreamServer, RejectsInvalidConfiguration) {
  // Worker counts outside [1, kMaxWorkers] are refused before any thread
  // is spawned.
  for (const int workers : {0, kMaxWorkers + 1, INT_MAX}) {
    ServerOptions o;
    o.num_workers = workers;
    EXPECT_THROW(StreamServer{o}, Error) << workers;
  }
  {
    ServerOptions o;
    o.degrade_at = 0.0;
    EXPECT_THROW(StreamServer{o}, Error);
  }
  {
    ServerOptions o;
    o.degrade_at = 1.5;
    EXPECT_THROW(StreamServer{o}, Error);
  }

  StreamServer server;
  const auto stage = ServeStage{"noop", [](video::Frame&) {}, false};
  {
    SessionConfig sc;  // no stages
    EXPECT_THROW(server.open_session(std::move(sc)), Error);
  }
  {
    SessionConfig sc;
    sc.stages = {stage};
    sc.queue_capacity = 0;
    EXPECT_THROW(server.open_session(std::move(sc)), Error);
  }
  {
    SessionConfig sc;
    sc.stages = {stage};
    sc.queue_capacity = -4;
    EXPECT_THROW(server.open_session(std::move(sc)), Error);
  }
  {
    SessionConfig sc;
    sc.stages = {stage};
    sc.weight = 0;
    EXPECT_THROW(server.open_session(std::move(sc)), Error);
  }
  {
    SessionConfig sc;
    sc.stages = {stage};
    sc.priority = -1;
    EXPECT_THROW(server.open_session(std::move(sc)), Error);
  }
}

// --- Churn: close mid-frame, submit-after-close, open while running ---

TEST(StreamServer, CloseMidStreamDropsQueuedDeliversInFlight) {
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.metrics = &registry;
  StreamServer server(opts);

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::vector<int64_t> delivered;
  std::mutex m;
  SessionConfig sc;
  sc.stages = {{"block", [&](video::Frame&) {
                  entered.store(true);
                  while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                }, false}};
  sc.deliver = [&](video::Frame&& f) {
    std::lock_guard lock(m);
    delivered.push_back(f.sequence);
  };
  sc.queue_capacity = 8;
  server.open_session(std::move(sc));
  server.start();

  // Frame 0 enters the stage and blocks there; 1..4 pile up in the queue.
  ASSERT_EQ(server.submit(0, make_frame(0)), ServeResult::kAccepted);
  while (!entered.load())
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  for (int64_t seq = 1; seq <= 4; ++seq)
    ASSERT_EQ(server.submit(0, make_frame(seq)), ServeResult::kAccepted);

  server.close_session(0);
  EXPECT_TRUE(server.closed(0));
  server.close_session(0);  // idempotent
  EXPECT_EQ(server.submit(0, make_frame(99)), ServeResult::kClosed);

  release.store(true);
  server.drain();  // in-flight frame 0 delivers; 1..4 were dropped
  server.stop();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 0);
  EXPECT_EQ(server.delivered(0), 1);
  EXPECT_EQ(server.discarded(0), 4);
  // Retired after its in-flight frame: the session's own metrics are
  // gone, its counts live on in the server-level totals.
  const auto snap = server.snapshot();
  EXPECT_EQ(snap.find_counter("serve.session.s0.frames"), nullptr);
  EXPECT_EQ(snap.counter_value("serve.closed.sessions"), 1);
  EXPECT_EQ(snap.counter_value("serve.closed.frames"), 1);
  EXPECT_EQ(snap.counter_value("serve.closed.dropped"), 4);
}

TEST(StreamServer, ClosedSessionMetricsGoOnceTheLastSharerRetires) {
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 2;
  opts.metrics = &registry;
  StreamServer server(opts);
  auto config = [](const std::string& name) {
    SessionConfig sc;
    sc.name = name;
    sc.stages = {{"work", [](video::Frame&) {}, false}};
    sc.deliver = [](video::Frame&&) {};
    return sc;
  };
  // Two sessions share the name "cam" (and so their metric objects); a
  // '.' in a name becomes '_', so "cam.hd" cannot fall under "cam.".
  const int64_t a = server.open_session(config("cam"));
  const int64_t b = server.open_session(config("cam"));
  const int64_t c = server.open_session(config("cam.hd"));
  server.start();
  for (const int64_t id : {a, b, c})
    for (int64_t seq = 0; seq < 3; ++seq)
      ASSERT_EQ(server.submit(id, make_frame(seq)), ServeResult::kAccepted);
  server.drain();
  auto has = [&](const std::string& name) {
    return registry.snapshot().find_counter(name) != nullptr;
  };
  ASSERT_TRUE(has("serve.session.cam_hd.frames"));

  server.close_session(a);  // "cam" is still live through b
  EXPECT_TRUE(has("serve.session.cam.frames"));
  EXPECT_EQ(registry.snapshot().counter_value("serve.closed.sessions"), 0);
  server.close_session(c);
  EXPECT_FALSE(has("serve.session.cam_hd.frames"));
  EXPECT_FALSE(has("serve.session.cam_hd.stage.work.jobs"));
  EXPECT_TRUE(has("serve.session.cam.frames"));
  server.close_session(b);
  EXPECT_FALSE(has("serve.session.cam.frames"));
  EXPECT_TRUE(registry.snapshot("serve.session.").histograms.empty());
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("serve.closed.sessions"), 3);
  EXPECT_EQ(snap.counter_value("serve.closed.frames"), 9);
  EXPECT_GT(snap.gauge_value("serve.closed.latency_p99_max_ms"), 0.0);
  EXPECT_EQ(server.delivered(a) + server.delivered(b), 6);
  EXPECT_EQ(server.rejected(a), 0);
  // Closed and drained, all three were released; their ids still answer.
  EXPECT_EQ(server.held_sessions(), 0);
  EXPECT_EQ(server.num_sessions(), 3);
  EXPECT_TRUE(server.closed(c));
  EXPECT_EQ(server.delivered(c), 3);
  EXPECT_EQ(server.discarded(c), 0);
  server.stop();

  // Released sessions stay closed across a restart, which zeroes the
  // closed totals; a new session under an old name gets fresh metrics.
  const int64_t d = server.open_session(config("cam"));
  EXPECT_EQ(d, 3);  // ids are never reused
  server.start();
  EXPECT_EQ(server.submit(a, make_frame(0)), ServeResult::kClosed);
  ASSERT_EQ(server.submit(d, make_frame(0)), ServeResult::kAccepted);
  server.drain();
  server.stop();
  const auto reopened = registry.snapshot();
  EXPECT_EQ(reopened.counter_value("serve.session.cam.frames"), 1);
  EXPECT_EQ(reopened.find_counter("serve.session.cam_hd.frames"), nullptr);
  EXPECT_EQ(reopened.counter_value("serve.closed.sessions"), 0);
  EXPECT_EQ(server.held_sessions(), 1);
}

TEST(StreamServer, OpenSessionWhileRunningServesNewStream) {
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 2;
  opts.metrics = &registry;
  StreamServer server(opts);

  std::vector<std::vector<int64_t>> delivered(2);
  std::vector<std::unique_ptr<std::mutex>> m;
  for (int i = 0; i < 2; ++i) m.push_back(std::make_unique<std::mutex>());
  auto make_config = [&](int i) {
    SessionConfig sc;
    sc.stages = {{"work", [](video::Frame&) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                  }, false}};
    auto* out = &delivered[static_cast<size_t>(i)];
    auto* mu = m[static_cast<size_t>(i)].get();
    sc.deliver = [out, mu](video::Frame&& f) {
      std::lock_guard lock(*mu);
      out->push_back(f.sequence);
    };
    sc.queue_capacity = 16;
    return sc;
  };

  ASSERT_EQ(server.open_session(make_config(0)), 0);
  server.start();
  for (int64_t seq = 0; seq < 4; ++seq)
    ASSERT_EQ(server.submit(0, make_frame(seq)), ServeResult::kAccepted);

  // The join-mid-serve path: a second stream appears on a live server.
  ASSERT_EQ(server.open_session(make_config(1)), 1);
  EXPECT_EQ(server.num_sessions(), 2);
  for (int64_t seq = 0; seq < 4; ++seq) {
    ASSERT_EQ(server.submit(1, make_frame(seq)), ServeResult::kAccepted);
    ASSERT_EQ(server.submit(0, make_frame(4 + seq)), ServeResult::kAccepted);
  }
  server.drain();
  server.stop();

  ASSERT_EQ(delivered[0].size(), 8u);
  ASSERT_EQ(delivered[1].size(), 4u);
  for (size_t s = 0; s < delivered[0].size(); ++s)
    EXPECT_EQ(delivered[0][s], static_cast<int64_t>(s));
  for (size_t s = 0; s < delivered[1].size(); ++s)
    EXPECT_EQ(delivered[1][s], static_cast<int64_t>(s));
}

// --- Fault injection: a poisoned stage quarantines only its session ---

TEST(StreamServer, FaultQuarantinesOnlyThePoisonedSession) {
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 2;
  opts.metrics = &registry;
  StreamServer server(opts);

  std::vector<int64_t> healthy_out;
  std::mutex m;
  {
    SessionConfig sc;  // session 0: healthy
    sc.stages = {{"work", [](video::Frame&) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                  }, false}};
    sc.deliver = [&](video::Frame&& f) {
      std::lock_guard lock(m);
      healthy_out.push_back(f.sequence);
    };
    sc.queue_capacity = 32;
    server.open_session(std::move(sc));
  }
  {
    SessionConfig sc;  // session 1: throws on its third frame
    auto count = std::make_shared<std::atomic<int64_t>>(0);
    sc.stages = {{"poison", [count](video::Frame&) {
                    if (count->fetch_add(1) + 1 == 3)
                      throw std::runtime_error("injected: boom");
                  }, false}};
    sc.queue_capacity = 32;
    server.open_session(std::move(sc));
  }
  server.start();

  int64_t poisoned_accepted = 0;
  for (int64_t seq = 0; seq < 12; ++seq) {
    ASSERT_EQ(server.submit(0, make_frame(seq)), ServeResult::kAccepted);
    const auto r = server.submit(1, make_frame(seq));
    if (r == ServeResult::kAccepted) ++poisoned_accepted;
    else EXPECT_EQ(r, ServeResult::kQuarantined);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  server.drain();

  EXPECT_FALSE(server.quarantined(0));
  EXPECT_TRUE(server.quarantined(1));
  EXPECT_NE(server.fault_message(1).find("boom"), std::string::npos);
  EXPECT_EQ(server.submit(1, make_frame(99)), ServeResult::kQuarantined);

  // The healthy session keeps serving after the fault.
  for (int64_t seq = 12; seq < 16; ++seq)
    ASSERT_EQ(server.submit(0, make_frame(seq)), ServeResult::kAccepted);
  server.drain();
  server.stop();

  ASSERT_EQ(healthy_out.size(), 16u);
  for (size_t s = 0; s < healthy_out.size(); ++s)
    EXPECT_EQ(healthy_out[s], static_cast<int64_t>(s));

  const auto snap = server.snapshot();
  EXPECT_EQ(snap.counter_value("serve.session.s0.faults"), 0);
  EXPECT_EQ(snap.gauge_value("serve.session.s0.quarantined"), 0.0);
  EXPECT_EQ(snap.counter_value("serve.session.s1.faults"), 1);
  EXPECT_EQ(snap.gauge_value("serve.session.s1.quarantined"), 1.0);
  // Every admitted poisoned-session frame is accounted: the two delivered
  // before the fault plus everything discarded at the poison point.
  EXPECT_EQ(snap.counter_value("serve.session.s1.frames") +
                snap.counter_value("serve.session.s1.dropped"),
            poisoned_accepted);
  EXPECT_EQ(snap.counter_value("serve.session.s1.frames"), 2);
}

// --- Overload policies beyond blanket rejection ---

TEST(StreamServer, ShedOldestAdmitsFreshFrames) {
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.overload_policy = OverloadPolicy::kShedOldest;
  opts.metrics = &registry;
  StreamServer server(opts);

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::vector<int64_t> delivered;
  std::mutex m;
  SessionConfig sc;
  sc.stages = {{"block", [&](video::Frame&) {
                  entered.store(true);
                  while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                }, false}};
  sc.deliver = [&](video::Frame&& f) {
    std::lock_guard lock(m);
    delivered.push_back(f.sequence);
  };
  sc.queue_capacity = 2;
  server.open_session(std::move(sc));
  server.start();

  // Frame 0 blocks in the stage; 1 and 2 fill the queue; 3 and 4 shed the
  // two stalest queued frames instead of bouncing.
  ASSERT_EQ(server.submit(0, make_frame(0)), ServeResult::kAccepted);
  while (!entered.load())
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  for (int64_t seq = 1; seq <= 4; ++seq)
    ASSERT_EQ(server.submit(0, make_frame(seq)), ServeResult::kAccepted);

  release.store(true);
  server.drain();
  server.stop();

  // In-flight frame 0, then the two freshest; order still monotone.
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[0], 0);
  EXPECT_EQ(delivered[1], 3);
  EXPECT_EQ(delivered[2], 4);
  const auto snap = server.snapshot();
  EXPECT_EQ(snap.counter_value("serve.session.s0.shed"), 2);
  EXPECT_EQ(snap.counter_value("serve.session.s0.rejected"), 0);
}

TEST(StreamServer, DegradePolicyMarksPressuredAdmissions) {
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.overload_policy = OverloadPolicy::kDegrade;
  opts.degrade_at = 0.5;
  opts.metrics = &registry;
  StreamServer server(opts);

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::vector<int64_t> degraded;  // only the submitting thread touches it
  SessionConfig sc;
  sc.stages = {{"block", [&](video::Frame&) {
                  entered.store(true);
                  while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                }, false}};
  sc.degrade = [&degraded](video::Frame& f) {
    degraded.push_back(f.sequence);
  };
  sc.queue_capacity = 4;
  server.open_session(std::move(sc));
  server.start();

  // Frame 0 blocks in the stage. Queue depth at admission: 1 -> 0, 2 -> 1,
  // 3 -> 2 (pressure mark ceil(0.5 * 4) = 2: degraded), 4 -> 3 (degraded),
  // 5 -> full: kDegrade still rejects at the hard limit.
  ASSERT_EQ(server.submit(0, make_frame(0)), ServeResult::kAccepted);
  while (!entered.load())
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  for (int64_t seq = 1; seq <= 4; ++seq)
    ASSERT_EQ(server.submit(0, make_frame(seq)), ServeResult::kAccepted);
  EXPECT_EQ(server.submit(0, make_frame(5)), ServeResult::kOverloaded);

  release.store(true);
  server.drain();
  server.stop();

  ASSERT_EQ(degraded.size(), 2u);
  EXPECT_EQ(degraded[0], 3);
  EXPECT_EQ(degraded[1], 4);
  const auto snap = server.snapshot();
  EXPECT_EQ(snap.counter_value("serve.session.s0.degraded"), 2);
  EXPECT_EQ(snap.counter_value("serve.session.s0.rejected"), 1);
  EXPECT_EQ(snap.counter_value("serve.session.s0.frames"), 5);
}

// --- Golden determinism: a server session == the stages run serially ---

struct FrameRecord {
  int64_t sequence;
  std::vector<detect::Detection> detections;
};

/// The serial oracle: the same demo stage list applied in order, frame by
/// frame, on the calling thread.
std::vector<FrameRecord> run_serial_stages(uint64_t camera_seed,
                                           int64_t frames) {
  telemetry::MetricsRegistry registry;
  auto net = nn::build_network_from_string(
      nn::zoo::tiny_yolo_cfg(nn::zoo::TinyVariant::kTincy,
                             nn::zoo::QuantMode::kFloat, 64,
                             nn::zoo::CpuProfile::kFused),
      &registry);
  Rng rng(11);
  nn::zoo::randomize(*net, rng);
  video::SyntheticCamera camera({.width = 96, .height = 64,
                                 .seed = camera_seed});
  const auto stages =
      make_demo_stages(*net, DemoConfig{}, EnginePolicy::kHiddenLayers);
  std::vector<FrameRecord> out;
  for (int64_t i = 0; i < frames; ++i) {
    video::Frame f = camera.read_frame();
    for (const auto& st : stages) st.work(f);
    out.push_back({f.sequence, std::move(f.detections)});
  }
  return out;
}

std::vector<FrameRecord> run_serving_session(uint64_t camera_seed,
                                             int64_t frames) {
  telemetry::MetricsRegistry registry;
  auto net = nn::build_network_from_string(
      nn::zoo::tiny_yolo_cfg(nn::zoo::TinyVariant::kTincy,
                             nn::zoo::QuantMode::kFloat, 64,
                             nn::zoo::CpuProfile::kFused),
      &registry);
  Rng rng(11);  // identical weights to the reference
  nn::zoo::randomize(*net, rng);
  video::SyntheticCamera camera({.width = 96, .height = 64,
                                 .seed = camera_seed});
  ServerOptions opts;
  opts.num_workers = 2;
  opts.metrics = &registry;
  StreamServer server(opts);
  std::vector<FrameRecord> out;
  std::mutex m;
  SessionConfig sc;
  sc.stages =
      make_demo_stages(*net, DemoConfig{}, EnginePolicy::kHiddenLayers);
  sc.deliver = [&out, &m](video::Frame&& f) {
    std::lock_guard lock(m);
    out.push_back({f.sequence, std::move(f.detections)});
  };
  sc.queue_capacity = frames;
  server.open_session(std::move(sc));
  server.start();
  for (int64_t i = 0; i < frames; ++i)
    EXPECT_EQ(server.submit(0, camera.read_frame()),
              ServeResult::kAccepted);
  server.drain();
  server.stop();
  return out;
}

void expect_bit_identical(const std::vector<FrameRecord>& ref,
                          const std::vector<FrameRecord>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (size_t f = 0; f < ref.size(); ++f) {
    EXPECT_EQ(ref[f].sequence, got[f].sequence);
    ASSERT_EQ(ref[f].detections.size(), got[f].detections.size())
        << "frame " << f;
    for (size_t d = 0; d < ref[f].detections.size(); ++d) {
      const auto& a = ref[f].detections[d];
      const auto& b = got[f].detections[d];
      EXPECT_EQ(a.class_id, b.class_id);
      // Bit-identical: the serving layer must not perturb the math.
      EXPECT_EQ(a.objectness, b.objectness);
      EXPECT_EQ(a.class_prob, b.class_prob);
      EXPECT_EQ(a.box.x, b.box.x);
      EXPECT_EQ(a.box.y, b.box.y);
      EXPECT_EQ(a.box.w, b.box.w);
      EXPECT_EQ(a.box.h, b.box.h);
    }
  }
}

TEST(StreamServer, GoldenMatchesSingleStreamPipeline) {
  constexpr int64_t kFrames = 8;
  const auto ref = run_serial_stages(29, kFrames);
  const auto got = run_serving_session(29, kFrames);
  ASSERT_EQ(ref.size(), static_cast<size_t>(kFrames));
  expect_bit_identical(ref, got);
}

// The demo's layer stages are Network::forward's per-layer step on the
// frame's own state: on the real W1A3 network a session delivers exactly
// what a per-frame forward + decode + NMS finds, and the hidden stages
// hand each other codes, with no float buffer made at a code boundary.
TEST(StreamServer, W1A3DemoSessionMatchesPerFrameForward) {
  constexpr int64_t kFrames = 8;
  telemetry::MetricsRegistry registry;
  auto net = nn::build_network_from_string(
      nn::zoo::tiny_yolo_cfg(nn::zoo::TinyVariant::kTincy,
                             nn::zoo::QuantMode::kW1A3, 64,
                             nn::zoo::CpuProfile::kOptimized),
      &registry);
  Rng rng(11);
  nn::zoo::randomize(*net, rng);
  DemoConfig cfg;
  cfg.detect_threshold = 0.05f;
  const auto& region =
      dynamic_cast<const nn::RegionLayer&>(net->layer(net->num_layers() - 1));

  std::vector<FrameRecord> ref;
  video::SyntheticCamera ref_camera({.width = 96, .height = 64, .seed = 29});
  size_t boxes = 0;
  for (int64_t i = 0; i < kFrames; ++i) {
    const video::Frame f = ref_camera.read_frame();
    auto dets = detect::nms(
        detect::decode_region(net->forward(data::letterbox(f.image, 64)),
                              region.config(), cfg.detect_threshold),
        cfg.nms_iou);
    for (auto& d : dets)
      data::unletterbox_box(d.box.x, d.box.y, d.box.w, d.box.h,
                            f.image.shape().width(), f.image.shape().height(),
                            64);
    boxes += dets.size();
    ref.push_back({f.sequence, std::move(dets)});
  }
  ASSERT_GT(boxes, 0u) << "no detections to compare";

  ServerOptions opts;
  opts.num_workers = 2;
  opts.metrics = &registry;
  StreamServer server(opts);
  std::vector<FrameRecord> got;
  std::mutex m;
  int64_t float_buffers_at_code_boundaries = 0, code_boundaries = 0,
          fused_convs = 0;
  SessionConfig sc;
  sc.stages = make_demo_stages(*net, cfg, EnginePolicy::kNone);
  sc.deliver = [&](video::Frame&& f) {
    std::lock_guard lock(m);
    for (int64_t i = 0; i < net->num_layers(); ++i) {
      if (!net->plan()[static_cast<size_t>(i)]) continue;
      ++code_boundaries;
      // A conv that ran its pool wrote the pool's codes, not its own.
      fused_convs += net->fuses_pool(i);
      EXPECT_EQ(f.state.has_codes(i), !net->fuses_pool(i)) << "layer " << i;
      float_buffers_at_code_boundaries += f.state.has_floats(i);
    }
    got.push_back({f.sequence, std::move(f.detections)});
  };
  sc.queue_capacity = kFrames;
  server.open_session(std::move(sc));
  server.start();
  video::SyntheticCamera camera({.width = 96, .height = 64, .seed = 29});
  for (int64_t i = 0; i < kFrames; ++i)
    EXPECT_EQ(server.submit(0, camera.read_frame()), ServeResult::kAccepted);
  server.drain();
  server.stop();

  expect_bit_identical(ref, got);
  // L0 through L12 hand codes on zoo:tincy-w1a3 (HandoffPlan.TincyW1A3).
  EXPECT_EQ(code_boundaries, 13 * kFrames);
  // L1 … L9 each run the pool after them (L2 … L10).
  EXPECT_EQ(fused_convs, 5 * kFrames);
  EXPECT_EQ(float_buffers_at_code_boundaries, 0);
}

TEST(DemoRun, OneSessionDeliversInOrderAndCountsEveryStage) {
  telemetry::MetricsRegistry registry;
  auto net = nn::build_network_from_string(
      nn::zoo::tiny_yolo_cfg(nn::zoo::TinyVariant::kTincy,
                             nn::zoo::QuantMode::kFloat, 64,
                             nn::zoo::CpuProfile::kFused),
      &registry);
  Rng rng(11);
  nn::zoo::randomize(*net, rng);
  video::SyntheticCamera camera({.width = 96, .height = 64, .seed = 3});
  DemoConfig cfg;
  cfg.num_workers = 2;
  cfg.metrics = &registry;
  EXPECT_THROW(run_demo(camera, *net, 0, {}, cfg), Error);

  video::OrderCheckingSink sink;
  const auto snap = run_demo(
      camera, *net, 6, [&sink](video::Frame&& f) { sink.push(f); }, cfg);
  EXPECT_TRUE(sink.in_order());
  EXPECT_EQ(sink.frames_received(), 6);
  EXPECT_EQ(snap.counter_value("serve.session.demo.frames"), 6);
  for (const auto& st :
       make_demo_stages(*net, cfg, EnginePolicy::kNone)) {
    const std::string prefix =
        "serve.session.demo.stage." + metric_label(st.name) + ".";
    EXPECT_EQ(snap.counter_value(prefix + "jobs"), 6) << prefix;
    const auto* busy = snap.find_histogram(prefix + "busy_ms");
    ASSERT_NE(busy, nullptr) << prefix;
    EXPECT_EQ(busy->stats.count, 6) << prefix;
  }
}

// The soak-grade variant: the golden session shares the server with a
// high-priority decoy that churns away mid-run and a poisoned decoy that
// joins live and quarantines itself. None of that — priority reordering
// at the engine, close-mid-stream drops, fault handling — may perturb the
// golden session's outputs by a single bit.
std::vector<FrameRecord> run_churny_serving_session(uint64_t camera_seed,
                                                    int64_t frames) {
  telemetry::MetricsRegistry registry;
  auto net = nn::build_network_from_string(
      nn::zoo::tiny_yolo_cfg(nn::zoo::TinyVariant::kTincy,
                             nn::zoo::QuantMode::kFloat, 64,
                             nn::zoo::CpuProfile::kFused),
      &registry);
  Rng rng(11);  // identical weights to the reference
  nn::zoo::randomize(*net, rng);
  video::SyntheticCamera camera({.width = 96, .height = 64,
                                 .seed = camera_seed});
  ServerOptions opts;
  opts.num_workers = 2;
  opts.metrics = &registry;
  StreamServer server(opts);
  std::vector<FrameRecord> out;
  std::mutex m;
  SessionConfig golden;
  golden.name = "golden";
  golden.stages =
      make_demo_stages(*net, DemoConfig{}, EnginePolicy::kHiddenLayers);
  golden.deliver = [&out, &m](video::Frame&& f) {
    std::lock_guard lock(m);
    out.push_back({f.sequence, std::move(f.detections)});
  };
  golden.queue_capacity = frames;
  const int64_t golden_id = server.open_session(std::move(golden));

  SessionConfig decoy;  // outranks the golden session at the engine
  decoy.name = "decoy";
  decoy.priority = 1;
  decoy.weight = 2;
  decoy.stages = {{"spin", [](video::Frame&) {
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(80));
                   }, false},
                  {"engine", [](video::Frame&) {
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(40));
                   }, true}};
  decoy.queue_capacity = 16;
  const int64_t decoy_id = server.open_session(std::move(decoy));
  server.start();

  int64_t poison_id = -1;
  for (int64_t i = 0; i < frames; ++i) {
    EXPECT_EQ(server.submit(golden_id, camera.read_frame()),
              ServeResult::kAccepted);
    if (i < 5) server.submit(decoy_id, make_frame(i));
    if (i == 2) {
      SessionConfig poison;  // joins live, faults on its second frame
      poison.name = "poison";
      auto count = std::make_shared<std::atomic<int64_t>>(0);
      poison.stages = {{"boom", [count](video::Frame&) {
                          if (count->fetch_add(1) + 1 == 2)
                            throw std::runtime_error("injected fault");
                        }, false}};
      poison.queue_capacity = 16;
      poison_id = server.open_session(std::move(poison));
      for (int64_t p = 0; p < 4; ++p)
        server.submit(poison_id, make_frame(p));
    }
    if (i == 5) server.close_session(decoy_id);  // leave mid-stream
  }
  server.drain();
  server.stop();
  EXPECT_TRUE(server.closed(decoy_id));
  EXPECT_TRUE(server.quarantined(poison_id));
  EXPECT_FALSE(server.quarantined(golden_id));
  return out;
}

TEST(StreamServer, GoldenSoakChurnDoesNotPerturbResults) {
  constexpr int64_t kFrames = 8;
  const auto ref = run_serial_stages(29, kFrames);
  const auto got = run_churny_serving_session(29, kFrames);
  ASSERT_EQ(ref.size(), static_cast<size_t>(kFrames));
  expect_bit_identical(ref, got);
}

// --- StreamServer: gang-scheduled engine stages ---

/// An engine stage all sessions share: batch_work stamps every ganged
/// frame deterministically (sequence-derived, independent of who else is
/// in the gang) and tallies the observed batch sizes.
ServeStage gang_engine_stage(std::atomic<int64_t>* frames,
                             std::atomic<int64_t>* passes,
                             std::atomic<int64_t>* largest) {
  ServeStage stage;
  stage.name = "engine";
  stage.uses_engine = true;
  stage.engine_layer = 0;
  stage.batch_work = [frames, passes,
                      largest](std::span<video::Frame* const> gang) {
    passes->fetch_add(1);
    frames->fetch_add(static_cast<int64_t>(gang.size()));
    int64_t seen = largest->load();
    while (seen < static_cast<int64_t>(gang.size()) &&
           !largest->compare_exchange_weak(seen,
                                           static_cast<int64_t>(gang.size())))
      ;
    for (video::Frame* f : gang) {
      f->features = Tensor(Shape{1});
      f->features[0] = static_cast<float>(1000 + f->sequence);
    }
    // One weight stream for the whole gang, then per-frame compute.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  return stage;
}

TEST(StreamServer, GangBatchesSameLayerFramesAcrossSessions) {
  constexpr int kStreams = 4;
  constexpr int64_t kFrames = 24;
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 2 * kStreams;
  opts.metrics = &registry;
  opts.arbiter = {.max_batch = kStreams, .batch_linger_us = 2000};
  StreamServer server(opts);

  std::atomic<int64_t> engine_frames{0}, engine_passes{0}, largest_gang{0};
  std::vector<std::vector<int64_t>> delivered(kStreams);
  std::vector<std::unique_ptr<std::mutex>> sink_mutex;
  for (int i = 0; i < kStreams; ++i)
    sink_mutex.push_back(std::make_unique<std::mutex>());
  for (int i = 0; i < kStreams; ++i) {
    SessionConfig sc;
    sc.stages.push_back({"pre", [](video::Frame&) {
                           std::this_thread::sleep_for(
                               std::chrono::microseconds(100));
                         }, false});
    sc.stages.push_back(
        gang_engine_stage(&engine_frames, &engine_passes, &largest_gang));
    auto* out = &delivered[static_cast<size_t>(i)];
    auto* m = sink_mutex[static_cast<size_t>(i)].get();
    sc.deliver = [out, m](video::Frame&& f) {
      // The batched stamp must be deterministic per frame, whatever gang
      // it rode in.
      ASSERT_EQ(f.features.numel(), 1);
      EXPECT_EQ(f.features[0], static_cast<float>(1000 + f.sequence));
      std::lock_guard lock(*m);
      out->push_back(f.sequence);
    };
    sc.queue_capacity = kFrames;
    server.open_session(std::move(sc));
  }
  server.start();
  std::vector<std::thread> producers;
  for (int i = 0; i < kStreams; ++i) {
    producers.emplace_back([&server, i] {
      for (int64_t seq = 0; seq < kFrames; ++seq)
        ASSERT_EQ(server.submit(i, make_frame(seq)), ServeResult::kAccepted);
    });
  }
  for (auto& t : producers) t.join();
  server.drain();
  server.stop();

  // Nothing lost, order preserved, per stream.
  for (int i = 0; i < kStreams; ++i) {
    const auto& seqs = delivered[static_cast<size_t>(i)];
    ASSERT_EQ(seqs.size(), static_cast<size_t>(kFrames)) << "stream " << i;
    for (int64_t s = 0; s < kFrames; ++s)
      EXPECT_EQ(seqs[static_cast<size_t>(s)], s) << "stream " << i;
  }
  // Every frame crossed the engine exactly once, and coalescing actually
  // happened: fewer passes than frames, some gang bigger than one frame.
  EXPECT_EQ(engine_frames.load(), kStreams * kFrames);
  EXPECT_LT(engine_passes.load(), kStreams * kFrames);
  EXPECT_GT(largest_gang.load(), 1);
  // Arbiter accounting: grants == passes, histogram sums the gang sizes.
  const auto snap = server.snapshot();
  EXPECT_EQ(snap.counter_value("serve.arbiter.grants"), engine_passes.load());
  const auto* hist = snap.find_histogram("serve.arbiter.batch_size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->stats.count, engine_passes.load());
  EXPECT_EQ(static_cast<int64_t>(hist->stats.sum), engine_frames.load());
}

TEST(StreamServer, GangFaultQuarantinesEveryMember) {
  // A batch_work that throws poisons the whole gang: all member frames
  // were in the same engine pass.
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 4;
  opts.metrics = &registry;
  opts.arbiter = {.max_batch = 2, .batch_linger_us = 20000};
  StreamServer server(opts);
  std::atomic<int64_t> delivered{0};
  // No engine pass runs before every submit has returned: a gang that
  // faulted earlier would quarantine its sessions, and the later submits
  // would be refused.
  std::latch submitted(1);
  for (int i = 0; i < 2; ++i) {
    SessionConfig sc;
    ServeStage stage;
    stage.name = "engine";
    stage.uses_engine = true;
    stage.engine_layer = 0;
    stage.batch_work = [&submitted](std::span<video::Frame* const> gang) {
      submitted.wait();
      if (gang.size() > 1) throw std::runtime_error("gang fault");
      // Lone frames pass: the sessions only fault when actually ganged.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    };
    sc.stages.push_back(std::move(stage));
    sc.deliver = [&delivered](video::Frame&&) { delivered++; };
    sc.queue_capacity = 8;
    server.open_session(std::move(sc));
  }
  server.start();
  std::vector<ServeResult> results;
  for (int64_t seq = 0; seq < 4; ++seq) {
    results.push_back(server.submit(0, make_frame(seq)));
    results.push_back(server.submit(1, make_frame(seq)));
  }
  submitted.count_down();
  for (const ServeResult r : results) ASSERT_EQ(r, ServeResult::kAccepted);
  server.drain();
  server.stop();
  // Either some lone grants went through first or the very first pass was
  // ganged — but once a gang formed, BOTH members must be quarantined.
  if (server.quarantined(0) || server.quarantined(1)) {
    EXPECT_TRUE(server.quarantined(0));
    EXPECT_TRUE(server.quarantined(1));
    EXPECT_EQ(server.fault_message(0), "gang fault");
    EXPECT_EQ(server.fault_message(1), "gang fault");
  }
}

TEST(StreamServer, CloseMidBatchChurnStaysConsistent) {
  // Sessions churn while gangs form: closes race the candidate scan, new
  // sessions join mid-serve. Run under TSan (tier2-tsan) for the data-race
  // half of the claim; the invariant half (no lost/duplicated frames,
  // survivors unquarantined) is checked here.
  constexpr int64_t kFrames = 16;
  telemetry::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_workers = 6;
  opts.metrics = &registry;
  opts.arbiter = {.max_batch = 3, .batch_linger_us = 500};
  StreamServer server(opts);

  std::atomic<int64_t> engine_frames{0}, engine_passes{0}, largest_gang{0};
  std::vector<std::atomic<int64_t>> delivered(8);
  auto open_one = [&](int slot) {
    SessionConfig sc;
    sc.stages.push_back(
        gang_engine_stage(&engine_frames, &engine_passes, &largest_gang));
    auto* count = &delivered[static_cast<size_t>(slot)];
    sc.deliver = [count](video::Frame&& f) {
      ASSERT_EQ(f.features.numel(), 1);
      EXPECT_EQ(f.features[0], static_cast<float>(1000 + f.sequence));
      count->fetch_add(1);
    };
    sc.queue_capacity = kFrames;
    return server.open_session(std::move(sc));
  };
  std::vector<int64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(open_one(i));
  server.start();

  std::vector<std::thread> producers;
  for (int i = 0; i < 4; ++i) {
    const int64_t sid = ids[static_cast<size_t>(i)];  // ids grows concurrently
    producers.emplace_back([&server, sid] {
      for (int64_t seq = 0; seq < kFrames; ++seq) {
        server.submit(sid, make_frame(seq));
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  // Churn against the producers: close two sessions mid-batch-formation,
  // open two replacements that immediately contend for gangs.
  std::this_thread::sleep_for(std::chrono::microseconds(600));
  server.close_session(ids[1]);
  ids.push_back(open_one(4));
  std::this_thread::sleep_for(std::chrono::microseconds(600));
  server.close_session(ids[3]);
  ids.push_back(open_one(5));
  for (int64_t seq = 0; seq < kFrames; ++seq)
    server.submit(ids[4], make_frame(seq));
  for (auto& t : producers) t.join();
  server.drain();
  server.stop();

  // Survivors are healthy; closed sessions answered kClosed past the cut.
  for (const int64_t id : {ids[0], ids[2], ids[4], ids[5]})
    EXPECT_FALSE(server.quarantined(id)) << "session " << id;
  EXPECT_TRUE(server.closed(ids[1]));
  EXPECT_TRUE(server.closed(ids[3]));
  // Engine accounting stayed exact through the churn: the batch_size
  // histogram covers every engine frame, one grant per pass.
  const auto snap = server.snapshot();
  EXPECT_EQ(snap.counter_value("serve.arbiter.grants"), engine_passes.load());
  const auto* hist = snap.find_histogram("serve.arbiter.batch_size");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(static_cast<int64_t>(hist->stats.sum), engine_frames.load());
  // Everything admitted to a surviving session was delivered.
  for (const int64_t id : {ids[0], ids[2]})
    EXPECT_EQ(server.delivered(id), kFrames) << "session " << id;
}

}  // namespace
}  // namespace tincy::serve
