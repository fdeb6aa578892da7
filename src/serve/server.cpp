#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/errors.hpp"

namespace tincy::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

// Session and stage names become metric-name components (and session
// names flight-recorder file names): a name containing '"', '\', '/' or
// other punctuation can never corrupt a metric name, a JSON export or a
// dump path.
std::string metric_label(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                    c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

StreamServer::StreamServer(ServerOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics ? options_.metrics
                                : &telemetry::MetricsRegistry::global()),
      trace_(options_.trace ? options_.trace
                            : &telemetry::TraceCollector::global()),
      arbiter_(metrics_, options_.arbiter),
      closed_{&metrics_->counter("serve.closed.sessions"),
              &metrics_->counter("serve.closed.frames"),
              &metrics_->counter("serve.closed.rejected"),
              &metrics_->counter("serve.closed.shed"),
              &metrics_->counter("serve.closed.degraded"),
              &metrics_->counter("serve.closed.dropped"),
              &metrics_->counter("serve.closed.faults"),
              &metrics_->gauge("serve.closed.latency_p99_max_ms")} {
  TINCY_CHECK_MSG(
      options_.num_workers >= 1 && options_.num_workers <= kMaxWorkers,
      "num_workers " << options_.num_workers << " outside [1, "
                     << kMaxWorkers << "]");
  TINCY_CHECK_MSG(options_.degrade_at > 0.0 && options_.degrade_at <= 1.0,
                  "degrade_at " << options_.degrade_at
                                << " outside (0, 1]");
  TINCY_CHECK_MSG(options_.flight_recorder_events >= 1,
                  "flight_recorder_events "
                      << options_.flight_recorder_events);
}

StreamServer::~StreamServer() { stop(); }

int64_t StreamServer::open_session(SessionConfig cfg) {
  TINCY_CHECK_MSG(!cfg.stages.empty(), "session needs at least one stage");
  for (const auto& st : cfg.stages) {
    TINCY_CHECK_MSG(st.work || st.batch_work,
                    "stage '" << st.name << "' needs work or batch_work");
    TINCY_CHECK_MSG(!st.batch_work || st.uses_engine,
                    "stage '" << st.name
                              << "' has batch_work but not uses_engine");
    TINCY_CHECK_MSG(st.engine_layer < 0 || (st.uses_engine && st.batch_work),
                    "stage '" << st.name << "' names engine_layer "
                              << st.engine_layer
                              << " but lacks uses_engine+batch_work");
  }
  TINCY_CHECK_MSG(cfg.queue_capacity >= 1,
                  "queue_capacity " << cfg.queue_capacity);
  TINCY_CHECK_MSG(cfg.weight >= 1, "weight " << cfg.weight);
  TINCY_CHECK_MSG(cfg.priority >= 0, "priority " << cfg.priority);
  TINCY_CHECK_MSG(cfg.name.size() <= 100,
                  "session name of " << cfg.name.size()
                                     << " chars exceeds the 100-char limit");
  std::unique_lock lock(mutex_);
  const int64_t id = static_cast<int64_t>(sessions_.size());
  auto s = std::make_unique<Session>();
  s->cfg = std::move(cfg);
  if (s->cfg.name.empty()) s->cfg.name = "s" + std::to_string(id);
  // Normalize once so the session name, its metric names and its
  // flight-recorder file all agree (and stay JSON/path-safe). Without a
  // '.', one session's serve.session.<name>. prefix never covers another
  // session's metrics, so a retired session's can be dropped by prefix.
  s->cfg.name = metric_label(s->cfg.name);
  std::replace(s->cfg.name.begin(), s->cfg.name.end(), '.', '_');
  s->slots.resize(s->cfg.stages.size());
  s->stage_trace_names.reserve(s->cfg.stages.size());
  for (const auto& st : s->cfg.stages)
    s->stage_trace_names.push_back("stage:" + st.name);
  bind_metrics_locked(*s);
  arbiter_.add_session(id, s->cfg.weight, s->cfg.priority);
  sessions_.push_back(std::move(s));
  released_.emplace_back();
  ++held_;
  lock.unlock();
  cv_.notify_all();  // live churn: workers should see the new session
  return id;
}

void StreamServer::bind_metrics_locked(Session& s) {
  const std::string prefix = "serve.session." + s.cfg.name + ".";
  s.stage_metrics.clear();
  s.stage_metrics.reserve(s.cfg.stages.size());
  for (const auto& st : s.cfg.stages) {
    const std::string stage = prefix + "stage." + metric_label(st.name) + ".";
    s.stage_metrics.push_back({&metrics_->histogram(stage + "busy_ms"),
                               &metrics_->histogram(stage + "wait_ms"),
                               &metrics_->counter(stage + "jobs")});
  }
  s.frames_counter = &metrics_->counter(prefix + "frames");
  s.latency_hist = &metrics_->histogram(prefix + "latency_ms");
  s.latency_window = &metrics_->windowed_histogram(prefix + "latency_ms.window");
  s.fps_window = &metrics_->windowed_rate(prefix + "fps.window");
  s.queue_depth_gauge = &metrics_->gauge(prefix + "queue_depth");
  s.rejected_counter = &metrics_->counter(prefix + "rejected");
  s.shed_counter = &metrics_->counter(prefix + "shed");
  s.degraded_counter = &metrics_->counter(prefix + "degraded");
  s.dropped_counter = &metrics_->counter(prefix + "dropped");
  s.faults_counter = &metrics_->counter(prefix + "faults");
  s.quarantined_gauge = &metrics_->gauge(prefix + "quarantined");
  NameShare& share = names_[s.cfg.name];
  ++share.bound;
  ++share.live;
}

void StreamServer::drop_metrics_locked(Session& s) {
  // Sessions of one name share their metric objects: those go once the
  // last of them is closed and retired, with the shared counts folded in
  // once.
  const auto share = names_.find(s.cfg.name);
  if (--share->second.live > 0) return;
  closed_.sessions->add(share->second.bound);
  closed_.frames->add(s.frames_counter->value());
  closed_.rejected->add(s.rejected_counter->value());
  closed_.shed->add(s.shed_counter->value());
  closed_.degraded->add(s.degraded_counter->value());
  closed_.dropped->add(s.dropped_counter->value());
  closed_.faults->add(s.faults_counter->value());
  if (s.latency_hist->count() > 0)
    closed_.worst_p99_ms->set(std::max(closed_.worst_p99_ms->value(),
                                       s.latency_hist->quantile(0.99)));
  names_.erase(share);
  metrics_->remove("serve.session." + s.cfg.name + ".");
}

StreamServer::Session* StreamServer::find_locked(int64_t session) const {
  TINCY_CHECK_MSG(
      session >= 0 && session < static_cast<int64_t>(sessions_.size()),
      "unknown session " << session);
  return sessions_[static_cast<size_t>(session)].get();
}

void StreamServer::release_locked(int64_t session) {
  // Taken out of sessions_ and destroyed on return: its stage closures,
  // slots and queues go, its id stays unused.
  const std::unique_ptr<Session> s =
      std::move(sessions_[static_cast<size_t>(session)]);
  Released& r = released_[static_cast<size_t>(session)];
  r.done = s->done;
  r.discarded = s->discarded;
  r.rejected = s->rejected_counter->value();
  r.quarantined = s->quarantined;
  r.last_fault = s->last_fault;
  --held_;
  drop_metrics_locked(*s);
}

void StreamServer::close_session(int64_t session) {
  std::unique_lock lock(mutex_);
  Session* held = find_locked(session);
  if (held == nullptr || held->closed) return;  // released: closed already
  Session& s = *held;
  s.closed = true;
  // Frames that never entered the stage chain are dropped; in-flight
  // frames (slots + running stages) keep their submit_times front entries
  // and finish to delivery.
  const int64_t queued = static_cast<int64_t>(s.queue.size());
  if (queued > 0) {
    if (trace_->enabled()) {
      for (const auto& f : s.queue) {
        trace_->async_end("queue", session, f.sequence);
        trace_->async_end("frame", session, f.sequence,
                          "\"outcome\":\"dropped\"");
      }
    }
    s.queue.clear();
    s.submit_times.erase(s.submit_times.end() - queued, s.submit_times.end());
    s.discarded += queued;
    s.dropped_counter->add(queued);
  }
  // Withdraw any maturing engine claim: the work it was for may just have
  // been dropped, and a pending claim with no future acquire would hold
  // back every other session. In-flight frames that still need the engine
  // simply re-claim on their next scan.
  arbiter_.cancel(session);
  maybe_retire_locked(session);
  lock.unlock();
  cv_.notify_all();  // drain() may be satisfied now
}

void StreamServer::start() {
  std::lock_guard lock(mutex_);
  TINCY_CHECK_MSG(!running_, "start() while already running");
  TINCY_CHECK_MSG(!sessions_.empty(), "start() with no sessions");
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i]) continue;  // released sessions stay closed
    Session& s = *sessions_[i];
    reset_session_locked(s);
    // Retired sessions were forgotten by the arbiter; re-registering all
    // of them (remove is a no-op for the still-known ones) restarts every
    // session at the virtual-time floor.
    arbiter_.remove_session(static_cast<int64_t>(i));
    arbiter_.add_session(static_cast<int64_t>(i), s.cfg.weight,
                         s.cfg.priority);
  }
  // Every session starts afresh, so the totals of closed ones do too.
  metrics_->reset("serve.closed.");
  rr_next_ = 0;
  // grant_seq_/wait_seq_ deliberately keep counting across start() calls
  // so trace ids stay unique over a whole process's trace.
  start_time_ = std::chrono::steady_clock::now();
  stopping_ = false;
  running_ = true;
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

ServeResult StreamServer::submit(int64_t session, video::Frame frame) {
  return try_submit(session, frame);
}

ServeResult StreamServer::try_submit(int64_t session, video::Frame& frame) {
  std::unique_lock lock(mutex_);
  Session* held = find_locked(session);
  if (!running_ || stopping_) return ServeResult::kClosed;
  if (held == nullptr)
    return released_[static_cast<size_t>(session)].quarantined
               ? ServeResult::kQuarantined
               : ServeResult::kClosed;
  Session& s = *held;
  if (s.quarantined) return ServeResult::kQuarantined;
  if (s.closed) return ServeResult::kClosed;
  if (static_cast<int64_t>(s.queue.size()) >= s.cfg.queue_capacity) {
    if (options_.overload_policy == OverloadPolicy::kShedOldest &&
        !s.queue.empty()) {
      // Freshness wins: evict the stalest *queued* frame (in-flight ones
      // are untouchable) to make room. Its timestamp sits right after the
      // in-flight block at the front of submit_times.
      const size_t in_flight = s.submit_times.size() - s.queue.size();
      if (trace_->enabled()) {
        const int64_t shed_seq = s.queue.front().sequence;
        trace_->async_end("queue", session, shed_seq);
        trace_->async_end("frame", session, shed_seq,
                          "\"outcome\":\"shed\"");
      }
      s.queue.pop_front();
      s.submit_times.erase(s.submit_times.begin() +
                           static_cast<std::ptrdiff_t>(in_flight));
      ++s.discarded;
      s.shed_counter->add(1);
    } else {
      s.rejected_counter->add(1);
      return ServeResult::kOverloaded;
    }
  }
  if (options_.overload_policy == OverloadPolicy::kDegrade && s.cfg.degrade) {
    const auto mark = static_cast<int64_t>(std::ceil(
        options_.degrade_at * static_cast<double>(s.cfg.queue_capacity)));
    if (static_cast<int64_t>(s.queue.size()) >= std::max<int64_t>(1, mark)) {
      s.cfg.degrade(frame);
      s.degraded_counter->add(1);
    }
  }
  if (trace_->enabled()) {
    trace_->async_begin("frame", session, frame.sequence);
    trace_->async_begin("queue", session, frame.sequence);
  }
  s.queue.push_back(std::move(frame));
  s.submit_times.push_back(std::chrono::steady_clock::now());
  ++s.admitted;
  lock.unlock();
  cv_.notify_all();
  return ServeResult::kAccepted;
}

void StreamServer::trace_engine_granted_locked(Session& s, int64_t session,
                                               int64_t layer) {
  if (s.engine_wait_start_ms < 0) return;
  if (trace_->enabled()) {
    // The wait is only known retroactively, at grant time, and the
    // denial may have been observed by another worker — so it cannot be
    // a complete span on this thread's track (it would overlap spans
    // that ran here in the meantime). An async pair with its own id
    // keeps it an honest cross-thread interval.
    const double now = trace_->now_ms();
    const int64_t wait_id = wait_seq_++;
    char args[64];
    std::snprintf(args, sizeof args, "\"layer\":%lld,\"wait_ms\":%.3f",
                  static_cast<long long>(layer),
                  now - s.engine_wait_start_ms);
    trace_->emit(telemetry::TracePhase::kAsyncBegin, "arbiter.wait", session,
                 wait_id, args, 0.0, s.engine_wait_start_ms);
    trace_->emit(telemetry::TracePhase::kAsyncEnd, "arbiter.wait", session,
                 wait_id, args, 0.0, now);
  }
  s.engine_wait_start_ms = -1.0;
}

bool StreamServer::find_job_locked(Job& job) {
  const size_t n = sessions_.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t si = (rr_next_ + k) % n;
    if (!sessions_[si]) continue;  // released
    Session& s = *sessions_[si];
    // Quarantined sessions hold no claimable frames (they were discarded
    // at the poison point); retired ones additionally left the arbiter.
    if (s.retired || s.quarantined) continue;
    for (int64_t i = static_cast<int64_t>(s.cfg.stages.size()) - 1; i >= 0;
         --i) {
      Slot& out = s.slots[static_cast<size_t>(i)];
      if (out.reserved || out.frame.has_value()) continue;  // output not free
      const bool input_ready =
          i == 0 ? !s.queue.empty()
                 : s.slots[static_cast<size_t>(i - 1)].frame.has_value();
      if (!input_ready) continue;
      const ServeStage& st = s.cfg.stages[static_cast<size_t>(i)];
      if (!st.uses_engine) {
        job.members.assign(1, Claim{static_cast<int64_t>(si), i});
        job.engine = false;
        rr_next_ = (si + 1) % n;
        return true;
      }
      // Engine-tagged stages are claimed together with the engine grant;
      // a refusal leaves a maturing claim with the arbiter and the scan
      // moves on to overlappable CPU work of other sessions.
      if (st.engine_layer < 0) {
        if (!arbiter_.try_acquire(static_cast<int64_t>(si))) {
          if (s.engine_wait_start_ms < 0 && trace_->enabled())
            s.engine_wait_start_ms = trace_->now_ms();
          continue;
        }
        trace_engine_granted_locked(s, static_cast<int64_t>(si),
                                    st.engine_layer);
        job.members.assign(1, Claim{static_cast<int64_t>(si), i});
        job.engine = true;
        rr_next_ = (si + 1) % n;
        return true;
      }
      // Gang-schedulable stage: collect every other session with a
      // runnable frame at the same offloaded layer right now — all
      // verified under this lock, so a grant can claim them atomically.
      std::vector<int64_t> cands;
      std::vector<int64_t> cand_stage(n, -1);
      for (size_t oj = 0; oj < n; ++oj) {
        if (oj == si || !sessions_[oj]) continue;
        Session& o = *sessions_[oj];
        if (o.retired || o.quarantined) continue;
        for (int64_t m = static_cast<int64_t>(o.cfg.stages.size()) - 1;
             m >= 0; --m) {
          const ServeStage& om = o.cfg.stages[static_cast<size_t>(m)];
          if (!om.uses_engine || om.engine_layer != st.engine_layer) continue;
          Slot& oout = o.slots[static_cast<size_t>(m)];
          if (oout.reserved || oout.frame.has_value()) continue;
          const bool oready =
              m == 0 ? !o.queue.empty()
                     : o.slots[static_cast<size_t>(m - 1)].frame.has_value();
          if (!oready) continue;
          cands.push_back(static_cast<int64_t>(oj));
          cand_stage[oj] = m;
          break;  // deepest runnable same-layer stage of this session
        }
      }
      std::vector<int64_t> gang;
      if (!arbiter_.try_acquire_gang(static_cast<int64_t>(si),
                                     st.engine_layer, cands, gang)) {
        if (s.engine_wait_start_ms < 0 && trace_->enabled())
          s.engine_wait_start_ms = trace_->now_ms();
        continue;
      }
      trace_engine_granted_locked(s, static_cast<int64_t>(si),
                                  st.engine_layer);
      job.members.clear();
      job.members.push_back(Claim{static_cast<int64_t>(si), i});
      for (size_t g = 1; g < gang.size(); ++g)
        job.members.push_back(
            Claim{gang[g], cand_stage[static_cast<size_t>(gang[g])]});
      job.engine = true;
      rr_next_ = (si + 1) % n;
      return true;
    }
  }
  return false;
}

void StreamServer::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    Job job;
    // stopping_ is tested first: once a stop is requested no new job (and
    // in particular no engine grant) is claimed. While a gang leader
    // lingers for more peers the wait is timed, so a worker re-attempts
    // the acquisition right after the linger deadline even if nothing
    // else wakes it.
    while (!stopping_ && !find_job_locked(job)) {
      if (const auto deadline = arbiter_.linger_deadline())
        cv_.wait_until(lock, *deadline + std::chrono::microseconds(10));
      else
        cv_.wait(lock);
    }
    if (stopping_) return;

    // Claim every member's input under the same lock hold that formed the
    // gang — the candidates were verified runnable by find_job_locked.
    // Session pointers are pinned here too: the sessions_ vector may be
    // reallocated by a concurrent open_session once the lock drops, but
    // the Session objects themselves are heap-stable.
    const size_t nm = job.members.size();
    std::vector<video::Frame> frames(nm);
    std::vector<int64_t> seqs(nm, -1);
    std::vector<Session*> member_sessions(nm);
    std::vector<double> waits(nm);  ///< input-slot dwell, recorded unlocked
    const auto claimed = std::chrono::steady_clock::now();
    for (size_t m = 0; m < nm; ++m) {
      Session& ms = *sessions_[static_cast<size_t>(job.members[m].session)];
      member_sessions[m] = &ms;
      Slot& mout = ms.slots[static_cast<size_t>(job.members[m].stage)];
      mout.reserved = true;
      if (job.members[m].stage == 0) {
        // Admission-queue dwell of the claimed frame: its submission
        // timestamp sits right after the in-flight block. Feeds the
        // Little's-law queue_depth gauge (Σ dwell / elapsed) and closes
        // the frame's "queue" trace span.
        const size_t in_flight = ms.submit_times.size() - ms.queue.size();
        waits[m] = ms_between(ms.submit_times[in_flight], claimed);
        ms.queue_wait_ms += waits[m];
        ms.queue_depth_gauge->set(
            ms.queue_wait_ms /
            std::max(ms_between(start_time_, claimed), 1e-6));
        frames[m] = std::move(ms.queue.front());
        ms.queue.pop_front();
        if (trace_->enabled()) {
          char args[48];
          std::snprintf(args, sizeof args, "\"dwell_ms\":%.3f", waits[m]);
          trace_->async_end("queue", job.members[m].session,
                            frames[m].sequence, args);
        }
      } else {
        Slot& min = ms.slots[static_cast<size_t>(job.members[m].stage - 1)];
        waits[m] = ms_between(min.deposited, claimed);
        frames[m] = std::move(*min.frame);
        min.frame.reset();  // input buffer becomes free (Fig. 6)
      }
      seqs[m] = frames[m].sequence;
    }
    if (job.engine && trace_->enabled()) {
      // One seat instant per gang member; the leader carries the batch
      // size, so trace accounting can be checked against
      // serve.arbiter.batch_size (tools/check_metrics --trace).
      const int64_t grant = grant_seq_++;
      char args[96];
      std::snprintf(args, sizeof args,
                    "\"role\":\"leader\",\"grant\":%lld,\"batch\":%zu",
                    static_cast<long long>(grant), nm);
      trace_->instant("gang", job.members[0].session, seqs[0], args);
      for (size_t m = 1; m < nm; ++m) {
        std::snprintf(args, sizeof args,
                      "\"role\":\"member\",\"grant\":%lld",
                      static_cast<long long>(grant));
        trace_->instant("gang", job.members[m].session, seqs[m], args);
      }
    }
    lock.unlock();
    cv_.notify_all();  // freed queue space / input slots enable upstream
    for (size_t m = 0; m < nm; ++m)
      member_sessions[m]
          ->stage_metrics[static_cast<size_t>(job.members[m].stage)]
          .wait_ms->record(waits[m]);

    // The leader's callback runs the whole gang: one engine hold, one
    // weight-streaming phase. A throw faults every member — their frames
    // were in the same pass.
    Session& ls = *member_sessions[0];
    const ServeStage& lstage =
        ls.cfg.stages[static_cast<size_t>(job.members[0].stage)];
    bool faulted = false;
    std::string fault;
    const auto work_start = std::chrono::steady_clock::now();
    {
      // Deep spans (net.layer, fabric, gemm) inherit the leader's frame
      // identity through the thread-local context.
      telemetry::ScopedTraceContext tctx(job.members[0].session, seqs[0]);
      telemetry::TraceSpan span(
          trace_, ls.stage_trace_names[static_cast<size_t>(
                      job.members[0].stage)],
          job.members[0].session, seqs[0]);
      if (span.active()) {
        char args[32];
        std::snprintf(args, sizeof args, "\"batch\":%zu", nm);
        span.set_args(args);
      }
      try {
        if (nm > 1 || !lstage.work) {
          std::vector<video::Frame*> ptrs(nm);
          for (size_t m = 0; m < nm; ++m) ptrs[m] = &frames[m];
          lstage.batch_work(std::span<video::Frame* const>(ptrs));
        } else {
          lstage.work(frames[0]);
        }
      } catch (const std::exception& e) {
        faulted = true;
        fault = e.what();
      } catch (...) {
        faulted = true;
        fault = "non-standard exception";
      }
    }
    // Every member records the gang's busy time, so each stage's span
    // and job counts equal the frames it ran.
    const double busy =
        ms_between(work_start, std::chrono::steady_clock::now());
    for (size_t m = 0; m < nm; ++m) {
      const StageMetrics& sm =
          member_sessions[m]
              ->stage_metrics[static_cast<size_t>(job.members[m].stage)];
      sm.busy_ms->record(busy);
      sm.jobs->add(1);
    }
    std::vector<char> member_faulted(nm, faulted ? 1 : 0);
    std::vector<std::string> member_fault(nm, fault);
    // Delivery happens outside the lock but is serialized per session by
    // the reserved last-stage slot, so results leave in order. A sibling
    // stage may have poisoned a session while its frame was in the
    // stage; nothing is delivered past the poison point.
    for (size_t m = 0; m < nm; ++m) {
      if (member_faulted[m]) continue;
      Session& ms = *member_sessions[m];
      const bool last = job.members[m].stage ==
                        static_cast<int64_t>(ms.cfg.stages.size()) - 1;
      if (!last || !ms.cfg.deliver) continue;
      lock.lock();
      const bool deliverable = !ms.quarantined;
      lock.unlock();
      if (!deliverable) continue;
      telemetry::TraceSpan deliver_span(trace_, "deliver",
                                        job.members[m].session, seqs[m]);
      try {
        ms.cfg.deliver(std::move(frames[m]));
      } catch (const std::exception& e) {
        member_faulted[m] = 1;
        member_fault[m] = e.what();
      } catch (...) {
        member_faulted[m] = 1;
        member_fault[m] = "non-standard exception";
      }
    }
    // One release covers the whole gang (the leader held the engine).
    if (job.engine) arbiter_.release(job.members[0].session);

    lock.lock();
    const auto returned = std::chrono::steady_clock::now();
    for (size_t m = 0; m < nm; ++m) {
      Session& ms = *member_sessions[m];
      Slot& mout = ms.slots[static_cast<size_t>(job.members[m].stage)];
      mout.reserved = false;
      const bool last = job.members[m].stage ==
                        static_cast<int64_t>(ms.cfg.stages.size()) - 1;
      if (member_faulted[m]) {
        if (trace_->enabled())
          trace_->async_end("frame", job.members[m].session, seqs[m],
                            "\"outcome\":\"fault\"");
        quarantine_locked(job.members[m].session, member_fault[m]);
        ++ms.discarded;  // the frame this worker was carrying
        ms.dropped_counter->add(1);
      } else if (ms.quarantined) {
        if (trace_->enabled())
          trace_->async_end("frame", job.members[m].session, seqs[m],
                            "\"outcome\":\"dropped\"");
        ++ms.discarded;  // poisoned while in flight — never counted delivered
        ms.dropped_counter->add(1);
      } else if (last) {
        ++ms.done;
        ms.frames_counter->add(1);
        const double latency_ms =
            ms_between(ms.submit_times.front(), returned);
        ms.latency_hist->record(latency_ms);
        ms.latency_window->record(latency_ms);
        ms.fps_window->add(1);
        ms.submit_times.pop_front();
        if (trace_->enabled())
          trace_->async_end("frame", job.members[m].session, seqs[m],
                            "\"outcome\":\"delivered\"");
      } else {
        mout.frame = std::move(frames[m]);
        mout.deposited = returned;
      }
    }
    // Retiring may release a session, so it waits until no member's
    // state is touched any more.
    for (const Claim& c : job.members) {
      const Session* ms = sessions_[static_cast<size_t>(c.session)].get();
      if (ms && (ms->closed || ms->quarantined)) maybe_retire_locked(c.session);
    }
    lock.unlock();
    cv_.notify_all();  // deposited outputs / deliveries may unblock drain()
    lock.lock();
  }
}

void StreamServer::trace_drop_owned_locked(const Session& s, int64_t session,
                                           const char* outcome) {
  if (!trace_->enabled()) return;
  char args[48];
  std::snprintf(args, sizeof args, "\"outcome\":\"%s\"", outcome);
  for (const auto& f : s.queue) {
    trace_->async_end("queue", session, f.sequence);
    trace_->async_end("frame", session, f.sequence, args);
  }
  for (const auto& slot : s.slots)
    if (slot.frame.has_value())
      trace_->async_end("frame", session, slot.frame->sequence, args);
}

void StreamServer::flight_record_locked(const Session& s, int64_t session,
                                        const std::string& what) {
  if (options_.flight_recorder_dir.empty()) return;
  std::string header = "\"schema\":\"tincy.flight.v1\",\"session\":";
  header += std::to_string(session);
  header += ",\"sessionName\":\"";
  header += s.cfg.name;  // normalized at open_session: JSON-safe
  header += "\",\"fault\":";
  // Escape the fault message: it is free-form exception text.
  header += '"';
  for (const char c : what) {
    switch (c) {
      case '"': header += "\\\""; break;
      case '\\': header += "\\\\"; break;
      case '\n': header += "\\n"; break;
      case '\t': header += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          header += buf;
        } else {
          header += c;
        }
    }
  }
  header += '"';
  const auto tail = trace_->session_tail(
      session, static_cast<size_t>(options_.flight_recorder_events));
  try {
    std::filesystem::create_directories(options_.flight_recorder_dir);
    const std::string path =
        options_.flight_recorder_dir + "/flight_" + s.cfg.name + ".json";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file.good()) return;  // post-mortem must never take the server down
    const std::string json = telemetry::to_chrome_trace(tail, header);
    file.write(json.data(), static_cast<std::streamsize>(json.size()));
  } catch (...) {
    // I/O trouble while writing a post-mortem is not a serving fault.
  }
}

void StreamServer::quarantine_locked(int64_t session,
                                     const std::string& what) {
  Session& s = *sessions_[static_cast<size_t>(session)];
  s.faults_counter->add(1);
  if (s.quarantined) return;  // concurrent faults: first one poisons
  s.quarantined = true;
  s.last_fault = what;
  s.quarantined_gauge->set(1.0);
  trace_drop_owned_locked(s, session, "dropped");
  if (trace_->enabled())
    trace_->instant("quarantine", session, -1);
  // The post-mortem is cut before the owned frames are cleared so their
  // final events are part of the dump.
  flight_record_locked(s, session, what);
  // Everything this session still owns is discarded: queued frames, slot
  // deposits, and the timestamps tracking them. Frames currently inside a
  // stage of another worker are discarded by that worker on return.
  int64_t dropped = static_cast<int64_t>(s.queue.size());
  s.queue.clear();
  for (auto& slot : s.slots) {
    if (!slot.frame.has_value()) continue;
    slot.frame.reset();
    ++dropped;
  }
  s.submit_times.clear();
  if (dropped > 0) {
    s.discarded += dropped;
    s.dropped_counter->add(dropped);
  }
  arbiter_.cancel(session);
}

void StreamServer::maybe_retire_locked(int64_t session) {
  Session& s = *sessions_[static_cast<size_t>(session)];
  if (!s.retired) {
    if (!(s.closed || s.quarantined)) return;
    if (!s.queue.empty()) return;
    for (const auto& slot : s.slots)
      if (slot.frame.has_value() || slot.reserved) return;
    // No slot is reserved, so no stage of this session is running and the
    // engine release (which precedes clearing the reservation) has
    // happened: the arbiter can forget the session safely — and with it
    // any pending (session, layer) gang-queue entry, so a retired session
    // never joins a forming batch.
    s.retired = true;
    arbiter_.remove_session(session);
  }
  // Nothing records into a retired session any more; a closed one takes
  // no submissions either, so it is released (a quarantined one is kept
  // until it is closed: its fault is what an operator reads).
  if (s.closed) release_locked(session);
}

void StreamServer::reset_session_locked(Session& s) {
  s.queue.clear();
  s.submit_times.clear();
  s.slots.assign(s.cfg.stages.size(), Slot{});
  s.admitted = 0;
  s.done = 0;
  s.discarded = 0;
  s.closed = false;
  s.quarantined = false;
  s.retired = false;
  s.last_fault.clear();
  s.queue_wait_ms = 0.0;
  s.engine_wait_start_ms = -1.0;
  s.frames_counter->reset();
  s.latency_hist->reset();
  s.latency_window->reset();
  s.fps_window->reset();
  s.queue_depth_gauge->set(0.0);
  s.rejected_counter->reset();
  s.shed_counter->reset();
  s.degraded_counter->reset();
  s.dropped_counter->reset();
  s.faults_counter->reset();
  s.quarantined_gauge->set(0.0);
  for (const StageMetrics& sm : s.stage_metrics) {
    sm.busy_ms->reset();
    sm.wait_ms->reset();
    sm.jobs->reset();
  }
}

void StreamServer::drain() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] {
    if (stopping_ || !running_) return true;
    for (const auto& s : sessions_)
      if (s && s->done + s->discarded != s->admitted) return false;
    return true;
  });
}

void StreamServer::stop() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    to_join.swap(workers_);
  }
  cv_.notify_all();
  // Joining guarantees in-flight stages finished their buffer handoff
  // (workers only exit at the scheduler wait point) before session state
  // is touched below or the server is destroyed.
  for (auto& t : to_join) t.join();
  {
    std::lock_guard lock(mutex_);
    running_ = false;
    for (size_t i = 0; i < sessions_.size(); ++i)
      arbiter_.cancel(static_cast<int64_t>(i));
  }
  cv_.notify_all();
}

bool StreamServer::running() const {
  std::lock_guard lock(mutex_);
  return running_ && !stopping_;
}

int64_t StreamServer::num_sessions() const {
  std::lock_guard lock(mutex_);
  return static_cast<int64_t>(sessions_.size());
}

int64_t StreamServer::held_sessions() const {
  std::lock_guard lock(mutex_);
  return held_;
}

int64_t StreamServer::queue_depth(int64_t session) const {
  std::lock_guard lock(mutex_);
  const Session* s = find_locked(session);
  return s ? static_cast<int64_t>(s->queue.size()) : 0;
}

int64_t StreamServer::delivered(int64_t session) const {
  std::lock_guard lock(mutex_);
  const Session* s = find_locked(session);
  return s ? s->done : released_[static_cast<size_t>(session)].done;
}

int64_t StreamServer::rejected(int64_t session) const {
  std::lock_guard lock(mutex_);
  const Session* s = find_locked(session);
  return s ? s->rejected_counter->value()
           : released_[static_cast<size_t>(session)].rejected;
}

int64_t StreamServer::discarded(int64_t session) const {
  std::lock_guard lock(mutex_);
  const Session* s = find_locked(session);
  return s ? s->discarded : released_[static_cast<size_t>(session)].discarded;
}

bool StreamServer::closed(int64_t session) const {
  std::lock_guard lock(mutex_);
  const Session* s = find_locked(session);
  return s ? s->closed : true;
}

bool StreamServer::quarantined(int64_t session) const {
  std::lock_guard lock(mutex_);
  const Session* s = find_locked(session);
  return s ? s->quarantined
           : released_[static_cast<size_t>(session)].quarantined;
}

std::string StreamServer::fault_message(int64_t session) const {
  std::lock_guard lock(mutex_);
  const Session* s = find_locked(session);
  return s ? s->last_fault : released_[static_cast<size_t>(session)].last_fault;
}

}  // namespace tincy::serve
