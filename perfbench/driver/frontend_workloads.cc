// The two front-end workloads: durable_oltp and contended_certified.
//
// One generator thread (the main thread) drives an AsyncFrontend with two
// workers. Every submission carries one whole top-level transaction
// (begin … ops … commit, optionally wrapping a subtransaction), so a
// session never holds a transaction open between submissions. A unit that
// the engine aborts (deadlock victim, lock-wait timeout) is resubmitted by
// the generator, as a client would; a unit fails only after kMaxAttempts.
//
// Each measurement has two phases on one engine:
//  * closed loop: `sessions` units always in flight; gives commits/s;
//  * open loop: units due at a fixed rate whatever the system does, each
//    timed from its due time to its ack; gives the latency percentiles.
//
// Threads: generator + 2 front-end workers (+ the WAL's group-commit
// thread on durable_oltp) = at most 4, the host's core count.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "frontend/async_frontend.h"
#include "frontend/batch.h"
#include "report.h"
#include "stats.h"
#include "storage/durable_engine.h"
#include "storage/log_reader.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "timing.h"
#include "txn/online_checker.h"
#include "txn/transaction_manager.h"

namespace perfbench {

namespace {

using rnt::frontend::AsyncFrontend;
using rnt::frontend::BatchOp;
using rnt::frontend::BatchRequest;
using rnt::frontend::BatchResult;
using rnt::frontend::OpResult;
using rnt::txn::OnlineChecker;
using rnt::txn::TransactionManager;

constexpr int kSetupRepeats = 15;
constexpr int kWindows = 10;
constexpr int kMaxAttempts = 8;
constexpr std::int64_t kDrainLimitNs = 60'000'000'000;

/// A workload's fixed parameters (also listed in perfbench/README.md).
struct Params {
  bool durable = false;
  std::uint32_t ops_per_txn = 8;
  double write_share = 0.5;
  double nested_share = 0.2;
  double child_abort_share = 0.1;
  /// durable_oltp: each session owns keys [s*K, (s+1)*K) — no conflicts.
  std::uint64_t keys_per_session = 0;
  /// contended_certified: `hot_share` of accesses hit `hot_keys` of
  /// `key_space` keys, shared by every session.
  std::uint64_t hot_keys = 0;
  std::uint64_t key_space = 0;
  double hot_share = 0;
  std::size_t workers = 2;
  std::size_t sessions = 16;  // closed-loop units in flight
  std::size_t queue_capacity = 64;
  double open_rate_per_s = 1000;
  std::chrono::milliseconds lock_wait_timeout{2000};
  bool deadlock_detection = true;
  /// durable_oltp: fdatasync each group commit.
  bool fsync = true;
};

Params DurableOltpParams() {
  Params p;
  p.durable = true;
  p.ops_per_txn = 8;
  p.write_share = 0.5;
  p.nested_share = 0.2;
  p.child_abort_share = 0.1;
  p.keys_per_session = 1024;
  p.open_rate_per_s = 4000;
  return p;
}

Params ContendedParams() {
  Params p;
  p.ops_per_txn = 32;
  p.write_share = 0.2;
  p.nested_share = 0.5;
  p.child_abort_share = 0.1;
  p.hot_keys = 256;
  p.key_space = 65536;
  p.hot_share = 0.8;
  p.open_rate_per_s = 1000;
  // Deadlocks are broken by the lock-wait timeout alone. With wait-for
  // detection on, runs of this workload can stall for good (timeout aborts
  // climbing, a few commits per second) — seen with batched and with
  // per-op submission; with the default 2 s timeout, stalls last seconds.
  // Timeout-only handling never stalled in sizing, and 2 ms frees a
  // deadlocked worker quickly while rarely cutting a live wait short.
  p.deadlock_detection = false;
  p.lock_wait_timeout = std::chrono::milliseconds(2);
  return p;
}

struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    state += 0x9E3779B97F4A7C15ULL;
    return Mix(state, 0);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
};

/// One top-level transaction as a batch: a pure function of `stream`
/// (derived from the run seed and the unit's index) and the session.
void BuildTxn(const Params& p, std::uint64_t stream, std::uint64_t session,
              std::vector<BatchOp>* ops) {
  Rng rng{stream};
  ops->clear();
  ops->push_back(BatchOp::Begin());
  const bool nested = rng.Uniform() < p.nested_share;
  const bool child_aborts = nested && rng.Uniform() < p.child_abort_share;
  // The subtransaction wraps the middle third of the accesses.
  const std::uint32_t lo = p.ops_per_txn / 3;
  const std::uint32_t hi = 2 * p.ops_per_txn / 3;
  for (std::uint32_t i = 0; i < p.ops_per_txn; ++i) {
    if (nested && i == lo) ops->push_back(BatchOp::Begin());
    rnt::ObjectId key = 0;
    if (p.durable) {
      key = session * p.keys_per_session + rng.Below(p.keys_per_session);
    } else {
      key = rng.Uniform() < p.hot_share ? rng.Below(p.hot_keys)
                                        : rng.Below(p.key_space);
    }
    if (rng.Uniform() < p.write_share) {
      ops->push_back(BatchOp::Put(key, static_cast<rnt::Value>(
                                           1 + rng.Below(1000000))));
    } else {
      ops->push_back(BatchOp::Get(key));
    }
    if (nested && i + 1 == hi) {
      ops->push_back(child_aborts ? BatchOp::Abort() : BatchOp::Commit());
    }
  }
  ops->push_back(BatchOp::Commit());
}

/// Disjoint layer intervals of one unit's due→ack span (ns); their sum over
/// the end-to-end time is trace.coverage.
struct LayerTimes {
  double lag = 0;      // generator: due → first submit
  double submit = 0;   // inside AsyncFrontend::Submit (backpressure)
  double queue = 0;    // submit return → the worker's first engine call
  double engine = 0;   // engine calls (txn layer, checker Append inside)
  double barrier = 0;  // Wal::BarrierAll
};

/// One unit in flight: its batch, result storage and timestamps (ns).
struct Slot {
  std::vector<BatchOp> ops;
  std::vector<OpResult> results;
  std::size_t session_index = 0;
  AsyncFrontend::SessionId session = 0;
  int attempts = 0;
  std::int64_t due = 0;
  std::int64_t first_sent = 0;
  std::int64_t submit_begin = 0;
  std::int64_t submit_end = 0;
  // Written by the completion callback on the worker thread.
  std::int64_t ack = 0;
  AttemptTimes attempt;
  /// Traced: this unit's time per layer, summed over its attempts.
  LayerTimes layers;
};

/// What one phase measured.
struct PhaseStats {
  std::uint64_t units = 0;
  std::uint64_t commits = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  /// The measured span: [begin, end) — after warm-up in the closed loop.
  std::int64_t begin = 0;
  std::int64_t end = 0;
  /// Closed loop: ack instant of every committed unit.
  std::vector<std::int64_t> commit_acks;
  /// Open loop: per committed unit, stamped with its due time.
  std::vector<Stamped> latency_at;
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  double offered_per_s = 0;
  /// Traced, per attempt.
  std::vector<double> submit_us;
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  /// Traced, open loop: layer and end-to-end time summed over committed
  /// units (the trace.coverage numerators and denominator).
  LayerTimes layers;
  double e2e_ns = 0;
};

class Generator {
 public:
  Generator(AsyncFrontend* fe, const Params& p, std::uint64_t seed,
            bool traced)
      : fe_(fe), p_(p), seed_(seed), traced_(traced) {
    for (std::size_t s = 0; s < p_.sessions; ++s) {
      sessions_.push_back(fe_->OpenSession());
    }
  }

  PhaseStats Closed(double seconds, double warmup_s, std::uint64_t phase) {
    PhaseStats st;
    const std::int64_t start = NowNs();
    const std::int64_t warm_end = start + static_cast<std::int64_t>(warmup_s * 1e9);
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    phase_end_ = end;
    std::vector<std::uint64_t> next_index(p_.sessions, 0);
    std::vector<std::unique_ptr<Slot>> slots;
    std::size_t in_flight = 0;
    auto launch = [&](Slot* s, std::size_t k) {
      Prepare(s, Mix(Mix(seed_, phase), Mix(k, next_index[k]++)), k);
      Submit(s);
      ++st.units;
    };
    for (std::size_t k = 0; k < p_.sessions; ++k) {
      slots.push_back(std::make_unique<Slot>());
      launch(slots.back().get(), k);
      ++in_flight;
    }
    while (in_flight > 0) {
      for (Slot* s : WaitDone(INT64_MAX)) {
        if (!Settle(s, &st, /*open=*/false)) continue;
        if (s->results[s->ops.size() - 1].ok()) st.commit_acks.push_back(s->ack);
        if (NowNs() < end) {
          launch(s, s->session_index);
        } else {
          --in_flight;
        }
      }
    }
    st.begin = warm_end;
    st.end = end;
    return st;
  }

  PhaseStats Open(double seconds, double rate, std::uint64_t phase) {
    PhaseStats st;
    // Enough slots for a long stall at the offered rate; if they all are
    // in flight the generator waits, and the wait shows as lag/latency.
    std::vector<std::unique_ptr<Slot>> slots;
    std::vector<Slot*> free;
    for (int i = 0; i < 4096; ++i) {
      slots.push_back(std::make_unique<Slot>());
      free.push_back(slots.back().get());
    }
    const std::int64_t start = NowNs();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    phase_end_ = end;
    std::uint64_t i = 0;
    std::size_t in_flight = 0;
    for (;;) {
      const std::int64_t due = start + DueOffsetNs(i, rate);
      const bool more = due < end;
      if (!more && in_flight == 0) break;
      if (more && !free.empty() && NowNs() >= due) {
        Slot* s = free.back();
        free.pop_back();
        Prepare(s, Mix(Mix(seed_, phase), i), i % p_.sessions);
        s->due = due;
        Submit(s);
        ++st.units;
        ++in_flight;
        ++i;
        continue;
      }
      const std::int64_t deadline = more && !free.empty() ? due : INT64_MAX;
      for (Slot* s : WaitDone(deadline)) {
        if (!Settle(s, &st, /*open=*/true)) continue;
        free.push_back(s);
        --in_flight;
      }
    }
    st.begin = start;
    st.end = end;
    st.offered_per_s = static_cast<double>(st.units) / seconds;
    return st;
  }

 private:
  void Prepare(Slot* s, std::uint64_t stream, std::size_t session_index) {
    BuildTxn(p_, stream, session_index, &s->ops);
    s->results.assign(s->ops.size(), OpResult{});
    s->session_index = session_index;
    s->session = sessions_[session_index];
    s->attempts = 0;
    s->layers = LayerTimes{};
  }

  void Submit(Slot* s) {
    FailIfStalled();
    ++s->attempts;
    s->submit_begin = NowNs();
    if (s->attempts == 1) s->first_sent = s->submit_begin;
    const bool accepted = fe_->Submit(
        s->session, BatchRequest{std::span<const BatchOp>(s->ops)},
        s->results.data(), /*completion=*/nullptr,
        [this, s](const BatchResult&) {
          // Runs on the worker thread that executed the batch, right
          // after it: the thread-local attempt times are this batch's.
          s->ack = NowNs();
          s->attempt = ThisThreadAttempt();
          {
            std::lock_guard<std::mutex> lock(mu_);
            done_.push_back(s);
          }
          cv_.notify_one();
        });
    s->submit_end = NowNs();
    if (!accepted) {
      // Only after Shutdown; the driver never shuts down mid-phase.
      std::fprintf(stderr, "front end refused a submission\n");
      std::abort();
    }
  }

  /// A phase still running kDrainLimitNs after its end means the engine
  /// stalled: the run fails at once rather than outlive its time budget.
  void FailIfStalled() const {
    if (NowNs() < phase_end_ + kDrainLimitNs) return;
    std::fprintf(stderr,
                 "GATE FAILED: phase still running %lld s after its end; "
                 "the engine stalled\n",
                 static_cast<long long>(kDrainLimitNs / 1000000000));
    std::_Exit(1);
  }

  /// Blocks until a completion arrives or `deadline` (ns) passes.
  std::vector<Slot*> WaitDone(std::int64_t deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto tp = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
        std::min(deadline, phase_end_ + kDrainLimitNs)));
    cv_.wait_until(lock, tp, [&] { return !done_.empty(); });
    FailIfStalled();
    std::vector<Slot*> out(done_.begin(), done_.end());
    done_.clear();
    return out;
  }

  /// Accounts one finished attempt. Returns false when the unit was
  /// resubmitted (the engine aborted it and attempts remain).
  bool Settle(Slot* s, PhaseStats* st, bool open) {
    const bool committed = s->results[s->ops.size() - 1].ok();
    if (traced_) {
      const double submit = static_cast<double>(s->submit_end - s->submit_begin);
      const double queue = static_cast<double>(s->attempt.exec_begin - s->submit_end);
      const double exec = static_cast<double>(s->ack - s->attempt.exec_begin);
      st->submit_us.push_back(submit / 1e3);
      st->queue_us.push_back(queue / 1e3);
      st->exec_us.push_back(exec / 1e3);
      s->layers.submit += submit;
      s->layers.queue += queue;
      s->layers.engine += static_cast<double>(s->attempt.engine_ns);
      s->layers.barrier += static_cast<double>(s->attempt.barrier_ns);
    }
    if (!committed && s->attempts < kMaxAttempts) {
      ++st->retries;
      Submit(s);
      return false;
    }
    if (!committed) {
      ++st->failed;
      return true;
    }
    ++st->commits;
    if (open) {
      const UnitTimes t{s->due, s->first_sent, s->ack};
      st->latency_us.push_back(static_cast<double>(LatencyFromDueNs(t)) / 1e3);
      st->latency_at.push_back(Stamped{s->due, st->latency_us.back()});
      st->lag_us.push_back(static_cast<double>(LagNs(t)) / 1e3);
      if (traced_) {
        st->layers.lag += static_cast<double>(LagNs(t));
        st->layers.submit += s->layers.submit;
        st->layers.queue += s->layers.queue;
        st->layers.engine += s->layers.engine;
        st->layers.barrier += s->layers.barrier;
        st->e2e_ns += static_cast<double>(LatencyFromDueNs(t));
      }
    }
    return true;
  }

  AsyncFrontend* fe_;
  const Params p_;
  const std::uint64_t seed_;
  const bool traced_;
  std::vector<AsyncFrontend::SessionId> sessions_;
  std::int64_t phase_end_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Slot*> done_;
};

/// One engine stack under test plus its front end. Members are declared
/// so destruction runs front end → engine → WAL → sinks.
struct Stack {
  std::string dir;
  std::unique_ptr<OnlineChecker> checker;
  std::unique_ptr<TimedSink> timed_sink;
  std::unique_ptr<rnt::storage::Wal> wal;
  std::unique_ptr<rnt::storage::DurableEngine> durable;
  std::unique_ptr<TransactionManager> tm;
  std::unique_ptr<TimedEngine> timed;
  std::unique_ptr<AsyncFrontend> fe;

  TransactionManager::Stats EngineStats() const {
    return durable ? durable->engine_stats() : tm->stats();
  }
  rnt::storage::Wal::Stats WalStats() const {
    return durable ? durable->wal_stats() : wal->stats();
  }
};

TransactionManager::Options EngineOptions(const Params& p) {
  TransactionManager::Options o;
  o.lock_wait_timeout = p.lock_wait_timeout;
  o.deadlock_detection = p.deadlock_detection;
  return o;
}

/// Opens a stack in `dir`. Untraced: the public path — DurableEngine, or
/// a TransactionManager with the live checker as its trace sink. Traced:
/// the same objects behind the timing decorators; the durable stack is
/// assembled from Wal + TransactionManager as DurableEngine::Open does,
/// so the decorator can time the engine commit and the WAL barrier apart.
std::unique_ptr<Stack> OpenStack(const Params& p, const std::string& dir,
                                 TxnLayerSamples* layer, Samples* append,
                                 std::string* error) {
  auto st = std::make_unique<Stack>();
  st->dir = dir;
  const bool traced = layer != nullptr;
  rnt::txn::Engine* engine = nullptr;
  if (p.durable) {
    const rnt::storage::DurableEngineOptions defaults;
    if (!traced) {
      rnt::storage::DurableEngineOptions o;
      o.engine = EngineOptions(p);
      o.fsync = p.fsync;
      auto e = rnt::storage::DurableEngine::Open(dir, o);
      if (!e.ok()) {
        *error = e.status().ToString();
        return nullptr;
      }
      st->durable = std::move(*e);
      engine = st->durable.get();
    } else {
      rnt::storage::WalOptions w;
      w.dir = dir;
      w.workers = defaults.wal_workers;
      w.group_commit_interval = defaults.group_commit_interval;
      w.batch_records = defaults.batch_records;
      w.fsync = p.fsync;
      auto wal = rnt::storage::Wal::Open(w);
      if (!wal.ok()) {
        *error = wal.status().ToString();
        return nullptr;
      }
      st->wal = std::move(*wal);
      TransactionManager::Options o = EngineOptions(p);
      o.trace_sink = st->wal.get();
      st->tm = std::make_unique<TransactionManager>(o);
      st->timed = std::make_unique<TimedEngine>(st->tm.get(), st->wal.get(),
                                                layer);
      engine = st->timed.get();
    }
  } else {
    st->checker = std::make_unique<OnlineChecker>(
        OnlineChecker::Options{OnlineChecker::Mode::kRw, 256});
    TransactionManager::Options o = EngineOptions(p);
    if (traced) {
      st->timed_sink = std::make_unique<TimedSink>(st->checker.get(), append);
      o.trace_sink = st->timed_sink.get();
    } else {
      o.trace_sink = st->checker.get();
    }
    st->tm = std::make_unique<TransactionManager>(o);
    if (traced) {
      st->timed = std::make_unique<TimedEngine>(st->tm.get(), nullptr, layer);
      engine = st->timed.get();
    } else {
      engine = st->tm.get();
    }
  }
  st->fe = std::make_unique<AsyncFrontend>(
      engine, AsyncFrontend::Options{p.workers, p.queue_capacity});
  return st;
}

/// The correctness gates. Shuts the front end down first. contended: the
/// live checker's verdict is kOk and no lock record leaked. durable: the
/// engine is closed, storage::Recover replays its directory into a fresh
/// checker, recovered top-level commits >= acked ones, verdict kOk.
/// Returns the Recover wall time (0 when not durable).
double Gate(const Params& p, std::unique_ptr<Stack> st, std::uint64_t acked,
            const std::string& label, Report* rep) {
  st->fe->Shutdown();
  if (!p.durable) {
    const auto v = st->checker->Verdict();
    if (v.outcome != OnlineChecker::Outcome::kOk) {
      rep->Fail(label + ": live checker rejected the run: " + v.detail);
    }
    const std::uint64_t leaked = st->tm->stats().lock_records;
    if (leaked != 0) {
      rep->Fail(label + ": " + std::to_string(leaked) +
                " lock records left after quiescence");
    }
    return 0;
  }
  const std::string dir = st->dir;
  st.reset();  // closes the WAL: everything acked is on disk
  OnlineChecker checker(OnlineChecker::Options{OnlineChecker::Mode::kRw, 256});
  rnt::storage::RecoveryOptions ro;
  ro.dir = dir;
  ro.history_sink = &checker;
  const std::int64_t t0 = NowNs();
  auto rec = rnt::storage::Recover(ro);
  const double recover_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!rec.ok()) {
    rep->Fail(label + ": recovery failed: " + rec.status().ToString());
    return recover_s;
  }
  if (rec->committed_top < acked) {
    rep->Fail(label + ": recovered " + std::to_string(rec->committed_top) +
              " top-level commits < " + std::to_string(acked) + " acked");
  }
  const auto v = checker.Verdict();
  if (v.outcome != OnlineChecker::Outcome::kOk) {
    rep->Fail(label + ": checker rejected the recovered history: " + v.detail);
  }
  return recover_s;
}

double WalBytes(const std::string& dir) {
  double bytes = 0;
  for (const std::string& path : rnt::storage::ListWalFiles(dir)) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec) bytes += static_cast<double>(size);
  }
  return bytes;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Closed-loop commits/s over kWindows spans of the measured window, taken
/// from the quiet side (stats.h).
double CommitRate(const PhaseStats& ph) {
  return WindowedRate(ph.commit_acks, ph.begin, ph.end, kWindows, kQuietHigh);
}

/// Open-loop latency quantile (µs): per-span quantile, quiet side.
double OpenQuantile(const PhaseStats& ph, double q) {
  return WindowedQuantile(ph.latency_at, ph.begin, ph.end, kWindows, q,
                          kQuietLow);
}

void CountUnits(const PhaseStats& ph, Report* rep) {
  rep->attempted += ph.units;
  rep->failed += ph.failed;
}

/// The untraced measurement: repeated set-up (median reported), then the
/// closed- and open-loop phases on the last stack, then the gates.
void RunEndToEnd(const Params& p, const RunContext& ctx, Report* rep) {
  std::vector<double> setup_s;
  std::unique_ptr<Stack> st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (st) {
      const std::string old = st->dir;
      st.reset();
      RemoveTree(old);
    }
    const std::string dir = ctx.dir + "/engine-" + std::to_string(r);
    MakeDirs(dir);
    std::string error;
    const std::int64_t t0 = NowNs();
    st = OpenStack(p, dir, nullptr, nullptr, &error);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st) {
      rep->Fail("engine open failed: " + error);
      return;
    }
  }
  Generator gen(st->fe.get(), p, ctx.seed, /*traced=*/false);
  const PhaseStats closed =
      gen.Closed(ctx.seconds * 0.5, ctx.seconds * 0.05, /*phase=*/1);
  const PhaseStats open = gen.Open(ctx.seconds * 0.5, p.open_rate_per_s, 2);
  const double rss = PeakRssMb();
  CountUnits(closed, rep);
  CountUnits(open, rep);

  const Quantile p99 = Select(open.latency_us, 0.99);
  rep->Set("setup_s", Select(setup_s, kQuietLow).value, "s");
  rep->Set("throughput_per_s", CommitRate(closed), "1/s");
  rep->Set("latency_p50_us", OpenQuantile(open, 0.5), "us");
  rep->Set("latency_tail_us", OpenQuantile(open, 0.9), "us");
  rep->Set("peak_rss_mb", rss, "MB");
  rep->Info("latency_samples", static_cast<double>(p99.n), "count");
  rep->Info("commit_p99_us", p99.value, "us");
  rep->Info("commit_p99_samples_beyond", static_cast<double>(p99.beyond),
            "count");
  rep->Info("gen.lag_p99_us", Select(open.lag_us, 0.99).value, "us");
  rep->Info("gen.offered_per_s", open.offered_per_s, "1/s");
  rep->Info("open_rate_per_s", p.open_rate_per_s, "1/s");
  rep->Info("retries", static_cast<double>(closed.retries + open.retries),
            "count");
  const auto es = st->EngineStats();
  rep->Info("txn.deadlock_aborts", static_cast<double>(es.deadlock_aborts),
            "count");
  rep->Info("txn.timeout_aborts", static_cast<double>(es.timeout_aborts),
            "count");
  Gate(p, std::move(st), closed.commits + open.commits, "end-to-end", rep);
}

/// The traced measurement: an untraced closed-loop reference, then the
/// same workload through the timing decorators (closed loop for
/// trace.overhead, open loop for the per-layer breakdown).
void RunTraced(const Params& p, const RunContext& ctx, Report* rep) {
  const double third = ctx.seconds / 3;
  double untraced_cps = 0;
  {
    const std::string dir = ctx.dir + "/reference";
    MakeDirs(dir);
    std::string error;
    auto st = OpenStack(p, dir, nullptr, nullptr, &error);
    if (!st) {
      rep->Fail("engine open failed: " + error);
      return;
    }
    Generator gen(st->fe.get(), p, ctx.seed, /*traced=*/false);
    const PhaseStats ref = gen.Closed(third, third * 0.1, /*phase=*/1);
    CountUnits(ref, rep);
    untraced_cps = CommitRate(ref);
    Gate(p, std::move(st), ref.commits, "reference", rep);
    RemoveTree(dir);
  }

  TxnLayerSamples layer;
  Samples append;
  const std::string dir = ctx.dir + "/traced";
  MakeDirs(dir);
  std::string error;
  auto st = OpenStack(p, dir, &layer, &append, &error);
  if (!st) {
    rep->Fail("engine open failed: " + error);
    return;
  }
  Generator gen(st->fe.get(), p, ctx.seed, /*traced=*/true);
  const PhaseStats closed = gen.Closed(third, third * 0.1, /*phase=*/1);
  const std::int64_t open_t0 = NowNs();
  const double append_before_ns = append.TotalNs();
  const PhaseStats open = gen.Open(third, p.open_rate_per_s, /*phase=*/2);
  const double open_wall_ns = static_cast<double>(NowNs() - open_t0);
  CountUnits(closed, rep);
  CountUnits(open, rep);
  st->fe->Shutdown();

  const double top_attempts = static_cast<double>(
      closed.units + closed.retries + open.units + open.retries);
  const double commits = static_cast<double>(closed.commits + open.commits);

  rep->Set("gen.lag_p99_us", Select(open.lag_us, 0.99).value, "us");
  rep->Set("gen.offered_per_s", open.offered_per_s, "1/s");
  rep->Set("gen.retries", static_cast<double>(closed.retries + open.retries),
           "count");
  rep->Set("gen.latency_samples", static_cast<double>(open.latency_us.size()),
           "count");
  rep->Set("gen.commit_p99_us", Select(open.latency_us, 0.99).value, "us");
  rep->Set("frontend.submit_us_p99", Select(open.submit_us, 0.99).value, "us");
  rep->Set("frontend.queue_wait_us_p50", Select(open.queue_us, 0.5).value, "us");
  rep->Set("frontend.queue_wait_us_p99", Select(open.queue_us, 0.99).value, "us");
  rep->Set("frontend.exec_us_p50", Select(open.exec_us, 0.5).value, "us");
  rep->Set("frontend.exec_us_p99", Select(open.exec_us, 0.99).value, "us");
  rep->Set("frontend.backpressure_waits",
           static_cast<double>(st->fe->stats().backpressure_waits), "count");

  rep->Set("txn.access_us_p50", Select(layer.access.Us(), 0.5).value, "us");
  rep->Set("txn.access_us_p99", Select(layer.access.Us(), 0.99).value, "us");
  rep->Set("txn.begin_us_p50", Select(layer.begin.Us(), 0.5).value, "us");
  rep->Set("txn.child_commit_us_p50", Select(layer.child_commit.Us(), 0.5).value, "us");
  rep->Set("txn.top_commit_us_p50", Select(layer.top_commit.Us(), 0.5).value, "us");
  rep->Set("txn.top_commit_us_p99", Select(layer.top_commit.Us(), 0.99).value, "us");
  rep->Set("txn.abort_us_p50", Select(layer.abort.Us(), 0.5).value, "us");
  const auto es = st->EngineStats();
  rep->Set("txn.lock_waits_per_txn",
           Ratio(static_cast<double>(es.lock_waits), top_attempts), "ratio");
  rep->Set("txn.deadlock_aborts", static_cast<double>(es.deadlock_aborts), "count");
  rep->Set("txn.timeout_aborts", static_cast<double>(es.timeout_aborts), "count");
  rep->Set("txn.cascade_aborts", static_cast<double>(es.cascade_aborts), "count");

  rep->Set("storage.fdatasync_us_p50", FdatasyncProbeUsP50(ctx.dir), "us");
  if (p.durable) {
    const auto ws = st->WalStats();
    rep->Set("storage.barrier_wait_us_p50", Select(layer.barrier.Us(), 0.5).value, "us");
    rep->Set("storage.barrier_wait_us_p99", Select(layer.barrier.Us(), 0.99).value, "us");
    rep->Set("storage.records_per_flush",
             Ratio(static_cast<double>(ws.synced_records),
                   static_cast<double>(ws.batches)), "ratio");
    rep->Set("storage.commits_per_flush",
             Ratio(commits, static_cast<double>(ws.batches)), "ratio");
    rep->Set("storage.records_per_commit",
             Ratio(static_cast<double>(ws.appended), commits), "ratio");
    rep->Set("storage.wal_bytes_per_commit", Ratio(WalBytes(dir), commits), "B");
  } else {
    const auto cs = st->checker->stats();
    rep->Set("checker.append_us_p50", Select(append.Us(), 0.5).value, "us");
    rep->Set("checker.append_us_p99", Select(append.Us(), 0.99).value, "us");
    rep->Set("checker.busy_share",
             Ratio(append.TotalNs() - append_before_ns, open_wall_ns), "ratio");
    rep->Set("checker.events_per_txn",
             Ratio(static_cast<double>(cs.events), top_attempts), "ratio");
    rep->Set("checker.peak_tracked", static_cast<double>(cs.peak_tracked), "count");
  }

  const LayerTimes& l = open.layers;
  rep->Set("trace.coverage",
           Coverage({l.lag, l.submit, l.queue, l.engine, l.barrier}, open.e2e_ns),
           "ratio");
  rep->Set("trace.overhead",
           Ratio(CommitRate(closed), untraced_cps),
           "ratio");
  const double recover_s =
      Gate(p, std::move(st), closed.commits + open.commits, "traced", rep);
  if (p.durable) rep->Set("storage.recover_s", recover_s, "s");
}

Report RunFrontend(const Params& p, const RunContext& ctx) {
  Report rep;
  AddHostFacts(ctx, &rep);
  if (ctx.trace) {
    RunTraced(p, ctx, &rep);
  } else {
    RunEndToEnd(p, ctx, &rep);
  }
  return rep;
}

}  // namespace

Report RunDurableOltp(const RunContext& ctx) {
  return RunFrontend(DurableOltpParams(), ctx);
}

Report RunContendedCertified(const RunContext& ctx) {
  return RunFrontend(ContendedParams(), ctx);
}

}  // namespace perfbench
