#include "sim/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/message_buffer.h"
#include "sim/node_loop.h"
#include "sim/transport.h"
#include "storage/retention_log.h"
#include "txn/online_checker.h"

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistAlgebra;
using dist::DistEvent;
using dist::DistState;

/// Multi-threaded host of ℬ: one NodeLoop (node_loop.h) per node thread.
///
/// Race-freedom rests on the algebra's structure, not on locks. Thread i
/// exclusively owns state_.nodes[i] (every node event's precondition and
/// effect touch only the doer's component — Local Domain / Local Changes,
/// Lemma 22) and state_.buffer[i] (the loop applies a Send on the
/// receiving thread when the message is drained). The only cross-thread
/// channel is the mutex-free ConcurrentMailbox.
///
/// The recorded event log is a valid ℬ computation in stamp order even
/// though no thread ever checks a Send against the sender's component:
/// summaries are monotone (entries are only added, statuses only advance),
/// so a payload that was a sub-summary of the sender's knowledge when it
/// was enqueued stays one at every later point — and the stamp counter is
/// an RMW on one atomic, totally ordered consistently with the mailbox's
/// release/acquire edges.
///
/// Resilience: the stamp counter doubles as the *logical clock* for the
/// full FaultPlan. M_i is the mailbox's retention buffer (written through
/// to a RetentionLog under durable_dir). A crash wipes the node's
/// volatile summary and terminates its thread between two passes; the
/// supervisor joins it and, once the logical clock passes the rebirth
/// stamp (or the whole system quiesces — liveness beats schedule
/// fidelity), spawns a fresh thread whose loop replays M_i with one legal
/// Receive. Partitions are enforced by the mailbox's link filter on the
/// same clock.
class ParallelRunner {
 public:
  ParallelRunner(const DistAlgebra& alg, const ParallelOptions& options)
      : alg_(alg),
        topo_(alg.topology()),
        options_(options),
        state_(alg.Initial()),
        mailbox_(topo_.k()),
        link_check_(options.plan),
        live_lowering_(&alg.registry()) {}

  StatusOr<ParallelRun> Run() {
    RNT_RETURN_IF_ERROR(
        ValidateLoopOptions(options_.propagation, topo_.k(), options_.plan));
    auto plan = PlanProgram(alg_, options_.abort_set);
    RNT_RETURN_IF_ERROR(plan.status());
    plan_ = std::move(*plan);
    if (!options_.durable_dir.empty()) {
      // Durable M_i write-through: one append-only log per node. Opened
      // before any thread exists; appends happen on the owner thread
      // under the same single-writer discipline as mailbox retention.
      retention_logs_.resize(topo_.k());
      for (NodeId i = 0; i < topo_.k(); ++i) {
        auto log = storage::RetentionLog::Open(options_.durable_dir, i);
        RNT_RETURN_IF_ERROR(log.status());
        retention_logs_[i] = std::move(*log);
      }
    }
    NodeLoop::Config config;
    config.propagation = options_.propagation;
    config.max_attempts_per_step = options_.max_attempts_per_step;
    config.max_idle_spins = options_.max_idle_spins;
    config.watchdog = options_.plan.drop_prob > 0 ||
                      !options_.plan.crashes.empty() ||
                      !options_.plan.partitions.empty();
    config.keep_log = options_.record_events;
    for (NodeId i = 0; i < topo_.k(); ++i) {
      config.self = i;
      nodes_.push_back(std::make_unique<NodeThread>(*this, config));
    }
    if (!options_.plan.partitions.empty()) {
      // Link-level partition enforcement at the mailbox, judged on the
      // logical clock (loop passes are not rounds).
      mailbox_.SetLinkFilter([this](NodeId from, NodeId to) {
        return link_check_.PartitionedAtStamp(
            from, to,
            static_cast<std::int64_t>(seq_.load(std::memory_order_relaxed)));
      });
    }
    return Supervise();
  }

 private:
  /// Thread-lifecycle state of one node, for the crash/rebirth handshake
  /// with the supervisor. Written by the node thread (kCrashed/kFinished,
  /// release) and by the supervisor (kAwaitingRebirth after join,
  /// kRunning before respawn).
  enum ExitState : int {
    kRunning = 0,
    kCrashed,          // thread returned after a crash wipe; join me
    kAwaitingRebirth,  // joined; waiting for the rebirth stamp
    kFinished,         // thread returned for good
  };

  /// One node: its loop, the thread host's hooks, the per-node fault
  /// injector for outgoing transmissions, and the crash schedule.
  struct NodeThread final : NodeHost {
    NodeThread(ParallelRunner& r, const NodeLoop::Config& config)
        : runner(r),
          id(config.self),
          injector(SeededPlan(r.options_.plan, config.self)),
          loop(r.alg_, r.state_, r.plan_, config, *this),
          crash_specs(r.options_.plan.CrashesOf(id)) {}

    Status Record(const DistEvent& e, std::uint64_t* stamp) override {
      return runner.Record(e, stamp);
    }

    /// M_i in memory, then written through to the on-disk log (no-op
    /// without durable_dir), so disk M_i trails memory by at most the
    /// entries of the current call.
    Status Retain(const ActionSummary& payload) override {
      runner.mailbox_.Retain(id, payload);
      if (runner.retention_logs_.empty()) return Status::Ok();
      for (const auto& [a, s] : payload.entries()) {
        RNT_RETURN_IF_ERROR(runner.retention_logs_[id]->Append(a, s));
      }
      return Status::Ok();
    }

    /// Pushes one transmission through the (possibly chaotic) concurrent
    /// buffer. round = -1: the free-running loop has no rounds, so the
    /// injector's round-window partition check is disabled; partitions
    /// are enforced link-level by the mailbox filter on the logical clock
    /// instead. The fixed-draw contract is untouched (draw count never
    /// depends on the round).
    void Send(NodeId to, ActionSummary payload) override {
      faults::FaultInjector::Verdict v =
          injector.OnMessage(id, to, /*round=*/-1);
      DriverStats& stats = loop.stats();
      if (v.drop) {
        ++stats.dropped_msgs;
        return;
      }
      if (v.duplicate_delay >= 0) {
        ++stats.duplicated_msgs;
        if (!runner.transport_.Send(
                to, TransportMessage{id, payload,
                                     std::max(1, v.duplicate_delay), 0})) {
          ++stats.dropped_msgs;  // severed link: the network ate it
        }
      }
      if (!runner.transport_.Send(
              to, TransportMessage{id, std::move(payload), v.delay, 0})) {
        ++stats.dropped_msgs;
      }
    }

    std::vector<TransportMessage> Poll() override {
      if (runner.transport_.Idle(id)) return {};
      return runner.transport_.Poll(id);
    }

    void OnDone() override {
      runner.done_nodes_.fetch_add(1, std::memory_order_acq_rel);
    }

    bool AllDone() override {
      return runner.done_nodes_.load(std::memory_order_acquire) ==
             runner.topo_.k();
    }

    /// A crash is due once the logical clock reaches the next trigger; the
    /// loop then stops between two passes.
    bool Halted() override {
      if (runner.failed_.load(std::memory_order_acquire)) return true;
      crash_due = next_crash < crash_specs.size() &&
                  static_cast<std::int64_t>(runner.seq_.load(
                      std::memory_order_acquire)) >=
                      crash_specs[next_crash].TriggerStamp();
      return crash_due;
    }

    void Tick() override {
      runner.seq_.fetch_add(1, std::memory_order_acq_rel);
    }

    bool Pace(bool progress) override {
      if (!progress) std::this_thread::yield();
      return true;
    }

    static faults::FaultPlan SeededPlan(faults::FaultPlan plan, NodeId i) {
      plan.seed = plan.seed * 1000003u + 17u * i + 1u;
      return plan;
    }

    ParallelRunner& runner;
    const NodeId id;
    faults::FaultInjector injector;
    NodeLoop loop;
    /// Crash schedule and the rebirth handshake with the supervisor.
    const std::vector<faults::CrashSpec> crash_specs;
    std::size_t next_crash = 0;
    bool crash_due = false;
    std::int64_t rebirth_stamp = 0;
    std::atomic<int> exit_state{kRunning};
  };

  // ----------------------------------------------------------------
  // Supervisor: spawns node threads, joins crashed ones, and rebirths
  // them once the logical clock passes their rebirth stamp.

  StatusOr<ParallelRun> Supervise() {
    const NodeId k = topo_.k();
    std::vector<std::thread> threads(k);
    auto spawn = [&](NodeId i, bool recover) {
      nodes_[i]->exit_state.store(kRunning, std::memory_order_release);
      threads[i] =
          std::thread([this, i, recover] { RunNode(*nodes_[i], recover); });
    };
    for (NodeId i = 0; i < k; ++i) spawn(i, /*recover=*/false);
    std::uint64_t last_seq = seq_.load(std::memory_order_acquire);
    int quiet_polls = 0;
    // One poll every 50us; ~10ms of global stamp silence counts as
    // quiescence (every live node is stalled, so waiting longer for a
    // rebirth stamp cannot help — the clock only advances with events).
    constexpr int kQuiescentPolls = 200;
    for (;;) {
      bool all_finished = true;
      bool awaiting = false;
      bool others_live = false;
      for (NodeId i = 0; i < k; ++i) {
        NodeThread& w = *nodes_[i];
        int st = w.exit_state.load(std::memory_order_acquire);
        if (st == kCrashed) {
          threads[i].join();
          w.exit_state.store(kAwaitingRebirth, std::memory_order_relaxed);
          st = kAwaitingRebirth;
        }
        if (st == kFinished) continue;
        all_finished = false;
        if (st == kAwaitingRebirth) {
          awaiting = true;
        } else {
          others_live = true;
        }
      }
      if (all_finished) break;
      const std::uint64_t now_seq = seq_.load(std::memory_order_acquire);
      quiet_polls = now_seq == last_seq ? quiet_polls + 1 : 0;
      last_seq = now_seq;
      if (awaiting) {
        const bool failed = failed_.load(std::memory_order_acquire);
        const bool force =
            failed || !others_live || quiet_polls >= kQuiescentPolls;
        for (NodeId i = 0; i < k; ++i) {
          NodeThread& w = *nodes_[i];
          if (w.exit_state.load(std::memory_order_relaxed) !=
              kAwaitingRebirth) {
            continue;
          }
          if (failed) {
            // The run is already lost; skip the rebirth ceremony.
            w.exit_state.store(kFinished, std::memory_order_relaxed);
            continue;
          }
          if (force ||
              static_cast<std::int64_t>(now_seq) >= w.rebirth_stamp) {
            spawn(i, /*recover=*/true);
            quiet_polls = 0;
          }
        }
      }
      // Wall-clock poll interval: liveness only — never semantics. The
      // run's outcome is independent of how often the supervisor looks.
      std::this_thread::sleep_for(  // rnt-lint: allow(wall-clock-wait)
          std::chrono::microseconds(50));
    }
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
    {
      MutexLock lock(error_mu_);
      if (!first_error_.ok()) return first_error_;
    }
    return Assemble();
  }

  /// One node thread: rebirth first when `recover`, then the loop until
  /// it ends. A crash hands the thread back to the supervisor after
  /// wiping the loop's volatile state.
  void RunNode(NodeThread& w, bool recover) {
    Status s = recover ? Rebirth(w) : Status::Ok();
    if (s.ok()) s = w.loop.Run();
    if (!s.ok()) Fail(std::move(s));
    if (w.crash_due) {
      const faults::CrashSpec& spec = w.crash_specs[w.next_crash];
      ++w.next_crash;
      w.crash_due = false;
      w.loop.Crash();
      w.rebirth_stamp = spec.RebirthStamp();
      w.exit_state.store(kCrashed, std::memory_order_release);
      return;  // the supervisor rebirths us
    }
    w.exit_state.store(kFinished, std::memory_order_release);
  }

  /// Rebirth from the mailbox's M_i. With durable_dir, the on-disk log is
  /// re-read first and must cover everything the in-memory M_i holds —
  /// write-through happened before this thread died, so a process restart
  /// would have recovered at least this knowledge.
  Status Rebirth(NodeThread& w) {
    const ActionSummary& m = mailbox_.Retained(w.id);
    if (!retention_logs_.empty()) {
      auto loaded = storage::RetentionLog::Load(options_.durable_dir, w.id);
      RNT_RETURN_IF_ERROR(loaded.status());
      if (!m.IsSubsummaryOf(*loaded)) {
        return Status::Internal(
            "parallel runner: durable retention log for node " +
            std::to_string(w.id) +
            " does not cover the in-memory M_i (write-through broken)");
      }
    }
    return w.loop.Rebirth(m);
  }

  /// Stamp and record (NodeHost::Record for every node thread). Without a
  /// live sink this is one relaxed RMW. With one, the stamp, the lowering,
  /// and the sink Append form one critical section, so the live stream's
  /// order is exactly the stamp order a post-hoc replay of the merged log
  /// walks — the live verdict and the post-hoc verdict judge the same
  /// sequence.
  Status Record(const DistEvent& e, std::uint64_t* stamp) {
    if (options_.live_sink == nullptr) {
      if (options_.record_events) {
        *stamp = seq_.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::Ok();
    }
    MutexLock lock(live_mu_);
    *stamp = seq_.fetch_add(1, std::memory_order_relaxed);
    if (auto image = dist::DistToValueEvent(e)) {
      if (auto tree_ev = algebra::LockToTreeEvent(*image)) {
        if (auto trace_ev = live_lowering_.Lower(*tree_ev)) {
          options_.live_sink->Append(*trace_ev);
        }
      }
    }
    return Status::Ok();
  }

  void Fail(Status s) {
    bool expected = false;
    if (failed_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
      MutexLock lock(error_mu_);
      first_error_ = std::move(s);
    }
  }

  StatusOr<ParallelRun> Assemble() {
    ParallelRun run;
    run.final_state = std::move(state_);
    std::size_t total = 0;
    for (const std::unique_ptr<NodeThread>& w : nodes_) {
      const DriverStats& s = w->loop.stats();
      run.stats.node_events += s.node_events;
      run.stats.messages += s.messages;
      run.stats.summary_entries += s.summary_entries;
      run.stats.performs += s.performs;
      run.stats.commits += s.commits;
      run.stats.aborts += s.aborts;
      run.stats.releases += s.releases;
      run.stats.loses += s.loses;
      run.stats.retries += s.retries;
      run.stats.crashes += s.crashes;
      run.stats.recovered_nodes += s.recovered_nodes;
      run.stats.timeout_aborts += s.timeout_aborts;
      run.stats.dropped_msgs += s.dropped_msgs;
      run.stats.duplicated_msgs += s.duplicated_msgs;
      run.stats.delayed_msgs += s.delayed_msgs;
      run.stats.rounds = std::max(run.stats.rounds,
                                  static_cast<int>(std::min<std::uint64_t>(
                                      w->loop.passes(), 0x7fffffff)));
      if (w->loop.gave_up()) run.complete = false;
      total += w->loop.log().size();
    }
    std::vector<StampedEvent> merged;
    merged.reserve(total);
    for (const std::unique_ptr<NodeThread>& w : nodes_) {
      std::vector<StampedEvent>& log = w->loop.log();
      std::move(log.begin(), log.end(), std::back_inserter(merged));
      log.clear();
    }
    std::sort(merged.begin(), merged.end(),
              [](const StampedEvent& a, const StampedEvent& b) {
                return a.stamp < b.stamp;
              });
    run.events.reserve(merged.size());
    for (StampedEvent& se : merged) run.events.push_back(std::move(se.event));
    return run;
  }

  const DistAlgebra& alg_;
  const dist::Topology& topo_;
  const ParallelOptions& options_;
  DistState state_;
  LoopPlan plan_;
  ConcurrentMailbox mailbox_;
  /// The in-process transport backend (transport.h).
  MailboxTransport transport_{&mailbox_};
  /// Per-node durable retention logs (empty without durable_dir); the
  /// slot for node i is appended to only by i's current thread.
  std::vector<std::unique_ptr<storage::RetentionLog>> retention_logs_;
  /// Const after construction; consulted concurrently by the mailbox's
  /// link filter (PartitionedAtStamp only reads the plan).
  faults::FaultInjector link_check_;
  std::vector<std::unique_ptr<NodeThread>> nodes_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint32_t> done_nodes_{0};
  std::atomic<bool> failed_{false};
  Mutex error_mu_{"runner.error", kRankRunnerError};
  /// The first failure wins; read back single-threaded after join().
  Status first_error_ GUARDED_BY(error_mu_) = Status::Ok();
  /// Serializes the live-sink path in Record(): stamp + lower + Append
  /// as one step (see ParallelOptions::live_sink).
  Mutex live_mu_{"runner.live", kRankRunnerLive};
  txn::TreeEventLowering live_lowering_ GUARDED_BY(live_mu_);
};

}  // namespace

StatusOr<ParallelRun> RunParallel(const dist::DistAlgebra& alg,
                                  const ParallelOptions& options) {
  ParallelRunner runner(alg, options);
  return runner.Run();
}

StatusOr<valuemap::ValState> ReplayAbstract(
    const dist::DistAlgebra& alg, std::span<const dist::DistEvent> events) {
  return ReplayAbstract(alg, events, nullptr);
}

StatusOr<valuemap::ValState> ReplayAbstract(const dist::DistAlgebra& alg,
                                            std::span<const dist::DistEvent> events,
                                            txn::TraceSink* sink) {
  valuemap::ValueMapAlgebra val_alg(&alg.registry());
  valuemap::ValState s = val_alg.Initial();
  txn::TreeEventLowering lowering(&alg.registry());
  for (const dist::DistEvent& e : events) {
    std::optional<algebra::LockEvent> image = dist::DistToValueEvent(e);
    if (!image.has_value()) continue;  // send/receive -> Λ
    if (!val_alg.Defined(s, *image)) {
      return Status::Internal(
          "refinement violated: no level-4 image for " + dist::ToString(e));
    }
    val_alg.Apply(s, *image);
    if (sink != nullptr) {
      // Stream the event's trace form as it replays, so an online
      // checker sees exactly the prefix order the tree is built in.
      if (auto tree_ev = algebra::LockToTreeEvent(*image)) {
        if (auto trace_ev = lowering.Lower(*tree_ev)) sink->Append(*trace_ev);
      }
    }
  }
  return s;
}

}  // namespace rnt::sim
