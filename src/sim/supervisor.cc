#include "sim/supervisor.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/event_log.h"
#include "sim/node_loop.h"
#include "sim/process_chaos.h"
#include "sim/wire.h"

namespace rnt::sim {

namespace {

using dist::DistEvent;

/// Longest wait for a hub event between two looks at the children. It
/// bounds how late a stamp-triggered kill or rebirth and a child's death
/// are noticed: summary frames move the hub clock without a signal, and
/// a dying child closes its socket before it can be reaped.
constexpr int kSupervisorWaitCapMs = 2;
/// Hub-clock silence that counts as quiescence: every live node is
/// stalled (or done), so waiting longer for a trigger or rebirth stamp
/// cannot help — the clock only advances with node events and watchdog
/// ticks.
constexpr std::int64_t kQuiescentMs = 500;


struct Child {
  pid_t pid = -1;
  std::uint32_t incarnation = 0;
  bool alive = false;
  bool awaiting_rebirth = false;
  std::int64_t rebirth_stamp = 0;
  std::vector<faults::CrashSpec> specs;  // sorted by trigger stamp
  std::size_t next_spec = 0;
  std::uint64_t max_acked = 0;
};

StatusOr<pid_t> SpawnNode(const SupervisorOptions& options, NodeId node,
                          std::uint32_t incarnation, bool recover,
                          const std::string& endpoint) {
  std::vector<std::string> args;
  args.push_back(options.node_binary);
  args.push_back("--spec=" + options.spec.Serialize());
  args.push_back("--node=" + std::to_string(node));
  args.push_back("--dir=" + options.dir);
  args.push_back("--endpoint=" + endpoint);
  args.push_back("--incarnation=" + std::to_string(incarnation));
  args.push_back(std::string("--propagation=") +
                 (options.propagation == Propagation::kEager ? "eager"
                                                             : "delta"));
  args.push_back("--max-idle-spins=" +
                 std::to_string(options.node_max_idle_spins));
  if (recover) args.push_back("--recover");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("supervisor: fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the parent sees the 127 below
  }
  return pid;
}

std::string DescribeNodes(const std::vector<SocketHub::NodeStatus>& snap,
                          const std::vector<Child>& children) {
  std::string out;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    out += "node " + std::to_string(i) + ": pid=" +
           std::to_string(children[i].pid) +
           " inc=" + std::to_string(children[i].incarnation) +
           (snap[i].connected ? " connected" : " disconnected") +
           (snap[i].done ? " done" : " pending") +
           (snap[i].gave_up ? " gave-up" : "") +
           " clock=" + std::to_string(snap[i].clock) +
           " acked=" + std::to_string(snap[i].acked_scalar) + "; ";
  }
  return out;
}

}  // namespace

StatusOr<MultiProcessRun> RunMultiProcess(const SupervisorOptions& options) {
  const NodeId k = options.spec.k;
  RNT_RETURN_IF_ERROR(
      ValidateLoopOptions(options.propagation, k, options.plan));

  SocketHub::Options hub_options;
  hub_options.backend = options.backend;
  hub_options.dir = options.dir;
  hub_options.k = k;
  hub_options.plan = options.plan;
  auto hub_or = SocketHub::Start(hub_options);
  RNT_RETURN_IF_ERROR(hub_or.status());
  SocketHub& hub = **hub_or;

  std::vector<Child> children(k);
  for (NodeId i = 0; i < k; ++i) children[i].specs = options.plan.CrashesOf(i);
  // On any early return, make sure no child outlives the harness.
  auto kill_all = [&] {
    for (Child& ch : children) {
      if (ch.alive && ch.pid > 0) {
        (void)::kill(ch.pid, SIGKILL);
        // Cleanup path of an already-failing run: the first error
        // wins, a reap timeout here could only mask it.
        (void)ReapWithDeadline(  // rnt-lint: allow(status-must-use)
            ch.pid, 10000, "node (cleanup)");
        ch.alive = false;
      }
    }
  };

  for (NodeId i = 0; i < k; ++i) {
    auto pid = SpawnNode(options, i, 0, /*recover=*/false, hub.endpoint());
    if (!pid.ok()) {
      kill_all();
      return pid.status();
    }
    children[i].pid = *pid;
    children[i].alive = true;
  }

  MultiProcessRun run;
  run.acked_at_kill.assign(k, 0);
  run.recovered_scalar.assign(k, 0);

  const std::int64_t start_ms = MonotonicMs();
  std::uint64_t last_clock = 0;
  std::int64_t clock_moved_ms = start_ms;
  std::uint64_t seen = 0;  // hub progress count, for AwaitProgress
  bool shutdown = false;

  while (!shutdown) {
    const std::int64_t now_ms = MonotonicMs();
    if (now_ms - start_ms > options.deadline_ms) {
      const std::string diag = DescribeNodes(hub.Snapshot(), children);
      kill_all();
      return Status::Timeout("multi-process run exceeded " +
                             std::to_string(options.deadline_ms) +
                             "ms; " + diag);
    }
    const auto snap = hub.Snapshot();
    std::uint64_t observed = 0;
    for (NodeId i = 0; i < k; ++i) {
      observed = std::max(observed, snap[i].clock);
      children[i].max_acked =
          std::max(children[i].max_acked, snap[i].acked_scalar);
      run.recovered_scalar[i] =
          std::max(run.recovered_scalar[i], snap[i].recovered_scalar);
    }
    if (observed != last_clock) {
      last_clock = observed;
      clock_moved_ms = now_ms;
    }
    const bool quiesced = now_ms - clock_moved_ms >= kQuiescentMs;

    // Unexpected deaths: any child exiting before kAllDone is a failure
    // (nodes only exit on their own after the broadcast or a terminal
    // give-up; both happen after `shutdown`).
    for (NodeId i = 0; i < k; ++i) {
      Child& ch = children[i];
      if (!ch.alive) continue;
      int wstatus = 0;
      const pid_t r = ::waitpid(ch.pid, &wstatus, WNOHANG);
      if (r != ch.pid) continue;
      ch.alive = false;
      kill_all();
      std::string how =
          WIFSIGNALED(wstatus)
              ? "signal " + std::to_string(WTERMSIG(wstatus))
              : "exit code " + std::to_string(WEXITSTATUS(wstatus));
      return Status::Internal("node " + std::to_string(i) + " (pid " +
                              std::to_string(r) + ", incarnation " +
                              std::to_string(ch.incarnation) +
                              ") died unexpectedly: " + how);
    }

    // Deliver scheduled kills. Trigger = hub clock; quiescence fires
    // pending kills early — the schedule is an upper bound on patience,
    // so a short run still absorbs its full kill budget.
    bool acted = false;
    for (NodeId i = 0; i < k; ++i) {
      Child& ch = children[i];
      if (!ch.alive || ch.next_spec >= ch.specs.size()) continue;
      const faults::CrashSpec& spec = ch.specs[ch.next_spec];
      if (static_cast<std::int64_t>(observed) < spec.TriggerStamp() &&
          !quiesced) {
        continue;
      }
      run.acked_at_kill[i] = std::max(run.acked_at_kill[i], ch.max_acked);
      hub.ResetNode(i);  // no routing to a corpse
      (void)::kill(ch.pid, SIGKILL);
      auto reaped =
          ReapWithDeadline(ch.pid, 15000, "node " + std::to_string(i));
      if (!reaped.ok()) {
        kill_all();
        return reaped.status();
      }
      hub.ClearNodeProgress(i);  // the reborn incarnation re-earns done
      ch.alive = false;
      ch.awaiting_rebirth = true;
      ch.rebirth_stamp = spec.RebirthStamp();
      ++ch.next_spec;
      ++run.kills;
      acted = true;
    }

    // Rebirths, on the rebirth stamp or on quiescence.
    for (NodeId i = 0; i < k; ++i) {
      Child& ch = children[i];
      if (!ch.awaiting_rebirth) continue;
      if (static_cast<std::int64_t>(observed) < ch.rebirth_stamp &&
          !quiesced) {
        continue;
      }
      auto pid = SpawnNode(options, i, ch.incarnation + 1, /*recover=*/true,
                           hub.endpoint());
      if (!pid.ok()) {
        kill_all();
        return pid.status();
      }
      ch.pid = *pid;
      ++ch.incarnation;
      ch.alive = true;
      ch.awaiting_rebirth = false;
      acted = true;
    }
    if (acted) {
      clock_moved_ms = MonotonicMs();
      continue;
    }

    // Completion: every node reports done (or gave up), every scheduled
    // kill has been delivered, nobody is waiting to be reborn.
    bool all_done = true;
    for (NodeId i = 0; i < k; ++i) {
      if (!children[i].alive || children[i].next_spec <
                                    children[i].specs.size() ||
          children[i].awaiting_rebirth || !snap[i].done) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      hub.BroadcastAllDone();
      shutdown = true;
      break;
    }
    seen = hub.AwaitProgress(seen, kSupervisorWaitCapMs);
  }

  // Graceful drain: children exit 0 after acting on kAllDone.
  for (NodeId i = 0; i < k; ++i) {
    Child& ch = children[i];
    if (!ch.alive) continue;
    auto reaped = ReapWithDeadline(ch.pid, 30000,
                                   "node " + std::to_string(i) + " (drain)");
    if (!reaped.ok()) {
      kill_all();
      return reaped.status();
    }
    ch.alive = false;
    if (!WIFEXITED(*reaped) || WEXITSTATUS(*reaped) != 0) {
      std::string how =
          WIFSIGNALED(*reaped)
              ? "signal " + std::to_string(WTERMSIG(*reaped))
              : "exit code " + std::to_string(WEXITSTATUS(*reaped));
      kill_all();
      return Status::Internal("node " + std::to_string(i) +
                              " failed during drain: " + how);
    }
  }
  const auto final_snap = hub.Snapshot();
  for (NodeId i = 0; i < k; ++i) {
    run.recovered_scalar[i] =
        std::max(run.recovered_scalar[i], final_snap[i].recovered_scalar);
    if (final_snap[i].gave_up) run.complete = false;
  }
  run.hub = hub.Stats();
  hub.Stop();

  // Durability invariant: a rebirth must recover at least everything the
  // dead incarnation had durably acknowledged. Both scalars are monotone
  // (retention only grows; compaction is dedupe-only), so max-vs-max per
  // node is the per-kill obligation's strongest surviving form.
  for (NodeId i = 0; i < k; ++i) {
    if (children[i].incarnation == 0) continue;  // never killed
    if (run.recovered_scalar[i] < run.acked_at_kill[i]) {
      return Status::Internal(
          "node " + std::to_string(i) + " recovered scalar " +
          std::to_string(run.recovered_scalar[i]) +
          " < durably acked " + std::to_string(run.acked_at_kill[i]) +
          " at kill time (retention write-through broken)");
    }
  }

  // Merge the durable traces by (Lamport stamp, node id) — each node's
  // own stamps are strictly increasing, and receiver stamps strictly
  // follow the sender's transmit clock, so this order is a legal ℬ
  // computation (certified post-hoc by the callers).
  struct Tagged {
    std::uint64_t stamp;
    NodeId node;
    DistEvent event;
  };
  std::vector<Tagged> merged;
  for (NodeId i = 0; i < k; ++i) {
    auto part = EventLog::LoadNode(options.dir, i);
    RNT_RETURN_IF_ERROR(part.status());
    merged.reserve(merged.size() + part->size());
    for (StampedEvent& se : *part) {
      merged.push_back(Tagged{se.stamp, i, std::move(se.event)});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.stamp != b.stamp) return a.stamp < b.stamp;
                     return a.node < b.node;
                   });

  // Ground truth: the final state is a mechanical replay of the merged
  // log, not anything a process claimed over the wire.
  const action::ActionRegistry reg = options.spec.BuildRegistry();
  const dist::Topology topo = dist::Topology::RoundRobin(&reg, k);
  const dist::DistAlgebra alg(&topo);
  run.final_state = alg.Initial();
  run.events.reserve(merged.size());
  for (Tagged& t : merged) {
    alg.Apply(run.final_state, t.event);
    run.events.push_back(std::move(t.event));
  }

  run.stats.crashes = static_cast<std::uint64_t>(run.kills);
  run.stats.dropped_msgs =
      run.hub.dropped + run.hub.partitioned + run.hub.unrouted;
  run.stats.duplicated_msgs = run.hub.duplicated;
  run.stats.delayed_msgs = run.hub.delayed;
  for (const DistEvent& e : run.events) {
    if (const auto* s = std::get_if<dist::Send>(&e)) {
      if (s->from != s->to) {
        ++run.stats.messages;
        run.stats.summary_entries += s->summary.size();
      }
      continue;
    }
    if (std::holds_alternative<dist::Receive>(e)) continue;
    ++run.stats.node_events;
    if (std::holds_alternative<dist::NodePerform>(e)) ++run.stats.performs;
    if (std::holds_alternative<dist::NodeCommit>(e)) ++run.stats.commits;
    if (std::holds_alternative<dist::NodeAbort>(e)) ++run.stats.aborts;
    if (std::holds_alternative<dist::NodeReleaseLock>(e)) {
      ++run.stats.releases;
    }
    if (std::holds_alternative<dist::NodeLoseLock>(e)) ++run.stats.loses;
  }
  for (NodeId i = 0; i < k; ++i) {
    run.stats.recovered_nodes +=
        final_snap[i].ever_recovered ? children[i].incarnation : 0;
    run.stats.retries += final_snap[i].retries;
  }
  return run;
}

}  // namespace rnt::sim
