#ifndef RNT_SIM_PARALLEL_RUNNER_H_
#define RNT_SIM_PARALLEL_RUNNER_H_

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/status.h"
#include "dist/dist_algebra.h"
#include "faults/faults.h"
#include "sim/dist_driver.h"
#include "sim/node_loop.h"
#include "txn/trace.h"
#include "valuemap/value_map_algebra.h"

namespace rnt::sim {

/// Options for a multi-threaded execution of the distributed algebra ℬ.
struct ParallelOptions {
  /// Knowledge policy. The runner is reactive (nodes learn, they are not
  /// asked), so it supports the two broadcast policies: kEager ships the
  /// doer's full summary after every change; kDelta ships only the
  /// entries new since the last send to each peer (per-peer frontiers),
  /// and deltas accumulated between flushes coalesce into one message.
  /// kLazy needs a request channel the runner does not have — rejected.
  Propagation propagation = Propagation::kDelta;
  /// Actions to abort (instead of commit) once created; their descendants
  /// are never created. Same contract as DriverOptions::abort_set.
  std::set<ActionId> abort_set;
  /// The full fault schedule: message faults (drop/duplicate/delay —
  /// delays of distinct messages reorder them), crashes, and partitions.
  /// The free-running loops have no rounds, so crash triggers and
  /// partition windows run on the *logical clock* — the global event
  /// stamp counter (CrashSpec::at_stamp / PartitionSpec::from_stamp;
  /// round fields are reinterpreted in stamp units when unset). A crash
  /// terminates the node's thread mid-loop after wiping its volatile
  /// ActionSummary; the supervisor rebirths a fresh thread that replays
  /// the mailbox's durable retention buffer M_i (one legal Receive) and
  /// reconstructs its obligations from the recovered knowledge plus the
  /// durable lock table. Partitions are enforced link-level at the
  /// mailbox. Liveness note: when the whole system quiesces before a
  /// rebirth stamp is reached, the supervisor rebirths early rather than
  /// deadlock — stamp windows are upper bounds on patience, not exact
  /// schedules.
  faults::FaultPlan plan;
  /// Watchdog escalation threshold: unproductive retries before the node
  /// timeout-aborts the deepest abortable enclosing subtransaction homed
  /// locally (first of a stuck blocker's ancestors, then of its own
  /// pending path) — the dynamic lose-lock/orphan path, for graceful
  /// degradation under partitions. Counted in stats.timeout_aborts. The
  /// watchdog itself (anti-entropy full-summary re-broadcasts after
  /// kStallRetrySpins idle passes, backing off exponentially, each one a
  /// logical-clock tick and counted in stats.retries) runs only when the
  /// plan injects drops, crashes or partitions.
  int max_attempts_per_step = kMaxAttemptsPerStep;
  /// Consecutive no-progress passes before a node abandons its remaining
  /// obligations (returns an incomplete run rather than spinning forever;
  /// only reachable under adversarial fault plans or driver bugs).
  std::uint64_t max_idle_spins = 1u << 20;
  /// Record the applied ℬ events (globally stamped, mergeable into one
  /// valid computation). Disable for wall-clock benchmarking.
  bool record_events = true;
  /// When non-null, every recorded event's trace form is ALSO streamed
  /// into this sink *live*, from inside the run: stamp allocation,
  /// lowering, and Append happen as one atomic step (a dedicated mutex),
  /// so the sink observes exactly the stamp-order stream a post-hoc
  /// ReplayAbstract over the merged log would produce. Install a
  /// txn::OnlineChecker here to certify the run while it executes rather
  /// than after it ends. Events with no trace form (send/receive, lock
  /// bookkeeping, the virtual root) are skipped, matching ReplayAbstract.
  /// The sink itself is not locked beyond that mutex — it must tolerate
  /// being called from whichever node thread records (OnlineChecker is
  /// fine: all calls are serialized under the live mutex).
  txn::TraceSink* live_sink = nullptr;
  /// When non-empty, every entry retained into a node's durable buffer
  /// M_i (the §9.1 retention summary) is also written through to an
  /// append-only storage::RetentionLog file `durable_dir/retained-NNN.log`
  /// — so M_i is durable against *process* death, not just node-thread
  /// crashes. On rebirth the runner re-loads the on-disk log and verifies
  /// the in-memory retention is a sub-summary of it (the write-through
  /// discipline audited at the moment it matters). The directory must
  /// exist; logs from a previous run of the same program are appended to,
  /// and RetentionLog::Load merges records monotonically (status upgrades
  /// only), mirroring M_i's monotonicity.
  std::string durable_dir;
};

/// Result of a parallel run.
struct ParallelRun {
  DriverStats stats;
  dist::DistState final_state;
  /// The applied events of all nodes, merged in global stamp order — a
  /// valid computation of ℬ (checked by tests via IsValidSequence): every
  /// payload is a sub-summary of the sender's monotone knowledge, so a
  /// Send stays legal at any later point in the interleaving.
  std::vector<dist::DistEvent> events;
  /// False when some node abandoned obligations after max_idle_spins.
  bool complete = true;
};

/// Executes the entire registered program on ℬ with one thread per node:
/// each thread runs the node's NodeLoop (node_loop.h) against its own
/// component of the state (the algebra's Local Domain / Local Changes
/// properties make the state partition race-free by construction) and the
/// mutex-free ConcurrentMailbox carries summaries between nodes.
///
/// Resilience (see DESIGN.md "Resilience in the concurrent runtime"):
/// the runner survives the full FaultPlan. A WAL discipline self-appends
/// every summary change into the mailbox's durable retention buffer, so
/// M_i stays a superset of node i's volatile knowledge; a crash kills
/// the node thread after wiping that volatile summary, and the
/// supervisor rebirths a fresh thread that replays M_i — the paper's
/// §9.1 recovery, executed as one Receive event. A per-node watchdog
/// (bounded-backoff anti-entropy retries, then timeout-abort of the
/// deepest locally-abortable enclosing subtransaction) degrades
/// partitioned runs gracefully to incomplete-but-diagnosed results.
///
/// Scheduling discipline: per-object perform order is pinned to the
/// sequential driver's DFS order (a ticket list per object). Waits then
/// only ever point from a DFS-later access to a DFS-earlier transaction,
/// so the runner is deadlock-free by the same argument as the DFS driver,
/// and final value maps are *identical* to RunProgram's on every program
/// — the parallelism changes the interleaving, never the outcome.
StatusOr<ParallelRun> RunParallel(const dist::DistAlgebra& alg,
                                  const ParallelOptions& options = {});

/// Replays a recorded ℬ computation bottom-up through the level-4 algebra
/// (send/receive map to Λ): returns the abstract (tree, value-map) state,
/// or kInternal if some event's image is undefined — the refinement
/// obligation a valid run must never trip. Used to judge parallel runs
/// with the Theorem 9 checker.
StatusOr<valuemap::ValState> ReplayAbstract(
    const dist::DistAlgebra& alg, std::span<const dist::DistEvent> events);

/// As above, but additionally streams each replayed event's trace form
/// into `sink` *in replay order* — the hook that lets an
/// txn::OnlineChecker certify a merged parallel log incrementally while
/// it is being replayed, instead of after the whole tree is rebuilt.
/// Lock bookkeeping events (release/lose) and the virtual root's
/// commit/abort have no trace form and are skipped. `sink` may be null
/// (then this is exactly the two-argument overload).
StatusOr<valuemap::ValState> ReplayAbstract(const dist::DistAlgebra& alg,
                                            std::span<const dist::DistEvent> events,
                                            txn::TraceSink* sink);

}  // namespace rnt::sim

#endif  // RNT_SIM_PARALLEL_RUNNER_H_
