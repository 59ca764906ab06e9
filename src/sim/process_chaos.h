#ifndef RNT_SIM_PROCESS_CHAOS_H_
#define RNT_SIM_PROCESS_CHAOS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "faults/faults.h"
#include "storage/recovery.h"

namespace rnt::sim {

/// A concurrent nested-transaction workload against a storage::DurableEngine,
/// built to be *auditable after a kill -9*:
///
///  * thread t owns marker object `marker_base + t` and bumps it by one in
///    every top-level transaction it commits, so the marker's recovered
///    value counts that thread's durable commits;
///  * after (and only after) a top-level Commit() returns OK — i.e. after
///    the group-commit barrier made the tree durable — the thread appends
///    one ack byte to the `acks` file (O_APPEND, atomic). Acks therefore
///    never run ahead of durability, and the crash invariant is one-sided:
///      recovered marker value  >=  acked ops of that thread;
///  * a fraction of transactions also run a subtransaction against a small
///    contended pool of shared objects (committing or aborting it), so a
///    kill lands on real nested trees, not just flat writes.
///
/// When `crash.Enabled()`, the thread whose commit is the `after_ops`-th
/// durable one raises SIGKILL on the spot: no destructors, no WAL flush
/// beyond what group commit already wrote — the storage layer sees exactly
/// what a hard process death leaves behind. A *lingerer* thread
/// additionally opens one nested transaction tree (on the two objects
/// just below `marker_base`), barriers its begin/perform records to disk,
/// and holds it open until the kill — so every crash deterministically
/// leaves an in-flight tree that restart recovery must roll back, not
/// just whatever the timing lottery caught mid-commit.
struct DurableWorkloadOptions {
  std::string dir;
  int threads = 4;
  int ops_per_thread = 64;
  std::uint64_t seed = 1;
  faults::ProcessCrashSpec crash;
  /// Page-cache durability (fsync off) is the right fault model for
  /// kill -9: the page cache survives the process. Turn on for the
  /// machine-crash model.
  bool fsync = false;
  ObjectId marker_base = 1000;
  std::uint32_t shared_objects = 8;
};

/// Runs the workload in *this* process (the child side of the harness).
/// Does not return when the crash trigger fires.
Status RunDurableWorkload(const DurableWorkloadOptions& options);

/// One fork / kill -9 / restart-recover cycle (the parent side).
struct KillRecoverReport {
  /// The child died by SIGKILL (the planned crash). False when the
  /// workload ran to completion (control cycles with crash disabled).
  bool killed = false;
  /// Child exit code; meaningful only when !killed.
  int exit_code = -1;
  /// Per-thread ack counts read back from the acks file — cumulative
  /// across every cycle that shared the directory.
  std::vector<std::uint64_t> acked;
  /// What restart recovery found when the directory was reopened. The
  /// embedded `history` is ready for txn::ReplayTrace + the Theorem 9
  /// checker; `store` is the recovered committed state.
  storage::RecoveryReport recovery;
};

/// Forks, runs the workload in the child, reaps it, then reopens the
/// directory through storage::DurableEngine::Open — the full recovery +
/// fresh-snapshot + WAL-reset sequence, so consecutive cycles against one
/// directory compound. Value judgments (marker invariants, Theorem 9) are
/// the caller's; this returns the evidence.
StatusOr<KillRecoverReport> RunKillRecoverCycle(
    const DurableWorkloadOptions& options);

/// Forks and runs `body` in the child; `body` is expected to terminate
/// the child itself (e.g. by raising SIGKILL through a recovery hook).
/// Returns the signal that killed the child, 0 if it exited normally.
/// Used by the recovery-idempotence tests to kill -9 *inside* the
/// crash-idempotent Open sequence. `reap_deadline_ms` bounds the wait
/// for the child's death (see ReapWithDeadline).
StatusOr<int> RunInChild(const std::function<void()>& body,
                         int reap_deadline_ms = 30000);

/// Bounded child reap: waits for the child's exit (on a pidfd) and
/// collects it. Past half the deadline the child is SIGKILLed (escalation
/// for a hung workload); past the full deadline the wait is abandoned
/// with Status::Timeout naming `what` and the pid — a hung child fails
/// the harness with diagnostics instead of hanging CI forever. Returns
/// the raw waitpid status word (use WIFSIGNALED / WIFEXITED).
StatusOr<int> ReapWithDeadline(int pid, int deadline_ms,
                               const std::string& what);

/// CLOCK_MONOTONIC in milliseconds, for the harness's wall deadlines
/// (liveness only: outcomes come from exit statuses and durable traces).
std::int64_t MonotonicMs();

/// Per-thread ack counts from `dir`'s acks file (missing file = all 0).
StatusOr<std::vector<std::uint64_t>> ReadAcks(const std::string& dir,
                                              int threads);

}  // namespace rnt::sim

#endif  // RNT_SIM_PROCESS_CHAOS_H_
