#include "sim/process_chaos.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <memory>
#include <thread>

#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "action/update.h"
#include "common/random.h"
#include "storage/durable_engine.h"
#include "storage/file_io.h"

namespace rnt::sim {

namespace {

constexpr char kAckFile[] = "acks";

/// One worker thread's share of the workload. `committed` is the global
/// durable-commit counter the crash trigger watches.
void WorkerLoop(storage::DurableEngine* engine,
                const DurableWorkloadOptions& options, int thread_index,
                int ack_fd, std::atomic<std::int64_t>* committed) {
  Rng rng(options.seed * 7919 + static_cast<std::uint64_t>(thread_index));
  const ObjectId marker =
      options.marker_base + static_cast<ObjectId>(thread_index);
  const unsigned char ack_byte = static_cast<unsigned char>(thread_index);
  for (int op = 0; op < options.ops_per_thread; ++op) {
    auto txn = engine->Begin();
    if (!txn->Apply(marker, action::Update::Add(1)).ok()) continue;
    if (rng.Chance(0.6)) {
      auto child = txn->BeginChild();
      if (!child.ok()) continue;
      const ObjectId shared = static_cast<ObjectId>(
          rng.Below(options.shared_objects == 0 ? 1 : options.shared_objects));
      if (!(*child)->Apply(shared, action::Update::Add(1)).ok()) continue;
      // A quarter of the subtransactions abort: recovery must see child
      // aborts inside otherwise-committed trees.
      if (rng.Chance(0.25)) {
        (void)(*child)->Abort();
      } else if (!(*child)->Commit().ok()) {
        continue;
      }
    }
    if (!txn->Commit().ok()) continue;  // only OK == durable counts
    const std::int64_t done = committed->fetch_add(1) + 1;
    if (options.crash.Enabled() && done >= options.crash.after_ops) {
      // Die exactly as kill -9 from outside would have us die: no
      // acknowledgment, no flush, no destructors.
      (void)::raise(SIGKILL);
    }
    // Ack strictly after durability: a one-byte O_APPEND write is atomic.
    (void)::write(ack_fd, &ack_byte, 1);
  }
}

/// ReapWithDeadline's loop; `pidfd` < 0 when none could be opened.
StatusOr<int> ReapWithPidfd(int pid, int pidfd, int deadline_ms,
                            const std::string& what) {
  const std::int64_t start = MonotonicMs();
  const int half = std::max(1, deadline_ms / 2);
  bool escalated = false;
  for (;;) {
    int wstatus = 0;
    const pid_t r = ::waitpid(pid, &wstatus, WNOHANG);
    if (r == pid) return wstatus;
    if (r < 0 && errno != EINTR) {
      return Status::Internal("waitpid(" + std::to_string(pid) +
                              ") failed for " + what);
    }
    const std::int64_t waited = MonotonicMs() - start;
    if (waited >= deadline_ms) {
      // Abandoned: the SIGKILL below was already sent, so the child is
      // unreapable (likely stuck in the kernel). Fail loudly.
      return Status::Timeout("child " + std::to_string(pid) + " (" + what +
                             ") not reaped within " +
                             std::to_string(deadline_ms) +
                             "ms despite SIGKILL escalation");
    }
    if (!escalated && waited >= half) {
      escalated = true;
      (void)::kill(pid, SIGKILL);
    }
    // Wake at the exit, or at the next escalation step.
    const int wait_ms =
        static_cast<int>((escalated ? deadline_ms : half) - waited);
    pollfd p{pidfd, POLLIN, 0};
    // rnt-lint: allow(wall-clock-wait)
    (void)::poll(&p, pidfd >= 0 ? 1 : 0, pidfd >= 0 ? wait_ms : 1);
  }
}

}  // namespace

Status RunDurableWorkload(const DurableWorkloadOptions& options) {
  if (options.threads < 1 || options.threads > 255) {
    return Status::InvalidArgument("threads must be in [1, 255]");
  }
  storage::DurableEngineOptions engine_options;
  engine_options.fsync = options.fsync;
  engine_options.group_commit_interval = std::chrono::milliseconds(1);
  auto engine = storage::DurableEngine::Open(options.dir, engine_options);
  RNT_RETURN_IF_ERROR(engine.status());

  RNT_ASSIGN_OR_RETURN(
      int ack_fd,
      storage::OpenForAppend(options.dir + "/" + kAckFile,
                             /*truncate=*/false));
  // The lingerer: one nested tree, durably logged (begin/perform records
  // barriered to disk) *before any worker starts*, then held open until
  // the kill. Workers spend almost all their time parked in the
  // group-commit barrier with their commit records already flushed, so
  // without this the kill would usually land on a quiesced WAL; the
  // lingerer guarantees every crash leaves a real in-flight tree for
  // restart recovery to roll back (undone_txns >= 2, deterministically —
  // a lingerer racing the workers could lose to an early kill). The
  // handles live until the workers are joined, which a crash-enabled run
  // never reaches: the scheduled SIGKILL is the only way out, so the
  // tree is never committed, aborted or destroyed.
  std::unique_ptr<txn::TxnHandle> lingerer;
  std::unique_ptr<txn::TxnHandle> lingerer_child;
  if (options.crash.Enabled()) {
    lingerer = (*engine)->Begin();
    // The lingerer only exists to dirty the WAL before SIGKILL; its
    // operations' outcomes are erased by the crash by construction.
    (void)lingerer->Apply(  // rnt-lint: allow(status-must-use)
        options.marker_base - 2, action::Update::Add(1));
    auto child = lingerer->BeginChild();
    if (child.ok()) {
      lingerer_child = std::move(*child);
      (void)lingerer_child->Apply(  // rnt-lint: allow(status-must-use)
          options.marker_base - 1, action::Update::Add(1));
    }
    // Called for its flush side effect: the records reach the disk
    // before the first worker can trigger the kill.
    (void)(*engine)->wal_health();  // rnt-lint: allow(status-must-use)
  }
  std::atomic<std::int64_t> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(options.threads));
  for (int t = 0; t < options.threads; ++t) {
    threads.emplace_back(WorkerLoop, engine->get(), std::cref(options), t,
                         ack_fd, &committed);
  }
  for (auto& th : threads) th.join();
  (void)::close(ack_fd);
  // Surface a sticky WAL I/O error as the workload's verdict.
  return (*engine)->wal_health();
}

StatusOr<int> ReapWithDeadline(int pid, int deadline_ms,
                               const std::string& what) {
  // Bounded reap: a child stuck in an uninterruptible state must not
  // wedge the harness. A pidfd turns readable when the child exits, so
  // poll() on it ends the wait at the exit itself; without one (an old
  // kernel, no free fd) the wait degrades to 1 ms polls. The waits are
  // liveness-only; semantics are carried entirely by the status word.
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  const StatusOr<int> reaped = ReapWithPidfd(pid, pidfd, deadline_ms, what);
  if (pidfd >= 0) (void)::close(pidfd);
  return reaped;
}

std::int64_t MonotonicMs() {
  timespec ts{};
  // rnt-lint: allow(wall-clock-wait)
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

StatusOr<int> RunInChild(const std::function<void()>& body,
                         int reap_deadline_ms) {
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    body();
    ::_exit(0);  // no atexit handlers: the parent owns the test state
  }
  RNT_ASSIGN_OR_RETURN(const int wstatus,
                       ReapWithDeadline(pid, reap_deadline_ms, "RunInChild"));
  if (WIFSIGNALED(wstatus)) return WTERMSIG(wstatus);
  return 0;
}

StatusOr<std::vector<std::uint64_t>> ReadAcks(const std::string& dir,
                                              int threads) {
  std::vector<std::uint64_t> acked(static_cast<std::size_t>(threads), 0);
  auto bytes = storage::ReadFileBytes(dir + "/" + kAckFile);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) return acked;
    return bytes.status();
  }
  for (char c : *bytes) {
    const auto t = static_cast<std::size_t>(static_cast<unsigned char>(c));
    if (t >= acked.size()) {
      return Status::DataLoss("acks file holds byte for unknown thread " +
                              std::to_string(t));
    }
    ++acked[t];
  }
  return acked;
}

StatusOr<KillRecoverReport> RunKillRecoverCycle(
    const DurableWorkloadOptions& options) {
  KillRecoverReport report;
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    const Status s = RunDurableWorkload(options);
    ::_exit(s.ok() ? 0 : 17);
  }
  // Bounded reap with SIGKILL escalation: a workload bug that hangs the
  // child (e.g. a group-commit deadlock) becomes a diagnosed Timeout
  // here rather than a CI hang. 60s is far beyond any healthy cycle.
  RNT_ASSIGN_OR_RETURN(
      const int wstatus,
      ReapWithDeadline(pid, 60000, "kill-recover workload child"));
  if (WIFSIGNALED(wstatus)) {
    report.killed = WTERMSIG(wstatus) == SIGKILL;
    if (!report.killed) {
      return Status::Internal("child died by unexpected signal " +
                              std::to_string(WTERMSIG(wstatus)));
    }
  } else {
    report.exit_code = WEXITSTATUS(wstatus);
    if (report.exit_code != 0) {
      return Status::Internal("child workload failed with exit code " +
                              std::to_string(report.exit_code));
    }
  }
  if (options.crash.Enabled() && !report.killed) {
    return Status::Internal(
        "crash was scheduled but the child exited cleanly");
  }

  RNT_ASSIGN_OR_RETURN(report.acked, ReadAcks(options.dir, options.threads));

  // Restart recovery, through the real Open sequence (recover, fresh
  // snapshot, WAL reset) so consecutive cycles compound on one directory.
  storage::DurableEngineOptions engine_options;
  engine_options.fsync = options.fsync;
  auto engine = storage::DurableEngine::Open(options.dir, engine_options);
  RNT_RETURN_IF_ERROR(engine.status());
  report.recovery = (*engine)->recovery();
  return report;
}

}  // namespace rnt::sim
