#ifndef RNT_TXN_TRANSACTION_MANAGER_H_
#define RNT_TXN_TRANSACTION_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>

#include "action/update.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/lock_manager.h"
#include "txn/engine.h"
#include "txn/trace.h"

namespace rnt::txn {

class Transaction;
namespace internal {
class ShardedEngine;
}

/// The core library: a multithreaded nested-transaction engine running
/// Moss's locking algorithm — the operational counterpart of the paper's
/// level-4 algebra with the read/write extension.
///
/// Responsibilities:
///  * transaction tree bookkeeping (begin/commit/abort, open children);
///  * the value-map store: each writer holds a private version; commit
///    merges it into the parent's version (top-level commit makes it
///    durable), abort discards it — exactly (d24)/(e21)/(f21);
///  * lock acquisition with blocking waits, deadlock handling (wait-for
///    graph cycle detection or timeouts), and victim abort;
///  * cascading abort of live descendants (a dead ancestor orphans and
///    kills its subtree);
///  * optional execution tracing for offline serializability checking.
///
/// Concurrency model (internal::ShardedEngine): the lock table is
/// sharded by object with per-shard mutexes and per-object wait queues
/// (a release wakes exactly the waiters of that object); each
/// transaction keeps its private version buffer in its own record,
/// guarded by a per-record mutex, and commit merges child into parent
/// under parent-local locking; the committed store and the transaction
/// table are sharded likewise. Record mutexes nest only root-to-leaf
/// along one ancestor chain, so intra-tree operations are deadlock-free
/// while unrelated top-level trees never share a lock. Deadlock
/// detection snapshots the wait-for graph shard by shard — no
/// stop-the-world — and deterministically picks the youngest (largest
/// id) transaction on the cycle as victim. Options::shards = 1 is the
/// coarse-grained ablation: one lock-table, store and table shard (see
/// EXPERIMENTS.md E11).
class TransactionManager final : public Engine {
 public:
  struct Options {
    /// Use the paper's simplified single-mode locks (every access locks
    /// exclusively) instead of read/write modes.
    bool single_mode_locks = false;
    /// Detect deadlocks via wait-for-graph cycles and abort a victim on
    /// the cycle (default). When false, rely on lock_wait_timeout.
    bool deadlock_detection = true;
    /// Maximum total wait for one lock acquisition (timeout policy, and a
    /// backstop under detection).
    std::chrono::milliseconds lock_wait_timeout{2000};
    /// Record a trace for offline action-tree reconstruction.
    bool record_trace = false;
    /// Shard count for the lock table, value-map store, and transaction
    /// table (clamped to >= 1).
    std::uint32_t shards = 16;
    /// How often a blocked acquirer re-runs deadlock detection.
    std::chrono::milliseconds deadlock_check_interval{5};
    /// Optional streaming event consumer (non-owning; must outlive the
    /// manager). Receives every trace event inside the engine's
    /// serializing critical section, independently of record_trace —
    /// the hook the durable storage layer's WAL hangs off (see
    /// txn::TraceSink).
    TraceSink* trace_sink = nullptr;
    /// First transaction/access id the engine allocates (clamped to
    /// >= 1; 0 is lock::kNoTxn). A restarted durable engine sets this
    /// past the recovered history's largest id so that one trace sink
    /// spanning the restart — e.g. an OnlineChecker fed the recovered
    /// prefix and then the new run — never sees an id reused.
    lock::TxnId first_txn_id = 1;
  };

  TransactionManager();
  explicit TransactionManager(Options options);
  ~TransactionManager() override;

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  // Engine interface.
  std::unique_ptr<TxnHandle> Begin() override;
  Value ReadCommitted(ObjectId x) override;
  std::string name() const override { return "nested-moss"; }

  /// Moves the recorded trace out (thread-safe). Meaningful only with
  /// Options::record_trace.
  Trace TakeTrace();

  /// Seeds the committed store before any transaction runs — how a
  /// recovered snapshot re-enters the engine on restart. Call only on a
  /// quiescent (freshly constructed) manager.
  void Preload(const std::map<ObjectId, Value>& values);

  /// Snapshot of the committed top-level store (objects ever written).
  /// Consistent when the engine is quiescent; used by checkpoints.
  std::map<ObjectId, Value> DumpCommitted() const;

  /// Engine counters, for tests and benchmark reporting.
  struct Stats {
    std::uint64_t begun = 0;
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t deadlock_aborts = 0;
    std::uint64_t timeout_aborts = 0;
    std::uint64_t cascade_aborts = 0;
    std::uint64_t lock_waits = 0;
    std::uint64_t accesses = 0;
    /// Live (object, txn) lock records at the time of the call. Must be
    /// zero once every transaction has completed — a nonzero value after
    /// quiescence means a lock leak (see the commit-vs-abort inheritance
    /// race regression test).
    std::uint64_t lock_records = 0;
    /// Objects in the committed store, and the bytes its per-object
    /// table holds.
    std::uint64_t store_objects = 0;
    std::uint64_t store_bytes = 0;
  };
  Stats stats() const;

 private:
  std::unique_ptr<internal::ShardedEngine> impl_;
};

/// Concrete handle for TransactionManager transactions. Created via
/// TransactionManager::Begin / Transaction::BeginChild only.
class Transaction final : public TxnHandle {
 public:
  ~Transaction() override;

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  StatusOr<Value> Get(ObjectId x) override;
  Status Put(ObjectId x, Value v) override;
  StatusOr<Value> Apply(ObjectId x, const action::Update& update) override;
  void ApplyBatch(std::span<const BatchAccess> ops,
                  OpOutcome* results) override;
  Status LockAhead(std::span<const BatchAccess> ops) override;
  StatusOr<std::unique_ptr<TxnHandle>> BeginChild() override;
  Status Commit() override;
  Status Abort() override;

  lock::TxnId id() const { return id_; }

 private:
  friend class TransactionManager;
  Transaction(internal::ShardedEngine* core, lock::TxnId id)
      : core_(core), id_(id) {}

  internal::ShardedEngine* core_;
  lock::TxnId id_;
  bool finished_ = false;  // commit/abort called through this handle
};

}  // namespace rnt::txn

#endif  // RNT_TXN_TRANSACTION_MANAGER_H_
