#ifndef RNT_TXN_SHARDED_ENGINE_H_
#define RNT_TXN_SHARDED_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "action/update.h"
#include "common/flat_map.h"
#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "lock/lock_manager.h"
#include "txn/engine.h"
#include "txn/trace.h"
#include "txn/transaction_manager.h"

namespace rnt::txn::internal {

/// The engine behind TransactionManager's public face.
///
/// State is split so that unrelated transactions never contend:
///  * the lock table is sharded by object inside lock::LockManager, with
///    per-object wait queues — a release wakes exactly that object's
///    waiters (no broadcast);
///  * each transaction's private value-map versions live in its own
///    record (TxnRec::buffer) guarded by a per-record mutex; commit
///    merges child into parent under the parent's mutex only —
///    (d24)/(e21) with parent-local locking;
///  * the committed store, the transaction table, and the wait-for graph
///    are sharded with per-shard mutexes; deadlock detection snapshots
///    the wait graph shard by shard (no stop-the-world lock) and picks
///    the youngest (largest-id) waiter on the cycle — deterministically.
///
/// Lock ordering (deadlock-freedom of the engine's own mutexes): record
/// mutexes are only ever nested ancestor-before-descendant along one
/// ancestor chain (Access locks root..self; Commit locks parent, child;
/// the abort cascade holds at most one record mutex at a time). Lock
/// shards, store shards, table shards, the wait graph, and the trace
/// mutex are leaves below record mutexes; a lock shard may query the
/// table (IsAncestor) but never a record mutex.
///
/// Why Access locks the whole ancestor chain: while t holds a lock on x,
/// ancestor buffers for x are frozen (a committing subtree that wrote x
/// would need a conflicting write lock), except t's own buffer, which a
/// committing child of t may merge into concurrently. Holding the chain
/// makes read-value + buffer-write + trace-append atomic against such
/// merges, so recorded traces replay as valid value-map computations in
/// trace order. Chains are per-tree: different top-level transactions
/// share no record mutex, which is where multi-core scaling comes from.
///
/// The locking discipline above is expressed with the capability
/// annotations from common/thread_annotations.h and machine-checked by
/// `-Wthread-safety` under the `lint` preset. The only opt-outs
/// (NO_THREAD_SAFETY_ANALYSIS) are the chain lock/unlock helpers — a
/// variable-length ordered acquisition the analysis cannot express —
/// and the chain-protected access path that rides on them.
class ShardedEngine final : public lock::Ancestry {
 public:
  explicit ShardedEngine(TransactionManager::Options options);

  /// Begins a top-level transaction (cannot fail: the virtual root U
  /// never dies).
  lock::TxnId BeginTop();
  /// Begins a subtransaction of `parent`; fails iff the parent is not
  /// active.
  StatusOr<lock::TxnId> BeginChild(lock::TxnId parent);
  /// One access: lock acquisition (blocking, with deadlock/timeout
  /// policy), visible-value computation, private-version write.
  StatusOr<Value> Access(lock::TxnId t, ObjectId x,
                         const action::Update& update);
  /// Batched accesses: one lock-table pass (distinct objects deduped to
  /// the strongest requested mode, grouped per lock shard by
  /// lock::LockManager::TryAcquireBatch), a blocking fallback per
  /// still-contended object, then every op recorded in submission order
  /// under a single ancestor-chain critical section. If the transaction
  /// dies during lock acquisition (deadlock victim / timeout), no op has
  /// executed and every op reports the death — equivalent to the
  /// transaction dying just before the batch, a legal serial outcome.
  ///
  /// A top-level transaction whose locks were all taken ahead (see
  /// LockAhead) and that has no open child skips the lock table: its
  /// locks already cover the batch, and with no child running nothing
  /// else in its tree can take a conflicting lock.
  void AccessBatch(lock::TxnId t, std::span<const BatchAccess> ops,
                   OpOutcome* out);
  /// Lock-ahead for a top-level transaction before its first lock:
  /// every distinct declared object at its strongest declared mode. One
  /// TryAcquireBatch pass; if an object is refused, the grants above the
  /// lowest refused object are given back (no access has used them) and
  /// the rest is taken by blocking acquisitions in ascending object
  /// order, under the usual detection/timeout policy. A transaction that
  /// locks ahead therefore only ever waits for an object above every
  /// object it holds, so no wait cycle runs through two of them.
  /// A no-op for subtransactions and for a transaction that already
  /// holds, retains or declared a lock.
  Status LockAhead(lock::TxnId t, std::span<const BatchAccess> ops);
  Status Commit(lock::TxnId t);
  Status Abort(lock::TxnId t);

  Value ReadCommitted(ObjectId x);
  Trace TakeTrace();
  TransactionManager::Stats stats() const;
  /// See TransactionManager::Preload (quiescent engines only).
  void Preload(const std::map<ObjectId, Value>& values);
  /// See TransactionManager::DumpCommitted.
  std::map<ObjectId, Value> DumpCommitted() const;

  // lock::Ancestry. Thread-safe: ancestor paths are immutable.
  bool IsAncestor(lock::TxnId anc, lock::TxnId desc) const override;

 private:
  enum class TxnState : std::uint8_t {
    kActive,
    kAborting,  // abort in progress: no new children/accesses/commits
    kCommitted,
    kAborted
  };
  enum class AbortCause : std::uint8_t {
    kNone,
    kRequested,
    kCascade,
    kDeadlock,
    kTimeout
  };

  struct TxnRec {
    TxnRec(lock::TxnId id_in, lock::TxnId parent_in,
           std::vector<lock::TxnId> path_in,
           std::shared_ptr<TxnRec> parent_rec_in)
        : id(id_in),
          parent(parent_in),
          path(std::move(path_in)),
          parent_rec(std::move(parent_rec_in)) {}

    const lock::TxnId id;
    const lock::TxnId parent;
    /// Ancestors + self, ascending (a parent's id is always smaller than
    /// its children's). Immutable => lock-free IsAncestor.
    const std::vector<lock::TxnId> path;
    /// Owning pointer up the chain; children are raw (the table owns
    /// every record) so record graphs have no shared_ptr cycles.
    const std::shared_ptr<TxnRec> parent_rec;

    /// A sorted group (common/lock_ranks.h): record mutexes of one
    /// ancestor chain nest root-first at equal rank.
    mutable Mutex rec_mu{"txn.rec", kRankTxnRec, Mutex::SortedGroup{}};
    TxnState state GUARDED_BY(rec_mu) = TxnState::kActive;
    AbortCause cause GUARDED_BY(rec_mu) = AbortCause::kNone;
    std::uint32_t open_children GUARDED_BY(rec_mu) = 0;
    std::vector<TxnRec*> children GUARDED_BY(rec_mu);
    /// This transaction's private value-map versions.
    std::map<ObjectId, Value> buffer GUARDED_BY(rec_mu);
    /// Lock-table shards where this transaction may hold or retain a lock
    /// (own grants plus what committed children passed up), so commit and
    /// abort visit only those. A bit is set after the grant and before
    /// the grantor's next state check under rec_mu; an abort reads the
    /// set after marking the record under rec_mu, so a grant it misses is
    /// swept by the grantor itself (see RecordAccessChainLocked).
    std::atomic<lock::LockManager::ShardSet> lock_shards{0};
    /// The locks taken ahead (LockAhead), sorted by object, one entry
    /// per object at its strongest mode; held until the transaction
    /// completes. Empty when it did not lock ahead.
    std::vector<lock::LockManager::BatchLockRequest> ahead GUARDED_BY(rec_mu);
  };

  struct TableShard {
    mutable Mutex table_mu{"txn.table", kRankTxnTable};
    std::unordered_map<lock::TxnId, std::shared_ptr<TxnRec>> recs
        GUARDED_BY(table_mu);
  };
  struct StoreShard {
    mutable Mutex store_mu{"txn.store", kRankTxnStore};
    /// Insert-only: a committed object keeps its entry.
    FlatMap<ObjectId, Value> values GUARDED_BY(store_mu);
  };
  /// One blocked acquirer's edge in the wait-for graph.
  struct WaitEdge {
    ObjectId object = 0;
    std::vector<lock::TxnId> blockers;
  };
  struct WaitShard {
    mutable Mutex wait_mu{"txn.wait", kRankTxnWait};
    std::unordered_map<lock::TxnId, WaitEdge> edges GUARDED_BY(wait_mu);
  };

  std::size_t TxnShard(lock::TxnId t) const {
    return static_cast<std::size_t>(t * 0x9e3779b97f4a7c15ull >> 40) %
           table_.size();
  }
  std::size_t ObjShard(ObjectId x) const {
    return static_cast<std::size_t>(
               static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ull >> 40) %
           store_.size();
  }

  std::shared_ptr<TxnRec> FindRec(lock::TxnId t) const;
  void InsertRec(const std::shared_ptr<TxnRec>& rec);
  /// Removes a completed top-level subtree from the table.
  void CollectSubtree(TxnRec* root);

  void RegisterWait(lock::TxnId t, WaitEdge edge);
  void UnregisterWait(lock::TxnId t);
  std::optional<ObjectId> WaitingOn(lock::TxnId t) const;
  /// Shard-by-shard snapshot, ordered by waiter id for determinism.
  std::map<lock::TxnId, WaitEdge> WaitSnapshot() const;

  /// Status for an access against a dead transaction (rec_mu held).
  static Status DeadStatusLocked(const TxnRec& rec) REQUIRES(rec.rec_mu);
  /// True when the locks `rec` took ahead cover every op of `ops` and it
  /// has no open child: the batch needs no lock-table pass.
  static bool CoveredLocked(const TxnRec& rec,
                            std::span<const BatchAccess> ops)
      REQUIRES(rec.rec_mu);
  /// The blocking lock-acquisition loop shared by Access and
  /// AccessBatch: repeated AcquireOrEnqueue with the deadlock-detection
  /// / timeout policy. A non-ok return means `r` is already dead (the
  /// victim or timeout abort has run).
  Status AcquireLockBlocking(TxnRec* r, ObjectId x, lock::LockMode mode);
  /// Locks/unlocks every record mutex of `chain` (self..root) in the
  /// global root-first order. A variable-length ordered acquisition is
  /// outside what the thread-safety analysis can express, so these two
  /// helpers are its trusted base — keep them trivially auditable.
  static void LockChain(const std::vector<TxnRec*>& chain)
      NO_THREAD_SAFETY_ANALYSIS;
  static void UnlockChain(const std::vector<TxnRec*>& chain)
      NO_THREAD_SAFETY_ANALYSIS;
  /// The visible value of x for the chain (every chain mutex held via
  /// LockChain — invisible to the analysis, hence the opt-out), plus the
  /// private write and the trace event, atomically.
  StatusOr<Value> RecordAccessChainLocked(std::span<TxnRec* const> chain,
                                          ObjectId x,
                                          const action::Update& update)
      NO_THREAD_SAFETY_ANALYSIS;
  /// Records every op of a batch in order (chain locked as above); once
  /// the transaction is found dead every remaining op reports it.
  void RecordBatchChainLocked(std::span<TxnRec* const> chain,
                              std::span<const BatchAccess> ops,
                              OpOutcome* out) NO_THREAD_SAFETY_ANALYSIS;
  /// Commit state transition + version propagation for a child commit
  /// (parent and child record mutexes held, parent first).
  Status CommitChildLocked(TxnRec* rec, TxnRec* parent)
      REQUIRES(rec->rec_mu, parent->rec_mu);
  /// Same for a top-level commit (merges into the durable store).
  Status CommitTopLocked(TxnRec* rec) REQUIRES(rec->rec_mu);
  /// Shared commit eligibility checks.
  static Status CommitCheckLocked(const TxnRec& rec) REQUIRES(rec.rec_mu);
  /// Aborts rec's whole live subtree (children-first abort events).
  /// Returns true iff rec itself transitioned active -> aborted here.
  bool AbortTree(TxnRec* rec, AbortCause cause);
  /// Abort + stats + GC wrapper used by Abort() and victim kills.
  bool AbortAndCollect(TxnRec* rec, AbortCause cause);
  /// Runs deadlock detection from `start`; kills the chosen victim.
  /// Returns true iff `start` itself was the victim.
  bool ResolveDeadlockFrom(lock::TxnId start);

  Value StoreRead(ObjectId x) const;
  /// True when events must be materialized at all (in-memory trace or
  /// streaming sink) — gates both event construction and access-id
  /// allocation so the two consumers always see identical ids.
  bool Logging() const {
    return options_.record_trace || options_.trace_sink != nullptr;
  }
  /// Emits one event: to the sink first (still inside the caller's
  /// serializing critical section), then to the in-memory trace.
  void AppendTrace(TraceEvent event);

  TransactionManager::Options options_;
  lock::LockManager locks_;
  std::atomic<lock::TxnId> next_id_{1};
  std::vector<TableShard> table_;
  std::vector<StoreShard> store_;
  std::vector<WaitShard> waits_;

  mutable Mutex trace_mu_{"txn.trace", kRankTxnTrace};
  Trace trace_ GUARDED_BY(trace_mu_);

  std::atomic<std::uint64_t> begun_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> deadlock_aborts_{0};
  std::atomic<std::uint64_t> timeout_aborts_{0};
  std::atomic<std::uint64_t> cascade_aborts_{0};
  std::atomic<std::uint64_t> lock_waits_{0};
  std::atomic<std::uint64_t> accesses_{0};
};

}  // namespace rnt::txn::internal

#endif  // RNT_TXN_SHARDED_ENGINE_H_
