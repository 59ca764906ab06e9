#ifndef RNT_LOCK_LOCK_MANAGER_H_
#define RNT_LOCK_LOCK_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace rnt::lock {

/// Engine-level transaction identifier. Unlike ActionId (the a-priori
/// naming scheme of the formal levels), TxnIds are minted dynamically by
/// the transaction manager.
using TxnId = std::uint64_t;

/// Sentinel meaning "no transaction" — the parent of top-level
/// transactions (the engine's stand-in for the paper's virtual root U).
inline constexpr TxnId kNoTxn = 0;

/// Lock modes of Moss's *complete* algorithm. The paper proves the
/// simplified single-mode variant (every lock behaves like kWrite) and
/// notes the read/write extension "should not be very difficult"; we
/// implement both and ablate in bench_rw_modes (experiment E7).
enum class LockMode : std::uint8_t { kRead = 0, kWrite = 1 };

std::string_view LockModeName(LockMode m);

/// Ancestry oracle the lock manager consults; implemented by the
/// transaction manager over its live transaction tree. Must be safe to
/// call concurrently (the sharded engine backs it with an immutable
/// ancestor path per transaction).
class Ancestry {
 public:
  virtual ~Ancestry() = default;
  /// True iff `anc` is an ancestor of `desc` (reflexive). kNoTxn is an
  /// ancestor of everything.
  virtual bool IsAncestor(TxnId anc, TxnId desc) const = 0;
};

/// Moss's nested-transaction lock manager (the engine counterpart of the
/// version/value-map levels' lock stacks).
///
/// Rules (Moss 1981 §, as summarized in the paper's §7-§9):
///  * A transaction T may acquire a WRITE lock on x iff every transaction
///    that holds or retains any lock on x is an ancestor of T.
///  * T may acquire a READ lock on x iff every holder/retainer of a WRITE
///    lock on x is an ancestor of T. (Concurrent sibling readers are
///    therefore allowed — the concurrency the single-mode variant lacks.)
///  * When T commits, its held and retained locks pass to parent(T) as
///    *retained* locks (lock inheritance — the engine counterpart of
///    release-lock's V(x, parent(A)) <- V(x, A)).
///  * When T aborts, its locks are discarded (lose-lock).
///
/// A retained lock is not an operational lock: it marks that a descendant
/// of the retainer wrote/read the object, so only the retainer's own
/// descendants may touch it. Holding vs retaining matters for *re*-holding
/// by the same transaction and for bookkeeping symmetry with the paper.
///
/// The lock table is sharded by object: each shard has its own mutex, its
/// own slice of the table, and per-object wait queues. Callers that want
/// blocking acquisition use AcquireOrEnqueue/WaitOn — a failed attempt
/// registers the caller on the object's wait queue under the same shard
/// lock (no lost-wakeup window), and every release on that object bumps
/// the queue's version and notifies exactly its waiters. Deadlock
/// detection and victim selection stay in the transaction manager, built
/// on Blockers().
///
/// Locking discipline (machine-checked under the `lint` preset): every
/// shard member is GUARDED_BY the shard's mutex; the internal helpers
/// carry REQUIRES preconditions. A shard mutex is a leaf below the
/// engines' record mutexes, except that Conflicts() may call out to the
/// Ancestry oracle — implementations must not take a record mutex there.
class LockManager {
 public:
  struct Options {
    /// Paper's simplified variant: treat every acquisition as WRITE.
    bool single_mode = false;
    /// Number of lock-table shards (>= 1). One shard reproduces the
    /// seed's fully serialized table.
    std::uint32_t shards = 16;
  };

  LockManager(const Ancestry* ancestry, Options options);
  explicit LockManager(const Ancestry* ancestry)
      : LockManager(ancestry, Options{}) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Attempts to acquire `mode` on `x` for `t`. Returns true and records
  /// the hold on success; returns false (no state change) on conflict.
  bool TryAcquire(ObjectId x, TxnId t, LockMode mode);

  /// One entry of a batched acquisition (see TryAcquireBatch).
  struct BatchLockRequest {
    ObjectId object = 0;
    LockMode mode = LockMode::kRead;
  };

  /// Attempts every request for `t`, visiting each lock-table shard at
  /// most once: requests are grouped by shard and each group is granted
  /// or refused under a single critical section, instead of one
  /// lock/unlock round-trip per object. Equivalent to TryAcquire per
  /// request (requests never conflict with each other — they are all for
  /// `t`, and self-holds never conflict). `granted` is resized to
  /// reqs.size() with one verdict per request; returns the number
  /// granted. Shard mutexes are taken one at a time, never nested, so
  /// concurrent batches cannot deadlock here.
  std::size_t TryAcquireBatch(TxnId t, std::span<const BatchLockRequest> reqs,
                              std::vector<bool>& granted);

  /// Gives back `t`'s holds on `objects` and wakes their waiters. Only
  /// for locks that no access has used yet (a lock taken ahead and
  /// returned after a refusal elsewhere): no other transaction can have
  /// observed that they were held, so dropping them is not a release in
  /// the paper's sense.
  void GiveBack(TxnId t, std::span<const ObjectId> objects);

  /// The transactions whose holds/retentions block `t` from acquiring
  /// `mode` on `x` (empty iff TryAcquire would succeed). Used to build
  /// the wait-for graph.
  std::vector<TxnId> Blockers(ObjectId x, TxnId t, LockMode mode) const;

  /// One blocking-acquisition attempt. On success, the hold is recorded.
  /// On conflict, the caller is atomically registered on x's wait queue
  /// (same shard critical section — a release cannot slip between the
  /// failed check and the registration) and gets back the queue ticket to
  /// pass to WaitOn, plus the blocker set for the wait-for graph. Every
  /// failed call must be balanced by exactly one WaitOn or CancelWait.
  struct AcquireResult {
    bool acquired = false;
    std::uint64_t ticket = 0;        // valid iff !acquired
    std::vector<TxnId> blockers;     // valid iff !acquired
  };
  AcquireResult AcquireOrEnqueue(ObjectId x, TxnId t, LockMode mode);

  /// Blocks until x's wait queue moves past `ticket` (some lock on x was
  /// released, inherited, or poked) or `deadline` passes. Deregisters the
  /// caller from the queue before returning. Returns true if the queue
  /// moved (retry the acquisition), false on timeout.
  bool WaitOn(ObjectId x, std::uint64_t ticket,
              std::chrono::steady_clock::time_point deadline);

  /// Deregisters a waiter enqueued by a failed AcquireOrEnqueue without
  /// waiting (e.g. the caller became a deadlock victim).
  void CancelWait(ObjectId x);

  /// Wakes x's waiters without changing lock state. Used to kick a
  /// blocked transaction that was aborted from another thread.
  void Poke(ObjectId x);

  /// A set of lock-table shards, one bit per shard index. Callers pass
  /// where a transaction's locks live to OnCommit/OnAbort so only those
  /// shards are visited; any superset is safe, and kAllShards (also the
  /// fallback beyond 64 shards) visits every shard.
  using ShardSet = std::uint64_t;
  static constexpr ShardSet kAllShards = ~ShardSet{0};
  /// The shard holding `x`'s lock records, as a ShardSet.
  ShardSet ShardBit(ObjectId x) const {
    return shards_.size() > 64 ? kAllShards : ShardSet{1} << ShardIndex(x);
  }

  /// Lock inheritance on commit: everything `t` holds or retains is
  /// merged into `parent`'s retained set. A top-level commit
  /// (parent == kNoTxn) releases the locks outright. Waiters of every
  /// affected object are woken (targeted, per object). `shards` must
  /// cover every shard where `t` holds or retains a lock; the parent
  /// inherits into those same shards, so the caller adds them to the
  /// parent's set before calling.
  void OnCommit(TxnId t, TxnId parent, ShardSet shards);

  /// Lock discard on abort. Waiters of every affected object are woken.
  /// `shards` as for OnCommit.
  void OnAbort(TxnId t, ShardSet shards);

  // Introspection (tests, benches).
  bool Holds(ObjectId x, TxnId t, LockMode mode) const;
  bool Retains(ObjectId x, TxnId t, LockMode mode) const;
  std::size_t HolderCount(ObjectId x) const;
  std::size_t RetainerCount(ObjectId x) const;
  /// Total number of (object, txn) lock records — the lock-table
  /// footprint reported by bench_nesting_depth.
  std::size_t RecordCount() const;
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Which shard `x` lives on (tests use this to build cross-shard and
  /// same-shard scenarios deliberately).
  std::size_t ShardOf(ObjectId x) const { return ShardIndex(x); }

 private:
  struct ModeSet {
    bool read = false;
    bool write = false;
    bool Any() const { return read || write; }
    void Merge(const ModeSet& o) {
      read |= o.read;
      write |= o.write;
    }
  };
  struct ObjectLocks {
    std::map<TxnId, ModeSet> holders;
    std::map<TxnId, ModeSet> retainers;
    bool Empty() const { return holders.empty() && retainers.empty(); }
  };
  /// Wait queue of one object: `version` advances on every release/poke,
  /// `waiters` counts registered acquirers. Exists only while waiters are
  /// registered (std::map keeps nodes stable while the cv is in use).
  struct WaitPoint {
    std::uint64_t version = 1;
    std::uint32_t waiters = 0;
    CondVar cv;
  };
  struct Shard {
    mutable Mutex lock_mu{"lock.shard", kRankLockShard};
    std::map<ObjectId, ObjectLocks> objects GUARDED_BY(lock_mu);
    /// Per-transaction index of touched objects *in this shard*, for
    /// O(touched) commit/abort without scanning the table.
    std::map<TxnId, std::set<ObjectId>> touched GUARDED_BY(lock_mu);
    std::map<ObjectId, WaitPoint> waits GUARDED_BY(lock_mu);
  };

  std::size_t ShardIndex(ObjectId x) const {
    // Fibonacci hashing spreads consecutive object ids across shards.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ull) >> 40) %
           shards_.size();
  }
  Shard& ShardFor(ObjectId x) { return shards_[ShardIndex(x)]; }
  const Shard& ShardFor(ObjectId x) const { return shards_[ShardIndex(x)]; }
  /// Calls fn(shard) for every shard in `shards`, in index order.
  template <typename Fn>
  void ForEachShard(ShardSet shards, Fn fn) {
    const bool all = shards_.size() > 64;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (all || ((shards >> i) & 1) != 0) fn(shards_[i]);
    }
  }

  LockMode Effective(LockMode m) const {
    return options_.single_mode ? LockMode::kWrite : m;
  }

  /// Collects conflicting transactions into `out` (if non-null); returns
  /// whether any conflict exists. `locks` is a shard's guarded entry; the
  /// caller holds that shard's mutex.
  bool Conflicts(const ObjectLocks& locks, TxnId t, LockMode mode,
                 std::vector<TxnId>* out) const;
  /// Records the hold; requires the shard lock held and no conflicts.
  void Grant(Shard& shard, ObjectId x, TxnId t, LockMode mode)
      REQUIRES(shard.lock_mu);
  /// Bumps x's wait queue and wakes its waiters (shard lock held).
  static void NotifyObject(Shard& shard, ObjectId x) REQUIRES(shard.lock_mu);

  const Ancestry* ancestry_;
  Options options_;
  std::vector<Shard> shards_;
};

}  // namespace rnt::lock

#endif  // RNT_LOCK_LOCK_MANAGER_H_
