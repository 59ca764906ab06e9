#ifndef RNT_TXN_ENGINE_H_
#define RNT_TXN_ENGINE_H_

#include <memory>
#include <span>
#include <string>

#include "action/update.h"
#include "common/status.h"
#include "common/types.h"

namespace rnt::txn {

/// One access of a batched submission: `update` applied to `object`
/// (see TxnHandle::ApplyBatch). Plain data so request arrays can live in
/// a caller-owned arena and be reused across calls.
struct BatchAccess {
  ObjectId object = 0;
  action::Update update;
};

/// Per-op outcome of a batched submission. Deliberately code-only (no
/// message string): results are written into caller-owned arrays that
/// batched front ends recycle, so a failed op must not allocate.
struct OpOutcome {
  StatusCode code = StatusCode::kOk;
  /// The value *seen* by the access (the paper's label); meaningful only
  /// when code == kOk.
  Value value = 0;

  bool ok() const { return code == StatusCode::kOk; }
};

/// Abstract handle to one (possibly nested) transaction.
///
/// This is the engine-neutral API the examples, workloads, and benchmarks
/// program against. The nested engine (txn::TransactionManager) implements
/// real subtransactions; the baselines (baseline::FlatEngine,
/// baseline::MvtoEngine) implement the same surface with flattened
/// semantics so identical workload code runs on all engines.
///
/// Usage contract:
///  * `Get`/`Put`/`Apply` perform one access each; a kAborted result means
///    this transaction (or an ancestor) is dead — the caller should stop
///    issuing operations and let the handle destruct (or call Abort()).
///  * `BeginChild` opens a subtransaction; the parent must not commit
///    while children are open. Child failure does NOT doom the parent:
///    handling the child's kAborted status and retrying is exactly the
///    recovery-block pattern the paper's introduction motivates.
///  * Destroying a handle whose transaction is still active aborts it
///    (RAII: no leaked transactions).
class TxnHandle {
 public:
  virtual ~TxnHandle() = default;

  /// Read access: returns the value visible to this transaction.
  virtual StatusOr<Value> Get(ObjectId x) = 0;

  /// Write access: blind write of `v`.
  virtual Status Put(ObjectId x, Value v) = 0;

  /// General access applying `update`; returns the value *seen* (the
  /// paper's label). Get(x) == Apply(x, Update::Read()).
  virtual StatusOr<Value> Apply(ObjectId x, const action::Update& update) = 0;

  /// Opens a subtransaction. Fails with kAborted if this transaction is
  /// already dead.
  virtual StatusOr<std::unique_ptr<TxnHandle>> BeginChild() = 0;

  /// Commits this transaction relative to its parent. Fails with
  /// kIllegalState if children are still open, kAborted if dead.
  virtual Status Commit() = 0;

  /// Aborts this transaction and (transitively) its live descendants.
  /// Idempotent on dead transactions.
  virtual Status Abort() = 0;

  /// Performs `ops` accesses in order, writing one outcome per op into
  /// `results` (caller-owned, length >= ops.size()). Semantically
  /// identical to calling Apply per op: op k sees the effects of ops
  /// 0..k-1, and once the transaction dies (kAborted/kTimeout) every
  /// remaining op reports the same death without side effects.
  ///
  /// The base implementation is the per-op loop, so every engine accepts
  /// batches; engines with a cheaper bulk path override it (the nested
  /// engine groups a batch's lock acquisitions per lock-table shard and
  /// records all accesses under one ancestor-chain critical section —
  /// see internal::ShardedEngine::AccessBatch).
  virtual void ApplyBatch(std::span<const BatchAccess> ops,
                          OpOutcome* results) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      StatusOr<Value> r = Apply(ops[i].object, ops[i].update);
      if (r.ok()) {
        results[i] = OpOutcome{StatusCode::kOk, *r};
      } else {
        results[i] = OpOutcome{r.status().code(), 0};
      }
    }
  }

  /// Declares every access this top-level transaction and its
  /// descendants are about to make (`ops`, in any order, repeats
  /// allowed), before its first access. An engine may use it to take
  /// the locks ahead in one global object order, which rules out wait
  /// cycles among transactions that declare; the accesses themselves
  /// are still issued afterwards, and an access outside the declaration
  /// stays legal. A non-ok result means the transaction died while
  /// waiting (kAborted, kTimeout), as an access would have reported.
  /// The base implementation declares nothing.
  virtual Status LockAhead(std::span<const BatchAccess> /*ops*/) {
    return Status::Ok();
  }
};

/// Abstract engine: mints top-level transactions and exposes the
/// permanently committed state.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Starts a top-level transaction.
  virtual std::unique_ptr<TxnHandle> Begin() = 0;

  /// The committed (top-level durable) value of `x`.
  virtual Value ReadCommitted(ObjectId x) = 0;

  /// Engine name for benchmark reporting.
  virtual std::string name() const = 0;
};

}  // namespace rnt::txn

#endif  // RNT_TXN_ENGINE_H_
