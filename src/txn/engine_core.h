#ifndef RNT_TXN_ENGINE_CORE_H_
#define RNT_TXN_ENGINE_CORE_H_

#include <map>
#include <span>

#include "action/update.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/lock_manager.h"
#include "txn/trace.h"
#include "txn/transaction_manager.h"

namespace rnt::txn::internal {

/// The engine behind TransactionManager's public face. Two
/// implementations share every observable behavior (status codes,
/// stats semantics, trace shape): GlobalEngine — the seed design, one
/// mutex around everything, kept as the `--engine=global-mutex`
/// comparison baseline — and ShardedEngine, the fine-grained default.
class EngineCore {
 public:
  virtual ~EngineCore() = default;

  /// Begins a top-level transaction (cannot fail: the virtual root U
  /// never dies).
  virtual lock::TxnId BeginTop() = 0;
  /// Begins a subtransaction of `parent`; fails iff the parent is not
  /// active.
  virtual StatusOr<lock::TxnId> BeginChild(lock::TxnId parent) = 0;
  /// One access: lock acquisition (blocking, with deadlock/timeout
  /// policy), visible-value computation, private-version write.
  virtual StatusOr<Value> Access(lock::TxnId t, ObjectId x,
                                 const action::Update& update) = 0;
  /// Batched accesses: semantically one Access per op, in order, with
  /// per-op outcomes written into `out` (length >= ops.size()). Once the
  /// transaction dies mid-batch every remaining op reports the death.
  /// The default is the literal loop; ShardedEngine overrides it to
  /// group lock acquisitions per lock-table shard and record the whole
  /// batch under a single ancestor-chain critical section.
  virtual void AccessBatch(lock::TxnId t, std::span<const BatchAccess> ops,
                           OpOutcome* out) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      StatusOr<Value> r = Access(t, ops[i].object, ops[i].update);
      out[i] = r.ok() ? OpOutcome{StatusCode::kOk, *r}
                      : OpOutcome{r.status().code(), 0};
    }
  }
  /// See TxnHandle::LockAhead. The default declares nothing;
  /// ShardedEngine takes the locks ahead in object order.
  virtual Status LockAhead(lock::TxnId /*t*/,
                           std::span<const BatchAccess> /*ops*/) {
    return Status::Ok();
  }
  virtual Status Commit(lock::TxnId t) = 0;
  virtual Status Abort(lock::TxnId t) = 0;

  virtual Value ReadCommitted(ObjectId x) = 0;
  virtual Trace TakeTrace() = 0;
  virtual TransactionManager::Stats stats() const = 0;

  /// Seeds the committed store (quiescent engines only; see
  /// TransactionManager::Preload).
  virtual void Preload(const std::map<ObjectId, Value>& values) = 0;
  /// Snapshot of the committed store (see
  /// TransactionManager::DumpCommitted).
  virtual std::map<ObjectId, Value> DumpCommitted() const = 0;
};

}  // namespace rnt::txn::internal

#endif  // RNT_TXN_ENGINE_CORE_H_
