#include "txn/transaction_manager.h"

#include "txn/sharded_engine.h"

namespace rnt::txn {

TransactionManager::TransactionManager() : TransactionManager(Options{}) {}

TransactionManager::TransactionManager(Options options)
    : impl_(std::make_unique<internal::ShardedEngine>(options)) {}

TransactionManager::~TransactionManager() = default;

std::unique_ptr<TxnHandle> TransactionManager::Begin() {
  lock::TxnId id = impl_->BeginTop();
  return std::unique_ptr<TxnHandle>(new Transaction(impl_.get(), id));
}

Value TransactionManager::ReadCommitted(ObjectId x) {
  return impl_->ReadCommitted(x);
}

Trace TransactionManager::TakeTrace() { return impl_->TakeTrace(); }

void TransactionManager::Preload(const std::map<ObjectId, Value>& values) {
  impl_->Preload(values);
}

std::map<ObjectId, Value> TransactionManager::DumpCommitted() const {
  return impl_->DumpCommitted();
}

TransactionManager::Stats TransactionManager::stats() const {
  return impl_->stats();
}

// ---------------------------------------------------------------------
// Transaction handle.

Transaction::~Transaction() {
  // Destructor abort of an unfinished txn: no caller left to report to.
  if (!finished_) (void)Abort();  // rnt-lint: allow(status-must-use)
}

StatusOr<Value> Transaction::Get(ObjectId x) {
  return Apply(x, action::Update::Read());
}

Status Transaction::Put(ObjectId x, Value v) {
  auto r = Apply(x, action::Update::Write(v));
  return r.status();
}

StatusOr<Value> Transaction::Apply(ObjectId x, const action::Update& update) {
  return core_->Access(id_, x, update);
}

void Transaction::ApplyBatch(std::span<const BatchAccess> ops,
                             OpOutcome* results) {
  core_->AccessBatch(id_, ops, results);
}

Status Transaction::LockAhead(std::span<const BatchAccess> ops) {
  return core_->LockAhead(id_, ops);
}

StatusOr<std::unique_ptr<TxnHandle>> Transaction::BeginChild() {
  RNT_ASSIGN_OR_RETURN(lock::TxnId child, core_->BeginChild(id_));
  return std::unique_ptr<TxnHandle>(new Transaction(core_, child));
}

Status Transaction::Commit() {
  Status s = core_->Commit(id_);
  if (s.ok() || s.IsAborted()) finished_ = true;
  return s;
}

Status Transaction::Abort() {
  finished_ = true;
  return core_->Abort(id_);
}

}  // namespace rnt::txn
