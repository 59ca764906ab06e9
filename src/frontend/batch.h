#ifndef RNT_FRONTEND_BATCH_H_
#define RNT_FRONTEND_BATCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "action/update.h"
#include "common/status.h"
#include "common/types.h"
#include "frontend/arena.h"
#include "txn/engine.h"

namespace rnt::frontend {

/// One operation of a batched submission. A batch mixes data accesses
/// with transaction-control ops, so a whole begin…ops…commit round trip
/// (or several) fits in one call — and batches may also *straddle*
/// those boundaries: a session keeps its open-transaction stack across
/// batches, so one batch can begin a subtransaction that a later batch
/// commits.
enum class BatchOpKind : std::uint8_t {
  kGet = 0,     // read `object`
  kPut = 1,     // write Update::Write(a) to `object`
  kApply = 2,   // apply `update` to `object`
  kBegin = 3,   // begin: top-level if the stack is empty, else a child
  kCommit = 4,  // commit the innermost open transaction
  kAbort = 5,   // abort the innermost open transaction
};

struct BatchOp {
  BatchOpKind kind = BatchOpKind::kGet;
  ObjectId object = 0;
  action::Update update;

  static BatchOp Get(ObjectId x) {
    return BatchOp{BatchOpKind::kGet, x, action::Update::Read()};
  }
  static BatchOp Put(ObjectId x, Value v) {
    return BatchOp{BatchOpKind::kPut, x, action::Update::Write(v)};
  }
  static BatchOp Apply(ObjectId x, const action::Update& u) {
    return BatchOp{BatchOpKind::kApply, x, u};
  }
  static BatchOp Begin() { return BatchOp{BatchOpKind::kBegin, 0, {}}; }
  static BatchOp Commit() { return BatchOp{BatchOpKind::kCommit, 0, {}}; }
  static BatchOp Abort() { return BatchOp{BatchOpKind::kAbort, 0, {}}; }
};

/// A batch: many ops per call, storage owned by the caller's arena.
struct BatchRequest {
  std::span<const BatchOp> ops;
};

/// Per-op outcome. For data ops, `value` is the value seen (the paper's
/// label). For kBegin/kCommit/kAbort, `value` is 0 and `code` reports
/// the control outcome. An op refused because the session state makes it
/// meaningless (kGet with no open transaction, kCommit on an empty
/// stack) reports kIllegalState.
struct OpResult {
  StatusCode code = StatusCode::kOk;
  Value value = 0;
  bool ok() const { return code == StatusCode::kOk; }
};

/// The outcome of one executed batch: one OpResult per op (same index),
/// plus summary counts for cheap fleet accounting.
struct BatchResult {
  std::span<const OpResult> results;
  std::uint32_t ok_ops = 0;
  std::uint32_t failed_ops = 0;
};

/// Builds a BatchRequest out of arena storage. Reserve() once per
/// batch; the builder grows geometrically inside the arena if the
/// estimate was low (the abandoned prefix is reclaimed by the next
/// arena Reset).
class BatchBuilder {
 public:
  explicit BatchBuilder(Arena* arena) : arena_(arena) {}

  void Reserve(std::size_t n) {
    if (n > cap_) Regrow(n);
  }

  BatchBuilder& Push(const BatchOp& op) {
    if (size_ == cap_) Regrow(cap_ == 0 ? 16 : cap_ * 2);
    ops_[size_++] = op;
    return *this;
  }
  BatchBuilder& Get(ObjectId x) { return Push(BatchOp::Get(x)); }
  BatchBuilder& Put(ObjectId x, Value v) { return Push(BatchOp::Put(x, v)); }
  BatchBuilder& Apply(ObjectId x, const action::Update& u) {
    return Push(BatchOp::Apply(x, u));
  }
  BatchBuilder& Begin() { return Push(BatchOp::Begin()); }
  BatchBuilder& Commit() { return Push(BatchOp::Commit()); }
  BatchBuilder& Abort() { return Push(BatchOp::Abort()); }

  std::size_t size() const { return size_; }

  /// The finished request (valid until the arena resets). The builder
  /// can keep pushing afterwards only via a fresh Build().
  BatchRequest Build() const {
    return BatchRequest{std::span<const BatchOp>(ops_, size_)};
  }

  /// Starts a new empty batch in the same (typically just-Reset) arena.
  void Clear() {
    ops_ = nullptr;
    size_ = cap_ = 0;
  }

 private:
  void Regrow(std::size_t cap) {
    BatchOp* bigger = arena_->AllocArray<BatchOp>(cap);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = ops_[i];
    ops_ = bigger;
    cap_ = cap;
  }

  Arena* arena_;
  BatchOp* ops_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

/// One client's stateful view of an engine: the open-transaction stack
/// that batched control ops push and pop. Executing a batch walks its
/// ops in order; *runs of consecutive data ops* are submitted through
/// TxnHandle::ApplyBatch in one call, which is where the engine-side
/// amortization (per-shard grouped lock acquisition, one ancestor-chain
/// critical section per run) comes from.
///
/// A batch that opens a top-level transaction and also closes it (its
/// matching kCommit/kAbort at depth 0 is in the same batch) declares
/// that transaction's data ops, children's included, through
/// TxnHandle::LockAhead right after the begin, so an engine can take
/// its locks ahead in object order. ExecuteSerial and transactions that
/// straddle batches declare nothing.
///
/// Not thread-safe: a session belongs to one thread at a time (the
/// async front end pins each session to one worker).
class Session {
 public:
  explicit Session(txn::Engine* engine) : engine_(engine) {}
  ~Session() { CloseAbort(); }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Executes `request`, writing one OpResult per op into `results`
  /// (caller/arena-owned, length >= request.ops.size()). Returns the
  /// filled BatchResult viewing `results`.
  BatchResult Execute(const BatchRequest& request, OpResult* results) {
    return Run(request, results, /*batched=*/true);
  }

  /// Reference semantics: the same batch executed one engine call per
  /// op (no ApplyBatch). The differential suite drives both paths over
  /// identical op streams and demands identical results; the benchmark
  /// uses it as the one-op-at-a-time baseline.
  BatchResult ExecuteSerial(const BatchRequest& request, OpResult* results) {
    return Run(request, results, /*batched=*/false);
  }

  /// Open-transaction depth (0 = no transaction in flight).
  std::size_t depth() const { return stack_.size(); }

  /// Aborts every open transaction (deepest first). Idempotent; how the
  /// front end drains sessions on shutdown.
  void CloseAbort();

 private:
  BatchResult Run(const BatchRequest& request, OpResult* results,
                  bool batched);
  /// Executes ops[i..i+n) — all data ops — against the innermost open
  /// transaction, via one ApplyBatch (batched) or n Apply calls.
  void RunDataOps(std::span<const BatchOp> run, OpResult* results,
                  bool batched);
  /// Called right after ops[begin] opened a top-level transaction: if
  /// the batch also closes it, declares its data ops via LockAhead.
  void LockAhead(std::span<const BatchOp> ops, std::size_t begin);

  txn::Engine* engine_;
  std::vector<std::unique_ptr<txn::TxnHandle>> stack_;
  /// Scratch for translating data-op runs; reused across batches so a
  /// steady-state session allocates nothing per batch.
  std::vector<txn::BatchAccess> scratch_ops_;
  std::vector<txn::OpOutcome> scratch_out_;
  /// A failed LockAhead's code (the transaction died waiting), reported
  /// by the next data run instead of the engine's generic kAborted.
  StatusCode ahead_failure_ = StatusCode::kOk;
};

}  // namespace rnt::frontend

#endif  // RNT_FRONTEND_BATCH_H_
