#include "txn/sharded_engine.h"

#include <algorithm>
#include <set>

namespace rnt::txn::internal {

using lock::kNoTxn;
using lock::TxnId;

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
/// Wait slice when deadlock detection is off: just a wakeup-miss
/// backstop (pokes and targeted notifies do the real waking).
constexpr std::chrono::milliseconds kIdleSlice{100};

using LockRequest = lock::LockManager::BatchLockRequest;

/// One request per distinct object of `ops`, at the strongest requested
/// mode (a write lock covers every read of the same object; taking it up
/// front is at most more conservative than the serial read-then-upgrade,
/// never weaker), sorted by object. Sort write-before-read per object and
/// keep each object's first entry — O(n log n) on one contiguous vector,
/// no per-op node allocation.
std::vector<LockRequest> LockRequests(std::span<const BatchAccess> ops) {
  std::vector<LockRequest> reqs;
  reqs.reserve(ops.size());
  for (const BatchAccess& op : ops) {
    reqs.push_back(LockRequest{op.object, op.update.IsRead()
                                              ? lock::LockMode::kRead
                                              : lock::LockMode::kWrite});
  }
  std::sort(reqs.begin(), reqs.end(),
            [](const LockRequest& a, const LockRequest& b) {
              if (a.object != b.object) return a.object < b.object;
              // kWrite sorts first so unique() keeps the strongest mode.
              return a.mode == lock::LockMode::kWrite &&
                     b.mode == lock::LockMode::kRead;
            });
  reqs.erase(std::unique(reqs.begin(), reqs.end(),
                         [](const LockRequest& a, const LockRequest& b) {
                           return a.object == b.object;
                         }),
             reqs.end());
  return reqs;
}
}  // namespace

ShardedEngine::ShardedEngine(TransactionManager::Options options)
    : options_(options),
      locks_(this, lock::LockManager::Options{
                       options.single_mode_locks,
                       std::max<std::uint32_t>(1, options.shards)}),
      next_id_(std::max<lock::TxnId>(1, options.first_txn_id)),
      table_(std::max<std::uint32_t>(1, options.shards)),
      store_(std::max<std::uint32_t>(1, options.shards)),
      waits_(std::max<std::uint32_t>(1, options.shards)) {}

bool ShardedEngine::IsAncestor(TxnId anc, TxnId desc) const {
  if (anc == kNoTxn || anc == desc) return true;
  auto rec = FindRec(desc);
  if (!rec) return false;
  return std::binary_search(rec->path.begin(), rec->path.end(), anc);
}

std::shared_ptr<ShardedEngine::TxnRec> ShardedEngine::FindRec(
    TxnId t) const {
  const TableShard& shard = table_[TxnShard(t)];
  MutexLock lk(shard.table_mu);
  auto it = shard.recs.find(t);
  return it == shard.recs.end() ? nullptr : it->second;
}

void ShardedEngine::InsertRec(const std::shared_ptr<TxnRec>& rec) {
  TableShard& shard = table_[TxnShard(rec->id)];
  MutexLock lk(shard.table_mu);
  shard.recs.emplace(rec->id, rec);
}

void ShardedEngine::CollectSubtree(TxnRec* root) {
  // The subtree is quiesced (root completed => every descendant
  // completed), so children vectors are frozen; the record mutex is
  // still taken for the read to keep the happens-before chain explicit.
  std::vector<TxnRec*> all{root};
  for (std::size_t i = 0; i < all.size(); ++i) {
    MutexLock lk(all[i]->rec_mu);
    for (TxnRec* c : all[i]->children) all.push_back(c);
  }
  for (TxnRec* r : all) {
    TableShard& shard = table_[TxnShard(r->id)];
    MutexLock lk(shard.table_mu);
    shard.recs.erase(r->id);
  }
}

void ShardedEngine::RegisterWait(TxnId t, WaitEdge edge) {
  WaitShard& shard = waits_[TxnShard(t)];
  MutexLock lk(shard.wait_mu);
  shard.edges[t] = std::move(edge);
}

void ShardedEngine::UnregisterWait(TxnId t) {
  WaitShard& shard = waits_[TxnShard(t)];
  MutexLock lk(shard.wait_mu);
  shard.edges.erase(t);
}

std::optional<ObjectId> ShardedEngine::WaitingOn(TxnId t) const {
  const WaitShard& shard = waits_[TxnShard(t)];
  MutexLock lk(shard.wait_mu);
  auto it = shard.edges.find(t);
  if (it == shard.edges.end()) return std::nullopt;
  return it->second.object;
}

std::map<TxnId, ShardedEngine::WaitEdge> ShardedEngine::WaitSnapshot()
    const {
  std::map<TxnId, WaitEdge> snap;
  for (const WaitShard& shard : waits_) {
    MutexLock lk(shard.wait_mu);
    for (const auto& [t, e] : shard.edges) snap.emplace(t, e);
  }
  return snap;
}

Value ShardedEngine::StoreRead(ObjectId x) const {
  const StoreShard& shard = store_[ObjShard(x)];
  MutexLock lk(shard.store_mu);
  const Value* v = shard.values.Find(x);
  return v == nullptr ? action::kInitValue : *v;
}

void ShardedEngine::AppendTrace(TraceEvent event) {
  // Sink before trace: the sink's ordering guarantee comes from the
  // caller's critical section, not from trace_mu_.
  if (options_.trace_sink != nullptr) options_.trace_sink->Append(event);
  if (options_.record_trace) {
    MutexLock lk(trace_mu_);
    trace_.events.push_back(std::move(event));
  }
}

void ShardedEngine::Preload(const std::map<ObjectId, Value>& values) {
  for (const auto& [x, v] : values) {
    StoreShard& shard = store_[ObjShard(x)];
    MutexLock lk(shard.store_mu);
    shard.values[x] = v;
  }
}

std::map<ObjectId, Value> ShardedEngine::DumpCommitted() const {
  std::map<ObjectId, Value> out;
  for (const StoreShard& shard : store_) {
    MutexLock lk(shard.store_mu);
    shard.values.ForEach([&](ObjectId x, Value v) { out.emplace(x, v); });
  }
  return out;
}

Value ShardedEngine::ReadCommitted(ObjectId x) { return StoreRead(x); }

Trace ShardedEngine::TakeTrace() {
  MutexLock lk(trace_mu_);
  Trace out = std::move(trace_);
  trace_.events.clear();
  return out;
}

TransactionManager::Stats ShardedEngine::stats() const {
  TransactionManager::Stats s;
  s.begun = begun_.load(kRelaxed);
  s.committed = committed_.load(kRelaxed);
  s.aborted = aborted_.load(kRelaxed);
  s.deadlock_aborts = deadlock_aborts_.load(kRelaxed);
  s.timeout_aborts = timeout_aborts_.load(kRelaxed);
  s.cascade_aborts = cascade_aborts_.load(kRelaxed);
  s.lock_waits = lock_waits_.load(kRelaxed);
  s.accesses = accesses_.load(kRelaxed);
  s.lock_records = locks_.RecordCount();
  for (const StoreShard& shard : store_) {
    MutexLock lk(shard.store_mu);
    s.store_objects += shard.values.size();
    s.store_bytes += shard.values.MemoryBytes();
  }
  return s;
}

TxnId ShardedEngine::BeginTop() {
  TxnId id = next_id_.fetch_add(1, kRelaxed);
  auto rec = std::make_shared<TxnRec>(id, kNoTxn, std::vector<TxnId>{id},
                                      nullptr);
  InsertRec(rec);
  begun_.fetch_add(1, kRelaxed);
  if (Logging()) {
    AppendTrace(TraceEvent{TraceEvent::Kind::kBegin, id, kNoTxn, 0, {}, 0});
  }
  return id;
}

StatusOr<TxnId> ShardedEngine::BeginChild(TxnId parent) {
  auto pr = FindRec(parent);
  if (!pr) return Status::Aborted("parent transaction is not active");
  TxnRec* p = pr.get();
  MutexLock plk(p->rec_mu);
  if (p->state != TxnState::kActive) {
    return Status::Aborted("parent transaction is not active");
  }
  TxnId id = next_id_.fetch_add(1, kRelaxed);
  std::vector<TxnId> path = p->path;
  path.push_back(id);
  auto rec = std::make_shared<TxnRec>(id, parent, std::move(path), pr);
  // Insert + link under the parent's mutex: the abort cascade marks the
  // parent kAborting under the same mutex, so a new child either lands
  // before the mark (and is visited) or the begin fails above.
  InsertRec(rec);
  p->children.push_back(rec.get());
  ++p->open_children;
  begun_.fetch_add(1, kRelaxed);
  if (Logging()) {
    AppendTrace(
        TraceEvent{TraceEvent::Kind::kBegin, id, parent, 0, {}, 0});
  }
  return id;
}

Status ShardedEngine::DeadStatusLocked(const TxnRec& rec) {
  if (rec.cause == AbortCause::kDeadlock) {
    return Status::Aborted("deadlock victim");
  }
  return Status::Aborted("transaction is not active");
}

// rnt-order: sorted(txn.rec)
void ShardedEngine::LockChain(const std::vector<TxnRec*>& chain) {
  // Root-first (the global record ordering); chain is self..root.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    (*it)->rec_mu.Lock();
  }
}

void ShardedEngine::UnlockChain(const std::vector<TxnRec*>& chain) {
  for (TxnRec* r : chain) r->rec_mu.Unlock();
}

// rnt-order: holds(txn.rec)
StatusOr<Value> ShardedEngine::RecordAccessChainLocked(
    std::span<TxnRec* const> chain, ObjectId x,
    const action::Update& update) {
  TxnRec* rec = chain.front();  // chain is self..root
  if (rec->state != TxnState::kActive) {
    // Aborted (or committed via a stale handle) between the lock grant
    // and the record: undo the grant — the cascade's OnAbort may have
    // run before we acquired, leaving an orphan hold otherwise.
    Status s = DeadStatusLocked(*rec);
    locks_.OnAbort(rec->id, rec->lock_shards.load(kRelaxed));
    return s;
  }
  accesses_.fetch_add(1, kRelaxed);
  Value seen = action::kInitValue;
  bool found = false;
  for (TxnRec* r : chain) {
    auto it = r->buffer.find(x);
    if (it != r->buffer.end()) {
      seen = it->second;
      found = true;
      break;
    }
  }
  if (!found) seen = StoreRead(x);
  if (!update.IsRead()) rec->buffer[x] = update.Apply(seen);
  if (Logging()) {
    AppendTrace(TraceEvent{TraceEvent::Kind::kPerform,
                           next_id_.fetch_add(1, kRelaxed), rec->id, x,
                           update, seen});
  }
  return seen;
}

Status ShardedEngine::AcquireLockBlocking(TxnRec* r, ObjectId x,
                                          lock::LockMode mode) {
  const TxnId t = r->id;
  const auto deadline =
      std::chrono::steady_clock::now() + options_.lock_wait_timeout;
  bool waited = false;
  for (;;) {
    {
      MutexLock lk(r->rec_mu);
      if (r->state != TxnState::kActive) return DeadStatusLocked(*r);
    }
    auto attempt = locks_.AcquireOrEnqueue(x, t, mode);
    if (attempt.acquired) {
      r->lock_shards.fetch_or(locks_.ShardBit(x), kRelaxed);
      return Status::Ok();
    }
    if (!waited) {
      waited = true;
      lock_waits_.fetch_add(1, kRelaxed);
    }
    RegisterWait(t, WaitEdge{x, std::move(attempt.blockers)});
    if (options_.deadlock_detection && ResolveDeadlockFrom(t)) {
      // We are the victim; our subtree is already aborted.
      UnregisterWait(t);
      locks_.CancelWait(x);
      return Status::Aborted("deadlock victim");
    }
    // Wait in slices: a targeted wakeup (release/poke on x) ends the
    // wait early; the slice boundary re-runs deadlock detection.
    const auto now = std::chrono::steady_clock::now();
    const auto slice = options_.deadlock_detection
                           ? options_.deadlock_check_interval
                           : kIdleSlice;
    const auto slice_end = std::min(deadline, now + slice);
    bool moved = locks_.WaitOn(x, attempt.ticket, slice_end);
    UnregisterWait(t);
    if (!moved && std::chrono::steady_clock::now() >= deadline) {
      {
        MutexLock lk(r->rec_mu);
        if (r->state != TxnState::kActive) return DeadStatusLocked(*r);
      }
      timeout_aborts_.fetch_add(1, kRelaxed);
      AbortAndCollect(r, AbortCause::kTimeout);
      return Status::Timeout("lock wait timed out");
    }
  }
}

StatusOr<Value> ShardedEngine::Access(TxnId t, ObjectId x,
                                      const action::Update& update) {
  auto rec = FindRec(t);
  if (!rec) return Status::Aborted("transaction is not active");
  TxnRec* r = rec.get();
  const lock::LockMode mode =
      update.IsRead() ? lock::LockMode::kRead : lock::LockMode::kWrite;
  RNT_RETURN_IF_ERROR(AcquireLockBlocking(r, x, mode));
  // Lock held. Lock the ancestor chain root-first (the global record
  // ordering) so value read + buffer write + trace append are atomic
  // against a child of ours committing its buffer into us.
  std::vector<TxnRec*> chain;  // self..root
  for (TxnRec* c = r; c != nullptr; c = c->parent_rec.get()) {
    chain.push_back(c);
  }
  LockChain(chain);
  auto result = RecordAccessChainLocked(chain, x, update);
  UnlockChain(chain);
  return result;
}

// rnt-order: holds(txn.rec)
void ShardedEngine::RecordBatchChainLocked(std::span<TxnRec* const> chain,
                                           std::span<const BatchAccess> ops,
                                           OpOutcome* out) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    StatusOr<Value> res =
        RecordAccessChainLocked(chain, ops[i].object, ops[i].update);
    if (res.ok()) {
      out[i] = OpOutcome{StatusCode::kOk, *res};
      continue;
    }
    // Dead at entry (aborted between the grant and the chain lock):
    // RecordAccessChainLocked swept the locks; report the death for
    // every remaining op.
    const StatusCode code = res.status().code();
    for (std::size_t j = i; j < ops.size(); ++j) out[j] = OpOutcome{code, 0};
    return;
  }
}

bool ShardedEngine::CoveredLocked(const TxnRec& rec,
                                  std::span<const BatchAccess> ops) {
  if (rec.ahead.empty() || rec.open_children != 0) return false;
  for (const BatchAccess& op : ops) {
    auto it = std::lower_bound(
        rec.ahead.begin(), rec.ahead.end(), op.object,
        [](const LockRequest& r, ObjectId x) { return r.object < x; });
    if (it == rec.ahead.end() || it->object != op.object) return false;
    if (it->mode == lock::LockMode::kRead && !op.update.IsRead()) {
      return false;
    }
  }
  return true;
}

void ShardedEngine::AccessBatch(TxnId t, std::span<const BatchAccess> ops,
                                OpOutcome* out) {
  if (ops.empty()) return;
  auto rec = FindRec(t);
  if (!rec) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      out[i] = OpOutcome{StatusCode::kAborted, 0};
    }
    return;
  }
  TxnRec* r = rec.get();
  if (r->parent_rec == nullptr) {
    // A top-level chain is the record alone: holding its mutex is the
    // chain lock, and it also fixes open_children for the check.
    TxnRec* const self[] = {r};
    MutexLock lk(r->rec_mu);
    if (CoveredLocked(*r, ops)) {
      RecordBatchChainLocked(self, ops, out);
      return;
    }
  }
  const std::vector<LockRequest> reqs = LockRequests(ops);
  // Fast path: grant everything uncontended with one lock-table pass
  // (each lock shard's mutex taken once for the whole batch)...
  std::vector<bool> granted;
  locks_.TryAcquireBatch(t, reqs, granted);
  lock::LockManager::ShardSet granted_shards = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (granted[i]) granted_shards |= locks_.ShardBit(reqs[i].object);
  }
  r->lock_shards.fetch_or(granted_shards, kRelaxed);
  // ...then fall back to the serial blocking path for each contended
  // object, in object order, under the usual deadlock/timeout policy.
  // Waiting here while holding the already-granted locks is exactly what
  // serial submission does after its earlier ops, so the wait-for-graph
  // machinery covers these waits unchanged.
  Status lock_status = Status::Ok();
  for (std::size_t i = 0; i < reqs.size() && lock_status.ok(); ++i) {
    if (granted[i]) continue;
    lock_status = AcquireLockBlocking(r, reqs[i].object, reqs[i].mode);
  }
  if (!lock_status.ok()) {
    // The transaction died acquiring the batch's locks (deadlock victim,
    // timeout abort, or already dead on entry): no op has executed, so
    // the whole batch reports the death — the same outcome as the
    // transaction dying just before the batch started. The fast path's
    // grants may postdate the abort's lose-lock sweep (a batch on an
    // already-aborted transaction is granted its uncontended objects),
    // so sweep again; OnAbort is idempotent.
    locks_.OnAbort(t, r->lock_shards.load(kRelaxed));
    for (std::size_t i = 0; i < ops.size(); ++i) {
      out[i] = OpOutcome{lock_status.code(), 0};
    }
    return;
  }
  // Every lock held: record the whole batch, in submission order, under
  // one ancestor-chain critical section (Access pays this chain
  // lock/unlock once per op; the batch pays it once per call).
  std::vector<TxnRec*> chain;  // self..root
  for (TxnRec* c = r; c != nullptr; c = c->parent_rec.get()) {
    chain.push_back(c);
  }
  LockChain(chain);
  RecordBatchChainLocked(chain, ops, out);
  UnlockChain(chain);
}

Status ShardedEngine::LockAhead(TxnId t, std::span<const BatchAccess> ops) {
  auto rec = FindRec(t);
  if (!rec) return Status::Aborted("transaction is not active");
  TxnRec* r = rec.get();
  if (r->parent_rec != nullptr || ops.empty()) return Status::Ok();
  {
    MutexLock lk(r->rec_mu);
    if (r->state != TxnState::kActive) return DeadStatusLocked(*r);
    // Only before the first lock: a lock some access already used must
    // never be given back below.
    if (!r->ahead.empty() || r->lock_shards.load(kRelaxed) != 0) {
      return Status::Ok();
    }
  }
  std::vector<LockRequest> reqs = LockRequests(ops);
  std::vector<bool> granted;
  locks_.TryAcquireBatch(t, reqs, granted);
  const std::size_t refused = static_cast<std::size_t>(
      std::find(granted.begin(), granted.end(), false) - granted.begin());
  lock::LockManager::ShardSet kept_shards = 0;
  for (std::size_t i = 0; i < refused; ++i) {
    kept_shards |= locks_.ShardBit(reqs[i].object);
  }
  r->lock_shards.fetch_or(kept_shards, kRelaxed);
  Status s = Status::Ok();
  if (refused < reqs.size()) {
    // Keep the grants below the lowest refused object and give back the
    // ones above it, so no wait below happens while holding an object
    // above the one waited for. Then take the rest in ascending order.
    std::vector<ObjectId> above;
    for (std::size_t i = refused + 1; i < reqs.size(); ++i) {
      if (granted[i]) above.push_back(reqs[i].object);
    }
    locks_.GiveBack(t, above);
    for (std::size_t i = refused; i < reqs.size() && s.ok(); ++i) {
      s = AcquireLockBlocking(r, reqs[i].object, reqs[i].mode);
    }
  }
  {
    MutexLock lk(r->rec_mu);
    if (s.ok() && r->state != TxnState::kActive) s = DeadStatusLocked(*r);
    if (s.ok()) r->ahead = std::move(reqs);
  }
  // Dead: a grant may postdate the abort's lose-lock sweep (the abort
  // reads lock_shards after marking the record, as in AccessBatch), so
  // sweep again; OnAbort is idempotent.
  if (!s.ok()) locks_.OnAbort(t, r->lock_shards.load(kRelaxed));
  return s;
}

Status ShardedEngine::CommitCheckLocked(const TxnRec& rec) {
  if (rec.state == TxnState::kAborted || rec.state == TxnState::kAborting) {
    return Status::Aborted("transaction was aborted");
  }
  if (rec.state == TxnState::kCommitted) {
    return Status::IllegalState("transaction already committed");
  }
  if (rec.open_children != 0) {
    return Status::IllegalState("commit with open subtransactions");
  }
  return Status::Ok();
}

Status ShardedEngine::CommitChildLocked(TxnRec* rec, TxnRec* parent) {
  RNT_RETURN_IF_ERROR(CommitCheckLocked(*rec));
  if (parent->state != TxnState::kActive) {
    // Orphan: an ancestor is dead or dying; the cascade will emit our
    // abort event, so do not commit into a doomed buffer.
    return Status::Aborted("transaction was aborted");
  }
  // Version propagation (d24)/(e21): private values merge into the
  // parent's buffer — before the commit event and before any lock is
  // released, so a later acquirer of x observes the merged value.
  for (const auto& [x, v] : rec->buffer) parent->buffer[x] = v;
  rec->buffer.clear();
  rec->state = TxnState::kCommitted;
  --parent->open_children;
  if (Logging()) {
    AppendTrace(
        TraceEvent{TraceEvent::Kind::kCommit, rec->id, rec->parent, 0, {}, 0});
  }
  return Status::Ok();
}

Status ShardedEngine::CommitTopLocked(TxnRec* rec) {
  RNT_RETURN_IF_ERROR(CommitCheckLocked(*rec));
  // Top-level commit: private values become durable — before the commit
  // event and before any lock is released, as above.
  for (const auto& [x, v] : rec->buffer) {
    StoreShard& shard = store_[ObjShard(x)];
    MutexLock slk(shard.store_mu);
    shard.values[x] = v;
  }
  rec->buffer.clear();
  rec->state = TxnState::kCommitted;
  if (Logging()) {
    AppendTrace(
        TraceEvent{TraceEvent::Kind::kCommit, rec->id, kNoTxn, 0, {}, 0});
  }
  return Status::Ok();
}

// rnt-order: sorted(txn.rec)  — parent-before-child nested pair below.
Status ShardedEngine::Commit(TxnId t) {
  auto rec = FindRec(t);
  if (!rec) return Status::Aborted("transaction is gone");
  TxnRec* r = rec.get();
  TxnRec* p = r->parent_rec.get();
  Status prep = Status::Ok();
  if (p != nullptr) {
    // Parent before child — the global record ordering.
    MutexLock plk(p->rec_mu);
    MutexLock lk(r->rec_mu);
    prep = CommitChildLocked(r, p);
  } else {
    MutexLock lk(r->rec_mu);
    prep = CommitTopLocked(r);
  }
  if (!prep.ok()) return prep;
  // Lock inheritance + targeted wakeups (release-lock). Runs after the
  // merge above: the shard mutex orders the release after the buffer
  // write, so woken waiters see the merged values. The parent inherits
  // into our shards, so they join its set first — before the recheck of
  // its state below, which is what lets the race repair find them.
  const lock::LockManager::ShardSet shards = r->lock_shards.load(kRelaxed);
  if (p != nullptr) p->lock_shards.fetch_or(shards, kRelaxed);
  locks_.OnCommit(t, r->parent, shards);
  if (p != nullptr) {
    // Inheritance race repair: between our critical section (parent
    // observed kActive) and the OnCommit above, an abort cascade may
    // have killed the parent AND already run its lose-lock sweep — the
    // inheritance then re-creates retained locks for a dead transaction,
    // which would block non-descendants on those objects forever.
    // kAborted is set before the cascade's OnAbort runs, so: observing
    // kActive/kAborting means the cascade's own OnAbort is still ahead
    // of us and will sweep what we inherited; observing kAborted means
    // it may be behind us, so sweep here (OnAbort is idempotent, and the
    // parent's buffer was already cleared before kAborted was set — no
    // stale value becomes visible through the early release).
    bool parent_collected;
    {
      MutexLock plk(p->rec_mu);
      parent_collected = p->state == TxnState::kAborted;
    }
    if (parent_collected) {
      locks_.OnAbort(r->parent, p->lock_shards.load(kRelaxed));
    }
  }
  committed_.fetch_add(1, kRelaxed);
  if (p == nullptr) CollectSubtree(r);
  return Status::Ok();
}

Status ShardedEngine::Abort(TxnId t) {
  auto rec = FindRec(t);
  if (!rec) return Status::Ok();  // idempotent on unknown transactions
  AbortAndCollect(rec.get(), AbortCause::kRequested);
  return Status::Ok();
}

bool ShardedEngine::AbortAndCollect(TxnRec* rec, AbortCause cause) {
  bool transitioned = AbortTree(rec, cause);
  if (transitioned && rec->parent == kNoTxn) CollectSubtree(rec);
  return transitioned;
}

bool ShardedEngine::AbortTree(TxnRec* rec, AbortCause cause) {
  std::vector<TxnRec*> kids;
  {
    MutexLock lk(rec->rec_mu);
    if (rec->state != TxnState::kActive) {
      return false;  // idempotent on dead transactions
    }
    // Mark first: freezes the children list and fails new accesses and
    // commits, so the snapshot below covers the whole live subtree.
    rec->state = TxnState::kAborting;
    rec->cause = cause;
    kids = rec->children;
  }
  // Kill live descendants first (post-order), one abort event each —
  // the cascade's children-first event order that ReplayTrace enforces.
  for (TxnRec* c : kids) {
    AbortTree(c, AbortCause::kCascade);
  }
  {
    MutexLock lk(rec->rec_mu);
    rec->buffer.clear();  // (f21): discard private versions
    rec->state = TxnState::kAborted;
    if (Logging()) {
      AppendTrace(TraceEvent{TraceEvent::Kind::kAbort, rec->id,
                             rec->parent, 0, {}, 0});
    }
  }
  // Lose-lock, with targeted wakeups. The set is read after kAborted was
  // published under rec_mu: a grant whose bit is still missing belongs to
  // an access that has yet to check the state, and it sweeps for itself.
  locks_.OnAbort(rec->id, rec->lock_shards.load(kRelaxed));
  if (rec->parent_rec) {
    TxnRec* p = rec->parent_rec.get();
    MutexLock plk(p->rec_mu);
    --p->open_children;
  }
  aborted_.fetch_add(1, kRelaxed);
  if (cause == AbortCause::kCascade) cascade_aborts_.fetch_add(1, kRelaxed);
  // If the transaction's thread is blocked on a lock, kick it awake so
  // it observes the abort.
  if (auto x = WaitingOn(rec->id)) locks_.Poke(*x);
  return true;
}

bool ShardedEngine::ResolveDeadlockFrom(TxnId start) {
  // Shard-by-shard snapshot: no stop-the-world. The snapshot may be
  // slightly stale under churn — at worst a just-broken cycle aborts a
  // victim spuriously, which is always a legal outcome.
  const std::map<TxnId, WaitEdge> snap = WaitSnapshot();
  // Wait-for reachability over the nested structure: t waits for blocker
  // q; q cannot release until its subtree completes, so t transitively
  // waits on every *waiting* descendant of q. DFS with predecessors so
  // the cycle can be reconstructed.
  std::map<TxnId, TxnId> pred;
  std::vector<TxnId> stack{start};
  std::set<TxnId> visited{start};
  std::vector<TxnId> cycle;
  while (!stack.empty() && cycle.empty()) {
    TxnId c = stack.back();
    stack.pop_back();
    auto wit = snap.find(c);
    if (wit == snap.end()) continue;
    for (TxnId q : wit->second.blockers) {
      for (const auto& [w, edge] : snap) {
        if (!IsAncestor(q, w)) continue;
        if (w == start) {
          for (TxnId p = c;; p = pred.at(p)) {
            cycle.push_back(p);
            if (p == start) break;
          }
          break;
        }
        if (visited.insert(w).second) {
          pred[w] = c;
          stack.push_back(w);
        }
      }
      if (!cycle.empty()) break;
    }
  }
  if (cycle.empty()) return false;
  // Deterministic victim: the youngest (largest id) waiter on the cycle,
  // so a fixed-seed run always kills the same transaction.
  const TxnId victim = *std::max_element(cycle.begin(), cycle.end());
  auto vrec = FindRec(victim);
  if (vrec) {
    if (AbortAndCollect(vrec.get(), AbortCause::kDeadlock)) {
      deadlock_aborts_.fetch_add(1, kRelaxed);
    }
  }
  return victim == start;
}

}  // namespace rnt::txn::internal
