#include "lock/lock_manager.h"

#include <algorithm>

namespace rnt::lock {

std::string_view LockModeName(LockMode m) {
  return m == LockMode::kRead ? "read" : "write";
}

LockManager::LockManager(const Ancestry* ancestry, Options options)
    : ancestry_(ancestry),
      options_(options),
      shards_(std::max<std::uint32_t>(1, options.shards)) {}

// rnt-order: holds(lock.shard)
// Callers hold the shard mutex; `locks` is that shard's guarded entry.
// The Ancestry oracle may read the transaction table (txn.table) here.
bool LockManager::Conflicts(const ObjectLocks& locks, TxnId t, LockMode mode,
                            std::vector<TxnId>* out) const {
  bool any = false;
  auto consider = [&](TxnId q, const ModeSet& ms) {
    if (q == t) return;  // own locks never conflict
    // WRITE request conflicts with any lock by a non-ancestor;
    // READ request conflicts only with WRITE locks by non-ancestors.
    bool relevant = (mode == LockMode::kWrite) ? ms.Any() : ms.write;
    if (!relevant) return;
    if (ancestry_->IsAncestor(q, t)) return;
    any = true;
    if (out != nullptr &&
        std::find(out->begin(), out->end(), q) == out->end()) {
      out->push_back(q);
    }
  };
  for (const auto& [q, ms] : locks.holders) consider(q, ms);
  for (const auto& [q, ms] : locks.retainers) consider(q, ms);
  return any;
}

void LockManager::Grant(Shard& shard, ObjectId x, TxnId t, LockMode mode) {
  ModeSet& ms = shard.objects[x].holders[t];
  if (mode == LockMode::kRead) {
    ms.read = true;
  } else {
    ms.write = true;
  }
  shard.touched[t].insert(x);
}

void LockManager::NotifyObject(Shard& shard, ObjectId x) {
  auto it = shard.waits.find(x);
  if (it == shard.waits.end()) return;
  ++it->second.version;
  it->second.cv.NotifyAll();
}

bool LockManager::TryAcquire(ObjectId x, TxnId t, LockMode mode) {
  mode = Effective(mode);
  Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  if (auto it = shard.objects.find(x); it != shard.objects.end()) {
    if (Conflicts(it->second, t, mode, nullptr)) return false;
  }
  Grant(shard, x, t, mode);
  return true;
}

std::size_t LockManager::TryAcquireBatch(
    TxnId t, std::span<const BatchLockRequest> reqs,
    std::vector<bool>& granted) {
  granted.assign(reqs.size(), false);
  // Visit each shard once: order request indices by shard (stable, so
  // same-shard requests keep submission order) and grant each run of
  // same-shard requests under one critical section.
  std::vector<std::uint32_t> order(reqs.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return ShardIndex(reqs[a].object) <
                            ShardIndex(reqs[b].object);
                   });
  std::size_t acquired = 0;
  for (std::size_t k = 0; k < order.size();) {
    const std::size_t shard_idx = ShardIndex(reqs[order[k]].object);
    Shard& shard = shards_[shard_idx];
    MutexLock lk(shard.lock_mu);
    for (; k < order.size() && ShardIndex(reqs[order[k]].object) == shard_idx;
         ++k) {
      const BatchLockRequest& r = reqs[order[k]];
      const LockMode mode = Effective(r.mode);
      bool ok = true;
      if (auto it = shard.objects.find(r.object); it != shard.objects.end()) {
        ok = !Conflicts(it->second, t, mode, nullptr);
      }
      if (ok) {
        Grant(shard, r.object, t, mode);
        ++acquired;
      }
      granted[order[k]] = ok;
    }
  }
  return acquired;
}

void LockManager::GiveBack(TxnId t, std::span<const ObjectId> objects) {
  for (ObjectId x : objects) {
    Shard& shard = ShardFor(x);
    MutexLock lk(shard.lock_mu);
    auto ot = shard.objects.find(x);
    if (ot == shard.objects.end()) continue;
    ot->second.holders.erase(t);
    const bool retained = ot->second.retainers.count(t) != 0;
    if (ot->second.Empty()) shard.objects.erase(ot);
    if (auto tt = shard.touched.find(t);
        !retained && tt != shard.touched.end()) {
      tt->second.erase(x);
      if (tt->second.empty()) shard.touched.erase(tt);
    }
    NotifyObject(shard, x);
  }
}

std::vector<TxnId> LockManager::Blockers(ObjectId x, TxnId t,
                                         LockMode mode) const {
  std::vector<TxnId> out;
  const Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  auto it = shard.objects.find(x);
  if (it == shard.objects.end()) return out;
  Conflicts(it->second, t, Effective(mode), &out);
  return out;
}

LockManager::AcquireResult LockManager::AcquireOrEnqueue(ObjectId x, TxnId t,
                                                         LockMode mode) {
  mode = Effective(mode);
  Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  AcquireResult result;
  auto it = shard.objects.find(x);
  if (it == shard.objects.end() ||
      !Conflicts(it->second, t, mode, &result.blockers)) {
    Grant(shard, x, t, mode);
    result.acquired = true;
    result.blockers.clear();
    return result;
  }
  // Conflict: register on x's wait queue in the same critical section, so
  // a release between the failed check and WaitOn still bumps our ticket.
  WaitPoint& wp = shard.waits[x];
  ++wp.waiters;
  result.ticket = wp.version;
  return result;
}

bool LockManager::WaitOn(ObjectId x, std::uint64_t ticket,
                         std::chrono::steady_clock::time_point deadline) {
  Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  auto it = shard.waits.find(x);
  if (it == shard.waits.end()) return true;  // queue already moved & drained
  WaitPoint& wp = it->second;
  bool moved = true;
  while (wp.version == ticket) {
    if (wp.cv.WaitUntil(shard.lock_mu, deadline) == std::cv_status::timeout) {
      moved = wp.version != ticket;
      break;
    }
  }
  if (--wp.waiters == 0) shard.waits.erase(it);
  return moved;
}

void LockManager::CancelWait(ObjectId x) {
  Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  auto it = shard.waits.find(x);
  if (it == shard.waits.end()) return;
  if (--it->second.waiters == 0) shard.waits.erase(it);
}

void LockManager::Poke(ObjectId x) {
  Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  NotifyObject(shard, x);
}

void LockManager::OnCommit(TxnId t, TxnId parent, ShardSet shards) {
  ForEachShard(shards, [&](Shard& shard) {
    MutexLock lk(shard.lock_mu);
    auto it = shard.touched.find(t);
    if (it == shard.touched.end()) return;
    for (ObjectId x : it->second) {
      auto ot = shard.objects.find(x);
      if (ot == shard.objects.end()) continue;
      ObjectLocks& locks = ot->second;
      ModeSet merged;
      if (auto h = locks.holders.find(t); h != locks.holders.end()) {
        merged.Merge(h->second);
        locks.holders.erase(h);
      }
      if (auto r = locks.retainers.find(t); r != locks.retainers.end()) {
        merged.Merge(r->second);
        locks.retainers.erase(r);
      }
      if (merged.Any() && parent != kNoTxn) {
        locks.retainers[parent].Merge(merged);
        shard.touched[parent].insert(x);
      }
      if (locks.Empty()) shard.objects.erase(ot);
      // Inheritance can unblock the retainer's descendants (and a
      // top-level commit unblocks everyone): wake x's waiters.
      NotifyObject(shard, x);
    }
    shard.touched.erase(t);
  });
}

void LockManager::OnAbort(TxnId t, ShardSet shards) {
  ForEachShard(shards, [&](Shard& shard) {
    MutexLock lk(shard.lock_mu);
    auto it = shard.touched.find(t);
    if (it == shard.touched.end()) return;
    for (ObjectId x : it->second) {
      auto ot = shard.objects.find(x);
      if (ot == shard.objects.end()) continue;
      ot->second.holders.erase(t);
      ot->second.retainers.erase(t);
      if (ot->second.Empty()) shard.objects.erase(ot);
      NotifyObject(shard, x);
    }
    shard.touched.erase(t);
  });
}

bool LockManager::Holds(ObjectId x, TxnId t, LockMode mode) const {
  const Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  auto it = shard.objects.find(x);
  if (it == shard.objects.end()) return false;
  auto h = it->second.holders.find(t);
  if (h == it->second.holders.end()) return false;
  return mode == LockMode::kRead ? h->second.read : h->second.write;
}

bool LockManager::Retains(ObjectId x, TxnId t, LockMode mode) const {
  const Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  auto it = shard.objects.find(x);
  if (it == shard.objects.end()) return false;
  auto r = it->second.retainers.find(t);
  if (r == it->second.retainers.end()) return false;
  return mode == LockMode::kRead ? r->second.read : r->second.write;
}

std::size_t LockManager::HolderCount(ObjectId x) const {
  const Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  auto it = shard.objects.find(x);
  return it == shard.objects.end() ? 0 : it->second.holders.size();
}

std::size_t LockManager::RetainerCount(ObjectId x) const {
  const Shard& shard = ShardFor(x);
  MutexLock lk(shard.lock_mu);
  auto it = shard.objects.find(x);
  return it == shard.objects.end() ? 0 : it->second.retainers.size();
}

std::size_t LockManager::RecordCount() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lk(shard.lock_mu);
    for (const auto& [x, locks] : shard.objects) {
      n += locks.holders.size() + locks.retainers.size();
    }
  }
  return n;
}

}  // namespace rnt::lock
