// Regression tests for lock-discipline bugs flushed out by the
// thread-safety annotation sweep (see DESIGN.md "Static analysis
// layer").
//
// The headline bug: ShardedEngine::Commit used to run the lock
// inheritance (LockManager::OnCommit) after dropping the record
// mutexes. A concurrent abort of the parent could complete its whole
// cascade — including the lose-lock sweep — in that window, after
// which the commit's inheritance re-created retained locks for a dead,
// already-collected parent. Those records could never be released (the
// parent will never commit or abort again), so every non-descendant
// acquiring the touched objects would block until timeout, forever
// after. The fix re-checks the parent's state after inheritance and
// sweeps with OnAbort when the parent finished aborting first.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "action/update.h"
#include "lock/lock_manager.h"
#include "txn/transaction_manager.h"

namespace rnt::txn {
namespace {

constexpr lock::LockManager::ShardSet kAll = lock::LockManager::kAllShards;

class EveryoneRelated final : public lock::Ancestry {
 public:
  bool IsAncestor(lock::TxnId, lock::TxnId) const override { return true; }
};

class NobodyRelated final : public lock::Ancestry {
 public:
  bool IsAncestor(lock::TxnId anc, lock::TxnId desc) const override {
    return anc == lock::kNoTxn || anc == desc;
  }
};

TEST(LockRecordStats, CountsLiveRecordsAndDrainsToZero) {
  TransactionManager mgr;
  EXPECT_EQ(mgr.stats().lock_records, 0u);
  auto t = mgr.Begin();
  ASSERT_TRUE(t->Put(7, 42).ok());
  // One write hold for the top-level transaction.
  EXPECT_EQ(mgr.stats().lock_records, 1u);
  ASSERT_TRUE(t->Commit().ok());
  // Top-level commit releases outright: the table must be empty.
  EXPECT_EQ(mgr.stats().lock_records, 0u);
}

TEST(LockRecordStats, ChildCommitInheritsThenTopCommitDrains) {
  TransactionManager mgr;
  auto p = mgr.Begin();
  auto c_or = p->BeginChild();
  ASSERT_TRUE(c_or.ok());
  auto c = std::move(*c_or);
  ASSERT_TRUE(c->Put(3, 1).ok());
  ASSERT_TRUE((*c).Commit().ok());
  // The child's hold became the parent's retained lock.
  EXPECT_EQ(mgr.stats().lock_records, 1u);
  ASSERT_TRUE(p->Commit().ok());
  EXPECT_EQ(mgr.stats().lock_records, 0u);
}

// Double lose-lock must be harmless: the inheritance-race repair in
// ShardedEngine::Commit may run OnAbort for a parent whose cascade will
// (or did) run OnAbort too.
TEST(LockManagerInheritance, OnAbortIsIdempotent) {
  NobodyRelated ancestry;
  lock::LockManager lm(&ancestry, {false, 4});
  ASSERT_TRUE(lm.TryAcquire(1, 10, lock::LockMode::kWrite));
  lm.OnCommit(10, 5, kAll);  // inherit to 5 as retained
  EXPECT_TRUE(lm.Retains(1, 5, lock::LockMode::kWrite));
  lm.OnAbort(5, kAll);
  EXPECT_EQ(lm.RecordCount(), 0u);
  lm.OnAbort(5, kAll);  // second sweep: no record, no crash, still empty
  EXPECT_EQ(lm.RecordCount(), 0u);
}

// Inheritance into a transaction that already lost its locks re-creates
// records the sweep must be able to clear — the LockManager-level shape
// of the engine race.
TEST(LockManagerInheritance, SweepClearsPostAbortInheritance) {
  EveryoneRelated ancestry;
  lock::LockManager lm(&ancestry, {false, 4});
  ASSERT_TRUE(lm.TryAcquire(1, 11, lock::LockMode::kWrite));
  lm.OnAbort(5, kAll);       // parent 5 aborted first (no records yet)
  lm.OnCommit(11, 5, kAll);  // late inheritance resurrects 5's retention
  EXPECT_TRUE(lm.Retains(1, 5, lock::LockMode::kWrite));
  lm.OnAbort(5, kAll);       // the engine's repair sweep
  EXPECT_EQ(lm.RecordCount(), 0u);
}

// The engine-level hammer: commit a writing child while another thread
// aborts the parent. Whatever the interleaving, once both transactions
// are dead the lock table must be empty — a leaked record here means
// the commit inherited into a parent whose lose-lock sweep had already
// run (the pre-fix behavior).
TEST(CommitAbortRace, NeverLeaksLockRecords) {
  constexpr int kIters = 200;
  for (int i = 0; i < kIters; ++i) {
    TransactionManager::Options opts;
    opts.shards = 4;
    opts.lock_wait_timeout = std::chrono::milliseconds(200);
    TransactionManager mgr(opts);
    auto p = mgr.Begin();
    auto c_or = p->BeginChild();
    ASSERT_TRUE(c_or.ok());
    auto c = std::move(*c_or);
    // Touch several objects so the leak (if any) is wide and the
    // inheritance loop spans shards.
    for (ObjectId x = 0; x < 6; ++x) {
      ASSERT_TRUE(c->Put(x, i).ok());
    }
    std::atomic<bool> go{false};
    std::thread committer([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      (void)c->Commit();  // may succeed or lose to the abort
    });
    std::thread aborter([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      (void)p->Abort();
    });
    go.store(true, std::memory_order_release);
    committer.join();
    aborter.join();
    // Both transactions are finished in every interleaving: the parent
    // abort either cascaded over the child or found it committed and
    // then died itself.
    EXPECT_EQ(mgr.stats().lock_records, 0u) << "iteration " << i;
  }
}

// Same race through the abort-first order: the child commit starts
// after the parent began aborting. The commit must fail (orphan) or be
// swept; no record may survive.
TEST(CommitAbortRace, AbortFirstOrderAlsoDrains) {
  constexpr int kIters = 200;
  for (int i = 0; i < kIters; ++i) {
    TransactionManager::Options opts;
    opts.shards = 4;
    opts.lock_wait_timeout = std::chrono::milliseconds(200);
    TransactionManager mgr(opts);
    auto p = mgr.Begin();
    auto c_or = p->BeginChild();
    ASSERT_TRUE(c_or.ok());
    auto c = std::move(*c_or);
    ASSERT_TRUE(c->Put(1, i).ok());
    ASSERT_TRUE(c->Put(2, i).ok());
    std::thread aborter([&] { (void)p->Abort(); });
    (void)c->Commit();
    aborter.join();
    EXPECT_EQ(mgr.stats().lock_records, 0u) << "iteration " << i;
  }
}

}  // namespace
}  // namespace rnt::txn
