#include "lock/lock_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>

namespace rnt::lock {
namespace {

/// A hand-built transaction forest for lock tests.
class FakeAncestry : public Ancestry {
 public:
  /// Declares `child` with `parent` (kNoTxn for top level).
  void Add(TxnId child, TxnId parent) { parent_[child] = parent; }

  bool IsAncestor(TxnId anc, TxnId desc) const override {
    if (anc == kNoTxn) return true;
    for (TxnId c = desc; c != kNoTxn;) {
      if (c == anc) return true;
      auto it = parent_.find(c);
      if (it == parent_.end()) return false;
      c = it->second;
    }
    return false;
  }

 private:
  std::map<TxnId, TxnId> parent_;
};

class LockManagerTest : public ::testing::Test {
 protected:
  /// Forest: 1 and 2 top-level; 1 -> {11, 12}; 11 -> {111}.
  void SetUp() override {
    anc_.Add(1, kNoTxn);
    anc_.Add(2, kNoTxn);
    anc_.Add(11, 1);
    anc_.Add(12, 1);
    anc_.Add(111, 11);
    lm_ = std::make_unique<LockManager>(&anc_);
  }

  FakeAncestry anc_;
  std::unique_ptr<LockManager> lm_;
};

TEST_F(LockManagerTest, WriteExcludesNonAncestors) {
  EXPECT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  EXPECT_FALSE(lm_->TryAcquire(0, 12, LockMode::kWrite)) << "sibling";
  EXPECT_FALSE(lm_->TryAcquire(0, 2, LockMode::kWrite)) << "other top";
  EXPECT_FALSE(lm_->TryAcquire(0, 1, LockMode::kWrite))
      << "a parent may not write while a child holds (the child is not an "
         "ancestor of the parent)";
  EXPECT_TRUE(lm_->TryAcquire(0, 111, LockMode::kWrite))
      << "descendant of the holder may acquire";
}

TEST_F(LockManagerTest, ReadersShareAcrossSubtrees) {
  EXPECT_TRUE(lm_->TryAcquire(0, 11, LockMode::kRead));
  EXPECT_TRUE(lm_->TryAcquire(0, 12, LockMode::kRead)) << "sibling reader";
  EXPECT_TRUE(lm_->TryAcquire(0, 2, LockMode::kRead)) << "foreign reader";
  EXPECT_EQ(lm_->HolderCount(0), 3u);
  // But no non-ancestor writer while readers exist.
  EXPECT_FALSE(lm_->TryAcquire(0, 111, LockMode::kWrite))
      << "12 and 2 hold read locks and are not ancestors of 111";
}

TEST_F(LockManagerTest, ReadBlockedOnlyByForeignWriters) {
  EXPECT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  EXPECT_FALSE(lm_->TryAcquire(0, 2, LockMode::kRead));
  EXPECT_TRUE(lm_->TryAcquire(0, 111, LockMode::kRead))
      << "holder is an ancestor";
}

TEST_F(LockManagerTest, UpgradeBySameTxnAllowed) {
  EXPECT_TRUE(lm_->TryAcquire(0, 11, LockMode::kRead));
  EXPECT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite)) << "self upgrade";
  EXPECT_TRUE(lm_->Holds(0, 11, LockMode::kRead));
  EXPECT_TRUE(lm_->Holds(0, 11, LockMode::kWrite));
}

TEST_F(LockManagerTest, UpgradeBlockedByConcurrentReader) {
  EXPECT_TRUE(lm_->TryAcquire(0, 11, LockMode::kRead));
  EXPECT_TRUE(lm_->TryAcquire(0, 12, LockMode::kRead));
  EXPECT_FALSE(lm_->TryAcquire(0, 11, LockMode::kWrite))
      << "sibling 12 reads";
}

TEST_F(LockManagerTest, CommitInheritsToParentAsRetained) {
  ASSERT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  lm_->OnCommit(11, 1, LockManager::kAllShards);
  EXPECT_FALSE(lm_->Holds(0, 11, LockMode::kWrite));
  EXPECT_TRUE(lm_->Retains(0, 1, LockMode::kWrite));
  // Sibling 12 is a descendant of retainer 1: may acquire.
  EXPECT_TRUE(lm_->TryAcquire(0, 12, LockMode::kWrite));
  // Foreign top-level 2 still excluded by 1's retained write.
  EXPECT_FALSE(lm_->TryAcquire(0, 2, LockMode::kWrite));
}

TEST_F(LockManagerTest, TopLevelCommitReleasesEverything) {
  ASSERT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  lm_->OnCommit(11, 1, LockManager::kAllShards);
  lm_->OnCommit(1, kNoTxn, LockManager::kAllShards);
  EXPECT_EQ(lm_->RecordCount(), 0u);
  EXPECT_TRUE(lm_->TryAcquire(0, 2, LockMode::kWrite));
}

TEST_F(LockManagerTest, AbortDiscardsLocks) {
  ASSERT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  ASSERT_TRUE(lm_->TryAcquire(1, 11, LockMode::kRead));
  lm_->OnAbort(11, LockManager::kAllShards);
  EXPECT_EQ(lm_->RecordCount(), 0u);
  EXPECT_TRUE(lm_->TryAcquire(0, 2, LockMode::kWrite));
  EXPECT_TRUE(lm_->TryAcquire(1, 2, LockMode::kWrite));
}

TEST_F(LockManagerTest, WriteBlockedBySiblingReader) {
  ASSERT_TRUE(lm_->TryAcquire(0, 11, LockMode::kRead));
  EXPECT_FALSE(lm_->TryAcquire(0, 12, LockMode::kWrite))
      << "a write needs ALL lock holders (readers included) to be "
         "ancestors; sibling 11 holds a read lock";
  // Once 11 commits its read lock up to the shared parent 1, sibling 12
  // is a descendant of the retainer and may write.
  lm_->OnCommit(11, 1, LockManager::kAllShards);
  EXPECT_TRUE(lm_->TryAcquire(0, 12, LockMode::kWrite));
}

TEST_F(LockManagerTest, RetainerChainDeepCommit) {
  ASSERT_TRUE(lm_->TryAcquire(0, 111, LockMode::kWrite));
  lm_->OnCommit(111, 11, LockManager::kAllShards);
  lm_->OnCommit(11, 1, LockManager::kAllShards);
  EXPECT_TRUE(lm_->Retains(0, 1, LockMode::kWrite));
  EXPECT_FALSE(lm_->Retains(0, 11, LockMode::kWrite));
  EXPECT_EQ(lm_->RetainerCount(0), 1u);
  // 12 (child of 1) can now acquire; 2 cannot.
  EXPECT_TRUE(lm_->TryAcquire(0, 12, LockMode::kWrite));
  EXPECT_FALSE(lm_->TryAcquire(0, 2, LockMode::kWrite));
}

TEST_F(LockManagerTest, BlockersReportsConflictSet) {
  ASSERT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  ASSERT_TRUE(lm_->TryAcquire(1, 2, LockMode::kRead));
  std::vector<TxnId> b = lm_->Blockers(0, 2, LockMode::kWrite);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 11u);
  EXPECT_TRUE(lm_->Blockers(0, 111, LockMode::kWrite).empty());
  // Read request against a read holder: no blockers.
  EXPECT_TRUE(lm_->Blockers(1, 11, LockMode::kRead).empty());
}

TEST_F(LockManagerTest, SingleModeTreatsReadsAsWrites) {
  LockManager lm(&anc_, LockManager::Options{/*single_mode=*/true});
  EXPECT_TRUE(lm.TryAcquire(0, 11, LockMode::kRead));
  EXPECT_FALSE(lm.TryAcquire(0, 12, LockMode::kRead))
      << "the paper's simplified variant serializes sibling readers";
}

TEST_F(LockManagerTest, RecordCountTracksFootprint) {
  EXPECT_EQ(lm_->RecordCount(), 0u);
  lm_->TryAcquire(0, 11, LockMode::kWrite);
  lm_->TryAcquire(1, 11, LockMode::kWrite);
  lm_->TryAcquire(1, 111, LockMode::kWrite);
  EXPECT_EQ(lm_->RecordCount(), 3u);
  lm_->OnCommit(111, 11, LockManager::kAllShards);
  EXPECT_EQ(lm_->RecordCount(), 3u) << "hold became retained on 11... "
                                       "merged with 11's own hold plus x0";
  lm_->OnAbort(11, LockManager::kAllShards);
  EXPECT_EQ(lm_->RecordCount(), 0u);
}

/// The shard-sensitive paths, exercised at several shard counts: 1
/// (the seed's fully serialized table), a small prime (objects from the
/// same test collide in one shard), and the default 16.
class ShardedLockManagerTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    anc_.Add(1, kNoTxn);
    anc_.Add(2, kNoTxn);
    anc_.Add(11, 1);
    anc_.Add(12, 1);
    anc_.Add(111, 11);
    lm_ = std::make_unique<LockManager>(
        &anc_, LockManager::Options{/*single_mode=*/false,
                                    /*shards=*/GetParam()});
  }

  FakeAncestry anc_;
  std::unique_ptr<LockManager> lm_;
};

TEST_P(ShardedLockManagerTest, ReadToWriteUpgradeGatedBySiblingCommit) {
  // 11 and 12 read x0; neither can upgrade while the other's read hold
  // is live...
  ASSERT_TRUE(lm_->TryAcquire(0, 11, LockMode::kRead));
  ASSERT_TRUE(lm_->TryAcquire(0, 12, LockMode::kRead));
  EXPECT_FALSE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  EXPECT_FALSE(lm_->TryAcquire(0, 12, LockMode::kWrite));
  // ...but once 12 commits, its read is *retained by the shared parent
  // 1*, an ancestor of 11 — the upgrade goes through.
  lm_->OnCommit(12, 1, LockManager::kAllShards);
  EXPECT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite)) << "upgrade";
  EXPECT_TRUE(lm_->Holds(0, 11, LockMode::kRead));
  EXPECT_TRUE(lm_->Holds(0, 11, LockMode::kWrite));
  // The upgraded write still excludes the foreign top-level.
  EXPECT_FALSE(lm_->TryAcquire(0, 2, LockMode::kRead));
}

TEST_P(ShardedLockManagerTest, CommitInheritsAcrossShards) {
  // Touch enough objects that, at >1 shards, the footprint provably
  // spans several shards; commit must find and transfer every record.
  constexpr ObjectId kObjects = 40;
  std::set<std::size_t> shards_touched;
  for (ObjectId x = 0; x < kObjects; ++x) {
    ASSERT_TRUE(lm_->TryAcquire(
        x, 111, x % 2 == 0 ? LockMode::kWrite : LockMode::kRead));
    shards_touched.insert(lm_->ShardOf(x));
  }
  if (GetParam() > 1) {
    EXPECT_GT(shards_touched.size(), 1u)
        << "test should actually span shards";
  }
  EXPECT_EQ(lm_->RecordCount(), kObjects);
  lm_->OnCommit(111, 11, LockManager::kAllShards);
  EXPECT_EQ(lm_->RecordCount(), kObjects) << "held became retained";
  for (ObjectId x = 0; x < kObjects; ++x) {
    EXPECT_FALSE(lm_->Holds(x, 111, LockMode::kWrite));
    EXPECT_FALSE(lm_->Holds(x, 111, LockMode::kRead));
    LockMode m = x % 2 == 0 ? LockMode::kWrite : LockMode::kRead;
    EXPECT_TRUE(lm_->Retains(x, 11, m)) << "object " << x;
  }
  // Chain up: 11 -> 1, then top-level commit releases everything.
  lm_->OnCommit(11, 1, LockManager::kAllShards);
  EXPECT_EQ(lm_->RetainerCount(7), 1u);
  EXPECT_TRUE(lm_->Retains(7, 1, LockMode::kRead));
  lm_->OnCommit(1, kNoTxn, LockManager::kAllShards);
  EXPECT_EQ(lm_->RecordCount(), 0u);
  EXPECT_TRUE(lm_->TryAcquire(0, 2, LockMode::kWrite));
}

TEST_P(ShardedLockManagerTest, ShardSetsVisitOnlyWhatTheyName) {
  // The caller's shard set decides which shards commit and abort visit:
  // the set of the grants finds every record, inheritance keeps them in
  // the same shards (so the parent's set is the union), and a set that
  // misses a shard leaves that shard's records alone.
  constexpr ObjectId kObjects = 40;
  LockManager::ShardSet child_set = 0;
  for (ObjectId x = 0; x < kObjects; ++x) {
    ASSERT_TRUE(lm_->TryAcquire(x, 111, LockMode::kWrite));
    child_set |= lm_->ShardBit(x);
  }
  lm_->OnCommit(111, 11, child_set);
  EXPECT_EQ(lm_->RecordCount(), kObjects) << "held became retained";
  EXPECT_TRUE(lm_->Retains(0, 11, LockMode::kWrite));
  ASSERT_TRUE(lm_->TryAcquire(kObjects, 11, LockMode::kRead));
  const LockManager::ShardSet parent_set =
      child_set | lm_->ShardBit(kObjects);
  if (GetParam() > 1) {
    // Abort with a set naming only object 0's shard: records elsewhere
    // stay, and a second abort with the full set sweeps them.
    lm_->OnAbort(11, lm_->ShardBit(0));
    EXPECT_FALSE(lm_->Retains(0, 11, LockMode::kWrite));
    EXPECT_GT(lm_->RecordCount(), 0u) << "unnamed shards must be skipped";
  }
  lm_->OnAbort(11, parent_set);
  EXPECT_EQ(lm_->RecordCount(), 0u);
  EXPECT_TRUE(lm_->TryAcquire(0, 2, LockMode::kWrite));
}

TEST_P(ShardedLockManagerTest, RetainedUpgradeMergesModes) {
  // A child's read and another child's write on the same object merge
  // into one retained ModeSet on the parent.
  ASSERT_TRUE(lm_->TryAcquire(5, 11, LockMode::kRead));
  lm_->OnCommit(11, 1, LockManager::kAllShards);
  ASSERT_TRUE(lm_->TryAcquire(5, 12, LockMode::kWrite));
  lm_->OnCommit(12, 1, LockManager::kAllShards);
  EXPECT_TRUE(lm_->Retains(5, 1, LockMode::kRead));
  EXPECT_TRUE(lm_->Retains(5, 1, LockMode::kWrite));
  EXPECT_EQ(lm_->RetainerCount(5), 1u);
}

TEST_P(ShardedLockManagerTest, EnqueueAndTargetedWakeup) {
  ASSERT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  auto attempt = lm_->AcquireOrEnqueue(0, 2, LockMode::kWrite);
  ASSERT_FALSE(attempt.acquired);
  ASSERT_EQ(attempt.blockers.size(), 1u);
  EXPECT_EQ(attempt.blockers[0], 11u);
  // Releasing an unrelated object must NOT wake x0's waiter...
  ASSERT_TRUE(lm_->TryAcquire(1, 12, LockMode::kWrite));
  lm_->OnAbort(12, LockManager::kAllShards);
  // ...so the ticket is still current and a short wait times out.
  EXPECT_FALSE(lm_->WaitOn(0, attempt.ticket,
                           std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(20)));
  // Releasing x0 itself moves the queue: re-enqueue, release from
  // another thread, and observe the wakeup.
  attempt = lm_->AcquireOrEnqueue(0, 2, LockMode::kWrite);
  ASSERT_FALSE(attempt.acquired);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    lm_->OnAbort(11, LockManager::kAllShards);
  });
  EXPECT_TRUE(lm_->WaitOn(0, attempt.ticket,
                          std::chrono::steady_clock::now() +
                              std::chrono::seconds(10)));
  releaser.join();
  EXPECT_TRUE(lm_->TryAcquire(0, 2, LockMode::kWrite));
}

TEST_P(ShardedLockManagerTest, CancelWaitAndPoke) {
  ASSERT_TRUE(lm_->TryAcquire(0, 11, LockMode::kWrite));
  auto attempt = lm_->AcquireOrEnqueue(0, 2, LockMode::kWrite);
  ASSERT_FALSE(attempt.acquired);
  lm_->CancelWait(0);  // deregisters without waiting
  // Poke wakes waiters without changing lock state.
  attempt = lm_->AcquireOrEnqueue(0, 2, LockMode::kWrite);
  ASSERT_FALSE(attempt.acquired);
  lm_->Poke(0);
  EXPECT_TRUE(lm_->WaitOn(0, attempt.ticket,
                          std::chrono::steady_clock::now() +
                              std::chrono::seconds(10)));
  EXPECT_FALSE(lm_->TryAcquire(0, 2, LockMode::kWrite))
      << "poke does not release anything";
}

TEST_P(ShardedLockManagerTest, GiveBackWakesWaiterAndKeepsRetention) {
  // 1 took x3 ahead; 2 queues on it. Giving x3 back wakes 2 at once.
  ASSERT_TRUE(lm_->TryAcquire(3, 1, LockMode::kWrite));
  auto attempt = lm_->AcquireOrEnqueue(3, 2, LockMode::kWrite);
  ASSERT_FALSE(attempt.acquired);
  std::thread giver([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const ObjectId back[] = {3};
    lm_->GiveBack(1, back);
  });
  EXPECT_TRUE(lm_->WaitOn(3, attempt.ticket,
                          std::chrono::steady_clock::now() +
                              std::chrono::seconds(10)));
  giver.join();
  EXPECT_EQ(lm_->HolderCount(3), 0u);
  EXPECT_TRUE(lm_->TryAcquire(3, 2, LockMode::kWrite));
  lm_->OnCommit(2, kNoTxn, LockManager::kAllShards);
  // A hold given back over a retention leaves the retention, and the
  // retention's commit still finds it.
  ASSERT_TRUE(lm_->TryAcquire(4, 11, LockMode::kWrite));
  lm_->OnCommit(11, 1, LockManager::kAllShards);
  ASSERT_TRUE(lm_->TryAcquire(4, 1, LockMode::kRead));
  const ObjectId back[] = {4};
  lm_->GiveBack(1, back);
  EXPECT_FALSE(lm_->Holds(4, 1, LockMode::kRead));
  EXPECT_TRUE(lm_->Retains(4, 1, LockMode::kWrite));
  lm_->OnCommit(1, kNoTxn, lm_->ShardBit(4));
  EXPECT_EQ(lm_->RecordCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedLockManagerTest,
                         ::testing::Values(1u, 3u, 16u),
                         [](const auto& info) {
                           return "s" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rnt::lock
