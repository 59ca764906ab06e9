// Randomized multi-threaded stress for the sharded engine (ctest label
// `stress`; run under the `tsan` preset — see README).
//
// The correctness oracle is the paper's own: every run records a trace,
// ReplayTrace rebuilds the action tree (enforcing the level-1
// begin/commit/abort preconditions along the way), and the Theorem 9
// checker passes judgment — strict IsPermDataSerializable for the
// single-mode engine, the conflict-restricted Rw characterization for
// read/write mode. Seeds are fixed via common/random so any failure
// reproduces bit-for-bit.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "aat/aat.h"
#include "common/random.h"
#include "txn/online_checker.h"
#include "txn/transaction_manager.h"
#include "workload/workload.h"

namespace rnt::txn {
namespace {

using action::Update;

struct StressParam {
  bool single_mode_locks;
  std::uint32_t shards;
  const char* name;
};

class EngineStressTest : public ::testing::TestWithParam<StressParam> {
 protected:
  /// Each call arms a fresh streaming checker as the engine's trace
  /// sink: the OnlineChecker certifies the serialization order live,
  /// from inside the engine's critical sections, while the post-hoc
  /// pipeline judges the same trace after the fact. CheckTrace then
  /// asserts the two verdicts agree.
  TransactionManager::Options BaseOptions() {
    TransactionManager::Options opt;
    opt.shards = GetParam().shards;
    opt.single_mode_locks = GetParam().single_mode_locks;
    opt.record_trace = true;
    OnlineChecker::Options copt;
    copt.mode = GetParam().single_mode_locks ? OnlineChecker::Mode::kSingle
                                             : OnlineChecker::Mode::kRw;
    copt.gc_window = 64;
    online_ = std::make_unique<OnlineChecker>(copt);
    opt.trace_sink = online_.get();
    return opt;
  }

  /// Replays the trace and applies the mode-appropriate Theorem 9
  /// predicate; the streaming checker that watched the run live must
  /// reach the same verdict.
  void CheckTrace(Trace trace, std::uint64_t seed) {
    auto replayed = ReplayTrace(std::move(trace));
    ASSERT_TRUE(replayed.ok()) << replayed.status() << " seed " << seed;
    if (GetParam().single_mode_locks) {
      EXPECT_TRUE(aat::IsPermDataSerializable(replayed->tree))
          << "seed " << seed;
    } else {
      EXPECT_TRUE(aat::IsPermDataSerializableRw(replayed->tree))
          << "seed " << seed;
      Status l10 = aat::CheckLemma10(replayed->tree);
      EXPECT_TRUE(l10.ok()) << l10 << " seed " << seed;
    }
    ASSERT_NE(online_, nullptr);
    const auto verdict = online_->Verdict();
    EXPECT_EQ(verdict.outcome, OnlineChecker::Outcome::kOk)
        << "online checker dissents from post-hoc, seed " << seed << ": "
        << verdict.detail;
  }

  std::unique_ptr<OnlineChecker> online_;
};

/// One random transaction body: a mix of reads, read-modify-writes, and
/// subtransactions that sometimes fail and are simply dropped (the
/// recovery-block pattern). Stops early if the transaction dies under
/// it (deadlock victim, orphaned by a concurrent cascade).
void RandomBody(TxnHandle& t, Rng& rng, ObjectId num_objects, int depth) {
  const int steps = 1 + static_cast<int>(rng.Below(4));
  for (int i = 0; i < steps; ++i) {
    const double r = rng.NextDouble();
    const ObjectId x = static_cast<ObjectId>(rng.Below(num_objects));
    if (depth > 0 && r < 0.35) {
      auto child = t.BeginChild();
      if (!child.ok()) return;
      RandomBody(**child, rng, num_objects, depth - 1);
      if (rng.Chance(0.75)) {
        (void)(*child)->Commit();  // may fail: parent tolerates it
      } else {
        (void)(*child)->Abort();
      }
    } else if (r < 0.70) {
      if (!t.Apply(x, Update::Add(1)).ok()) return;
    } else {
      if (!t.Get(x).ok()) return;
    }
  }
}

TEST_P(EngineStressTest, RandomNestedTransactionsSerializable) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 40;
  constexpr ObjectId kObjects = 12;
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    TransactionManager mgr(BaseOptions());
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(w));
        for (int i = 0; i < kTxnsPerThread; ++i) {
          auto top = mgr.Begin();
          RandomBody(*top, rng, kObjects, /*depth=*/3);
          if (rng.Chance(0.85)) {
            (void)top->Commit();
          } else {
            (void)top->Abort();
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const auto stats = mgr.stats();
    EXPECT_EQ(stats.begun, stats.committed + stats.aborted)
        << "every transaction must resolve; seed " << seed;
    CheckTrace(mgr.TakeTrace(), seed);
  }
}

TEST_P(EngineStressTest, CounterConservedUnderContention) {
  // Each top-level transaction performs exactly one Add(1) at a random
  // nesting depth; it counts iff the entire ancestor chain committed.
  // The committed store must agree exactly — no lost or duplicated
  // merges across shards.
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 50;
  TransactionManager mgr(BaseOptions());
  std::atomic<std::int64_t> expected{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(7000 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto top = mgr.Begin();
        const int depth = static_cast<int>(rng.Below(3));
        std::vector<std::unique_ptr<TxnHandle>> chain;
        TxnHandle* leaf = top.get();
        bool ok = true;
        for (int d = 0; d < depth && ok; ++d) {
          auto child = leaf->BeginChild();
          if (!child.ok()) {
            ok = false;
            break;
          }
          chain.push_back(std::move(*child));
          leaf = chain.back().get();
        }
        ok = ok && leaf->Apply(0, Update::Add(1)).ok();
        for (auto it = chain.rbegin(); ok && it != chain.rend(); ++it) {
          ok = (*it)->Commit().ok();
        }
        ok = ok && top->Commit().ok();
        if (ok) {
          expected.fetch_add(1, std::memory_order_relaxed);
        } else {
          (void)top->Abort();  // discard any partially committed chain
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mgr.ReadCommitted(0), expected.load());
  CheckTrace(mgr.TakeTrace(), 7000);
}

TEST_P(EngineStressTest, CascadingOrphanAbortUnderConcurrency) {
  // Worker threads run grandchild transactions that linger; the owner
  // aborts the top mid-flight. Everything must resolve, every live
  // descendant must die exactly once, and the trace must replay (the
  // cascade's children-first abort order is what ReplayTrace enforces).
  constexpr int kRounds = 20;
  TransactionManager mgr(BaseOptions());
  for (int round = 0; round < kRounds; ++round) {
    auto top = mgr.Begin();
    auto child = top->BeginChild();
    ASSERT_TRUE(child.ok());
    std::thread worker([&] {
      Rng rng(static_cast<std::uint64_t>(round));
      for (int i = 0; i < 10; ++i) {
        auto g = (*child)->BeginChild();
        if (!g.ok()) return;  // parent died under us: expected
        if (!(*g)->Apply(static_cast<ObjectId>(rng.Below(4)),
                         Update::Add(1))
                 .ok()) {
          return;
        }
        if (rng.Chance(0.5)) (void)(*g)->Commit();
      }
    });
    (void)top->Abort();
    worker.join();
    child->reset();
  }
  const auto stats = mgr.stats();
  EXPECT_EQ(stats.begun, stats.committed + stats.aborted);
  for (ObjectId x = 0; x < 4; ++x) {
    EXPECT_EQ(mgr.ReadCommitted(x), 0) << "aborted tops must publish nothing";
  }
  CheckTrace(mgr.TakeTrace(), 0);
}

TEST_P(EngineStressTest, DeadlockVictimIsDeterministic) {
  // Two top-level transactions lock {0, 1} in opposite orders. Whichever
  // thread detects the cycle, the victim must always be the *younger*
  // transaction (largest id) — so across repetitions the same side dies.
  for (int round = 0; round < 10; ++round) {
    TransactionManager::Options opt = BaseOptions();
    opt.record_trace = false;
    TransactionManager mgr(opt);
    auto t1 = mgr.Begin();  // elder
    auto t2 = mgr.Begin();  // younger: the deterministic victim
    ASSERT_TRUE(t1->Put(0, 1).ok());
    ASSERT_TRUE(t2->Put(1, 2).ok());
    Status s1, s2;
    std::thread a([&] { s1 = t1->Put(1, 10); });
    std::thread b([&] { s2 = t2->Put(0, 20); });
    a.join();
    b.join();
    EXPECT_TRUE(s1.ok()) << "elder must win round " << round << ": " << s1;
    EXPECT_TRUE(s2.IsAborted())
        << "younger must be the victim, round " << round << ": " << s2;
    EXPECT_TRUE(t1->Commit().ok());
    EXPECT_EQ(mgr.stats().deadlock_aborts, 1u);
    EXPECT_EQ(mgr.ReadCommitted(1), 10);
  }
}

TEST_P(EngineStressTest, MixedWorkloadWithFailureInjection) {
  // The stock mixed workload (nested children, retries, failure
  // injection) at moderate contention; the trace oracle rules.
  TransactionManager mgr(BaseOptions());
  workload::Params params;
  params.num_objects = 16;
  params.zipf_theta = 0.6;
  params.children_per_txn = 3;
  params.accesses_per_child = 2;
  params.read_fraction = 0.4;
  params.child_failure_prob = 0.15;
  params.max_child_retries = 2;
  auto result =
      workload::RunMixed(mgr, params, /*workers=*/4, /*txns_per_worker=*/25,
                         /*seed=*/99);
  EXPECT_GT(result.committed, 0u);
  CheckTrace(mgr.TakeTrace(), 99);
}

TEST(EngineEquivalenceTest, OneShardMatchesSixteenSingleThreaded) {
  // With one worker and a fixed seed the engine is deterministic at any
  // shard count, and both runs must produce the identical committed
  // state — the shard count is a concurrency change, not a semantics
  // change.
  for (std::uint64_t seed : {5u, 17u}) {
    workload::Params params;
    params.num_objects = 10;
    params.children_per_txn = 3;
    params.accesses_per_child = 2;
    params.read_fraction = 0.3;
    params.child_failure_prob = 0.2;
    TransactionManager::Options one_opt;
    one_opt.shards = 1;
    TransactionManager::Options many_opt;
    many_opt.shards = 16;
    TransactionManager one(one_opt);
    TransactionManager many(many_opt);
    auto r1 = workload::RunMixed(one, params, 1, 40, seed);
    auto r16 = workload::RunMixed(many, params, 1, 40, seed);
    EXPECT_EQ(r1.committed, r16.committed) << "seed " << seed;
    EXPECT_FALSE(one.DumpCommitted().empty()) << "seed " << seed;
    EXPECT_EQ(one.DumpCommitted(), many.DumpCommitted()) << "seed " << seed;
    EXPECT_EQ(one.stats().committed, many.stats().committed);
    EXPECT_EQ(one.stats().accesses, many.stats().accesses);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineStressTest,
    ::testing::Values(
        StressParam{false, 16, "sharded_rw"},
        StressParam{true, 16, "sharded_single"},
        // One shard: every object, record table and store entry on one
        // shard mutex — the coarse-grained ablation.
        StressParam{true, 1, "shards1_single"},
        // Above 64 shards a ShardSet saturates to kAllShards, so commit
        // and abort visit every lock-table shard.
        StressParam{false, 128, "shards128_rw"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace rnt::txn
