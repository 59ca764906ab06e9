#include "rwlock/rw_algebra.h"

#include <gtest/gtest.h>

#include <thread>

#include "action/serializability.h"
#include "spec/spec_algebra.h"
#include "testutil.h"
#include "txn/transaction_manager.h"

namespace rnt::rwlock {
namespace {

using action::ActionRegistry;
using action::Update;
using algebra::Abort;
using algebra::Commit;
using algebra::Create;
using algebra::LockEvent;
using algebra::LoseLock;
using algebra::Perform;
using algebra::ReleaseLock;

class RwAlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t1_ = reg_.NewAction(kRootAction);
    t2_ = reg_.NewAction(kRootAction);
    r1_ = reg_.NewAccess(t1_, 0, Update::Read());
    r2_ = reg_.NewAccess(t2_, 0, Update::Read());
    w1_ = reg_.NewAccess(t1_, 0, Update::Add(1));
    w2_ = reg_.NewAccess(t2_, 0, Update::Add(2));
  }

  void Step(RwState& s, const RwAlgebra& alg, LockEvent e) {
    ASSERT_TRUE(alg.Defined(s, e)) << algebra::ToString(e);
    alg.Apply(s, e);
  }

  ActionRegistry reg_;
  ActionId t1_, t2_, r1_, r2_, w1_, w2_;
};

TEST_F(RwAlgebraTest, SiblingReadersShare) {
  RwAlgebra alg(&reg_);
  auto s = alg.Initial();
  Step(s, alg, Create{t1_});
  Step(s, alg, Create{t2_});
  Step(s, alg, Create{r1_});
  Step(s, alg, Create{r2_});
  Step(s, alg, Perform{r1_, 0});
  // The single-mode algebra would block here; the complete algorithm
  // admits the concurrent reader.
  EXPECT_TRUE(alg.Defined(s, LockEvent{Perform{r2_, 0}}));
  Step(s, alg, Perform{r2_, 0});
  EXPECT_TRUE(s.vmap.HoldsRead(0, r1_));
  EXPECT_TRUE(s.vmap.HoldsRead(0, r2_));
  EXPECT_TRUE(CheckRwInvariants(s).ok());
}

TEST_F(RwAlgebraTest, ReaderBlocksForeignWriter) {
  RwAlgebra alg(&reg_);
  auto s = alg.Initial();
  Step(s, alg, Create{t1_});
  Step(s, alg, Create{t2_});
  Step(s, alg, Create{r1_});
  Step(s, alg, Create{w2_});
  Step(s, alg, Perform{r1_, 0});
  EXPECT_FALSE(alg.Defined(s, LockEvent{Perform{w2_, 0}}))
      << "r1's read hold is not an ancestor of w2";
  // Walk the read hold up to U: release r1 (committed by perform), then
  // commit t1 and release its inherited read hold.
  Step(s, alg, ReleaseLock{r1_, 0});
  EXPECT_TRUE(s.vmap.HoldsRead(0, t1_));
  EXPECT_FALSE(alg.Defined(s, LockEvent{Perform{w2_, 0}}));
  Step(s, alg, Commit{t1_});
  Step(s, alg, ReleaseLock{t1_, 0});
  EXPECT_TRUE(alg.Defined(s, LockEvent{Perform{w2_, 0}}));
}

TEST_F(RwAlgebraTest, WriterBlocksForeignReaderButNotDescendants) {
  RwAlgebra alg(&reg_);
  auto s = alg.Initial();
  Step(s, alg, Create{t1_});
  Step(s, alg, Create{t2_});
  Step(s, alg, Create{w1_});
  Step(s, alg, Perform{w1_, 0});
  Step(s, alg, Create{r2_});
  EXPECT_FALSE(alg.Defined(s, LockEvent{Perform{r2_, 0}}))
      << "w1 holds a write; r2 is no descendant";
  EXPECT_FALSE(alg.Defined(s, LockEvent{Perform{r2_, 1}}));
  // w1's own sibling under t1 can read after w1's lock passes to t1.
  Step(s, alg, ReleaseLock{w1_, 0});
  Step(s, alg, Create{r1_});
  EXPECT_TRUE(alg.Defined(s, LockEvent{Perform{r1_, 1}}))
      << "t1 (write holder) is a proper ancestor of r1; value is 1";
  EXPECT_FALSE(alg.Defined(s, LockEvent{Perform{r1_, 0}})) << "(d13)";
}

TEST_F(RwAlgebraTest, ReadThenWriteUpgradeWithinTransaction) {
  RwAlgebra alg(&reg_);
  auto s = alg.Initial();
  Step(s, alg, Create{t1_});
  Step(s, alg, Create{r1_});
  Step(s, alg, Perform{r1_, 0});
  Step(s, alg, Create{w1_});
  // w1 blocked: sibling r1 still holds the read.
  EXPECT_FALSE(alg.Defined(s, LockEvent{Perform{w1_, 0}}));
  Step(s, alg, ReleaseLock{r1_, 0});  // read hold moves to t1
  // Now the only read holder t1 is a proper ancestor of w1: upgrade.
  Step(s, alg, Perform{w1_, 0});
  EXPECT_EQ(s.vmap.PrincipalValue(0, reg_), 1);
  EXPECT_TRUE(CheckRwInvariants(s).ok());
}

TEST_F(RwAlgebraTest, LoseLockDiscardsBothModes) {
  RwAlgebra alg(&reg_);
  auto s = alg.Initial();
  Step(s, alg, Create{t1_});
  Step(s, alg, Create{r1_});
  Step(s, alg, Perform{r1_, 0});
  Step(s, alg, Create{w1_});
  Step(s, alg, ReleaseLock{r1_, 0});
  Step(s, alg, Perform{w1_, 0});
  Step(s, alg, ReleaseLock{w1_, 0});
  Step(s, alg, Abort{t1_});
  ASSERT_TRUE(alg.Defined(s, LockEvent{LoseLock{t1_, 0}}));
  Step(s, alg, LoseLock{t1_, 0});
  EXPECT_FALSE(s.vmap.HoldsRead(0, t1_));
  EXPECT_FALSE(s.vmap.IsWriteDefined(0, t1_));
  EXPECT_EQ(s.vmap.PrincipalValue(0, reg_), action::kInitValue);
}

TEST(RwAlgebraPropertyTest, RandomRunsKeepInvariantsAndRwSerializability) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    testutil::RandomRegistryParams p;
    p.read_prob = 0.6;
    ActionRegistry reg = testutil::MakeRandomRegistry(rng, p);
    RwAlgebra alg(&reg);
    auto s = alg.Initial();
    for (int step = 0; step < 90; ++step) {
      std::vector<LockEvent> enabled;
      for (auto& e : EventCandidates(s)) {
        if (alg.Defined(s, e)) enabled.push_back(e);
      }
      if (enabled.empty()) break;
      alg.Apply(s, enabled[rng.Below(enabled.size())]);
      Status inv = CheckRwInvariants(s);
      ASSERT_TRUE(inv.ok()) << inv << " seed " << seed << " step " << step;
    }
    EXPECT_TRUE(aat::IsPermDataSerializableRw(s.tree)) << "seed " << seed;
    EXPECT_TRUE(action::IsPermSerializable(s.tree)) << "seed " << seed;
  }
}

TEST(RwAlgebraPropertyTest, RandomRunsRefineToOracleSpec) {
  // Mapped down to tree events, an Rw run need not satisfy the *strict*
  // level-2 preconditions (sibling readers violate d12) — but it must be
  // a valid computation of the level-1 spec, whose only requirement is
  // preserved serializability. This is the Rw analog of Lemma 15+17.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    testutil::RandomRegistryParams p;
    p.top_level = 2;
    p.max_children = 2;
    p.max_depth = 3;
    p.objects = 2;
    p.read_prob = 0.6;
    ActionRegistry reg = testutil::MakeRandomRegistry(rng, p);
    RwAlgebra lower(&reg);
    auto run = algebra::RandomRun(
        lower, [](const RwState& s) { return EventCandidates(s); }, rng, 40);
    auto tree_events = algebra::MapSequence<algebra::TreeEvent>(
        std::span<const LockEvent>(run.events), algebra::LockToTreeEvent);
    spec::SpecAlgebra spec_alg(&reg);
    auto spec_state = algebra::Run(
        spec_alg, std::span<const algebra::TreeEvent>(tree_events));
    ASSERT_TRUE(spec_state.has_value()) << "seed " << seed;
    EXPECT_TRUE(*spec_state == run.state.tree);
  }
}

// ---------------------------------------------------------------------
// Conformance: the read/write *engine*'s traces are valid computations of
// the read/write algebra (the two implementations of Moss's complete
// algorithm agree), at the default 16 shards and at one shard.

TEST(RwConformanceTest, RwEngineTracesAreValidRwComputations) {
  for (int run = 0; run < 12; ++run) {
    const std::uint64_t seed = run % 6;
    const std::uint32_t shards = run < 6 ? 16 : 1;
    txn::TransactionManager::Options opt;
    opt.record_trace = true;  // read/write mode is the default
    opt.shards = shards;
    txn::TransactionManager mgr(opt);
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(seed * 991 + w);
        for (int i = 0; i < 8; ++i) {
          auto t = mgr.Begin();
          auto c = t->BeginChild();
          if (!c.ok()) continue;
          bool ok = true;
          for (int a = 0; a < 3 && ok; ++a) {
            ObjectId x = static_cast<ObjectId>(rng.Below(3));
            ok = (*c)
                     ->Apply(x, rng.Chance(0.6) ? Update::Read()
                                                : Update::Add(1))
                     .ok();
          }
          if (ok && rng.Chance(0.85)) ok = (*c)->Commit().ok();
          if (ok && rng.Chance(0.9)) (void)t->Commit();
        }
      });
    }
    for (auto& th : threads) th.join();

    auto lowered = txn::LowerTraceToLockEvents(mgr.TakeTrace());
    ASSERT_TRUE(lowered.ok()) << lowered.status();
    RwAlgebra alg(lowered->registry.get());
    auto s = alg.Initial();
    for (std::size_t i = 0; i < lowered->events.size(); ++i) {
      ASSERT_TRUE(alg.Defined(s, lowered->events[i]))
          << "rw engine step invalid at event " << i << " = "
          << algebra::ToString(lowered->events[i]) << " (seed " << seed
          << ", shards " << shards << ")";
      alg.Apply(s, lowered->events[i]);
    }
    EXPECT_TRUE(aat::IsPermDataSerializableRw(s.tree))
        << "seed " << seed << ", shards " << shards;
    EXPECT_TRUE(CheckRwInvariants(s).ok())
        << "seed " << seed << ", shards " << shards;
  }
}

}  // namespace
}  // namespace rnt::rwlock
