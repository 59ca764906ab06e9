// Edge cases and failure-path tests across modules: malformed traces,
// boundary parameters, garbage-collection interactions, overflow, and
// determinism guarantees.

#include <gtest/gtest.h>

#include "baseline/mvto_engine.h"
#include "dist/summary.h"
#include "lock/lock_manager.h"
#include "sim/dist_driver.h"
#include "testutil.h"
#include "txn/transaction_manager.h"
#include "workload/workload.h"

namespace rnt {
namespace {

using action::Update;

// ---------------------------------------------------------------------
// Update algebra boundaries.

TEST(UpdateEdgeTest, OverflowWrapsWithoutUb) {
  Value big = std::numeric_limits<Value>::max();
  EXPECT_EQ(Update::Add(1).Apply(big), std::numeric_limits<Value>::min());
  EXPECT_EQ(Update::MulAdd(2, 0).Apply(big), -2);
  EXPECT_EQ(Update::Add(-1).Apply(std::numeric_limits<Value>::min()),
            std::numeric_limits<Value>::max());
}

TEST(UpdateEdgeTest, ZeroConstantsBehave) {
  EXPECT_EQ(Update::Write(0).Apply(99), 0);
  EXPECT_EQ(Update::Add(0).Apply(99), 99);
  EXPECT_EQ(Update::XorConst(0).Apply(99), 99);
  EXPECT_EQ(Update::MulAdd(0, 0).Apply(99), 0);
}

// ---------------------------------------------------------------------
// Zipf boundaries.

TEST(ZipfEdgeTest, SingleKeyAlwaysZero) {
  Zipf z(1, 1.2);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.Sample(rng), 0u);
}

// ---------------------------------------------------------------------
// Action summary algebraic properties.

TEST(SummaryEdgeTest, MergeIsIdempotentAndMonotone) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    dist::ActionSummary a, b;
    for (ActionId id = 1; id <= 8; ++id) {
      // One true final status per action (statuses are set once, by the
      // home node); each summary independently knows nothing, the stale
      // 'active' fact, or the true status — conflicting *final* statuses
      // cannot arise in the algebra and are not generated.
      action::ActionStatus truth =
          rng.Chance(0.5) ? action::ActionStatus::kCommitted
                          : action::ActionStatus::kAborted;
      auto roll = [&](dist::ActionSummary& s) {
        switch (rng.Below(3)) {
          case 0:
            break;  // knows nothing
          case 1:
            s.AddActive(id);  // stale knowledge
            break;
          default:
            s.AddActive(id);
            s.SetStatus(id, truth);
        }
      };
      roll(a);
      roll(b);
    }
    dist::ActionSummary ab = a;
    ab.MergeFrom(b);
    // Idempotence: merging again changes nothing.
    dist::ActionSummary ab2 = ab;
    ab2.MergeFrom(b);
    EXPECT_TRUE(ab == ab2);
    // Monotonicity: both inputs are subsummaries of the merge.
    EXPECT_TRUE(a.IsSubsummaryOf(ab));
    EXPECT_TRUE(b.IsSubsummaryOf(ab));
    // Reflexivity and transitivity spot-check.
    EXPECT_TRUE(a.IsSubsummaryOf(a));
  }
}

TEST(SummaryEdgeTest, EmptySummaryIsSubsummaryOfEverything) {
  dist::ActionSummary empty, any;
  any.AddActive(5);
  EXPECT_TRUE(empty.IsSubsummaryOf(any));
  EXPECT_TRUE(empty.IsSubsummaryOf(empty));
  EXPECT_FALSE(any.IsSubsummaryOf(empty));
}

// ---------------------------------------------------------------------
// Malformed traces are rejected with Internal (engine-bug detection).

txn::TraceEvent Begin(lock::TxnId id, lock::TxnId parent) {
  return txn::TraceEvent{txn::TraceEvent::Kind::kBegin, id, parent, 0, {}, 0};
}
txn::TraceEvent CommitEv(lock::TxnId id) {
  return txn::TraceEvent{txn::TraceEvent::Kind::kCommit, id, 0, 0, {}, 0};
}
txn::TraceEvent AbortEv(lock::TxnId id) {
  return txn::TraceEvent{txn::TraceEvent::Kind::kAbort, id, 0, 0, {}, 0};
}
txn::TraceEvent PerformEv(lock::TxnId id, lock::TxnId owner, ObjectId x,
                          Value seen) {
  return txn::TraceEvent{txn::TraceEvent::Kind::kPerform, id, owner, x,
                         Update::Add(1), seen};
}

TEST(TraceEdgeTest, UnknownParentRejected) {
  txn::Trace t;
  t.events = {Begin(2, 1)};  // parent 1 never began
  EXPECT_EQ(txn::ReplayTrace(t).status().code(), StatusCode::kInternal);
  EXPECT_EQ(txn::LowerTraceToLockEvents(t).status().code(),
            StatusCode::kInternal);
}

TEST(TraceEdgeTest, CommitWithOpenChildRejected) {
  txn::Trace t;
  t.events = {Begin(1, lock::kNoTxn), Begin(2, 1), CommitEv(1)};
  EXPECT_EQ(txn::ReplayTrace(t).status().code(), StatusCode::kInternal);
}

TEST(TraceEdgeTest, DoubleCommitRejected) {
  txn::Trace t;
  t.events = {Begin(1, lock::kNoTxn), CommitEv(1), CommitEv(1)};
  EXPECT_EQ(txn::ReplayTrace(t).status().code(), StatusCode::kInternal);
}

TEST(TraceEdgeTest, AbortAfterCommitRejected) {
  txn::Trace t;
  t.events = {Begin(1, lock::kNoTxn), CommitEv(1), AbortEv(1)};
  EXPECT_EQ(txn::ReplayTrace(t).status().code(), StatusCode::kInternal);
}

TEST(TraceEdgeTest, PerformUnderUnknownOwnerRejected) {
  txn::Trace t;
  t.events = {PerformEv(9, 1, 0, 0)};
  EXPECT_EQ(txn::ReplayTrace(t).status().code(), StatusCode::kInternal);
}

TEST(TraceEdgeTest, WellFormedTraceWithAbortsAccepted) {
  txn::Trace t;
  t.events = {Begin(1, lock::kNoTxn), Begin(2, 1), PerformEv(3, 2, 0, 0),
              AbortEv(2),             CommitEv(1)};
  auto r = txn::ReplayTrace(t);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->tree.size(), 4u);  // U + txn + child + access
}

// ---------------------------------------------------------------------
// Lock manager randomized invariant: granted lock sets always satisfy
// Moss's compatibility shape.

class ForestAncestry : public lock::Ancestry {
 public:
  void Set(lock::TxnId child, lock::TxnId parent) { parent_[child] = parent; }
  bool IsAncestor(lock::TxnId anc, lock::TxnId desc) const override {
    if (anc == lock::kNoTxn) return true;
    for (lock::TxnId c = desc; c != lock::kNoTxn;) {
      if (c == anc) return true;
      auto it = parent_.find(c);
      if (it == parent_.end()) return false;
      c = it->second;
    }
    return false;
  }

 private:
  std::map<lock::TxnId, lock::TxnId> parent_;
};

TEST(LockManagerPropertyTest, GrantedSetsAlwaysCompatible) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    ForestAncestry anc;
    // Random forest of 12 txns, depth up to 3.
    std::vector<lock::TxnId> txns;
    for (lock::TxnId id = 1; id <= 12; ++id) {
      lock::TxnId parent =
          txns.empty() || rng.Chance(0.4) ? lock::kNoTxn : rng.Choose(txns);
      anc.Set(id, parent);
      txns.push_back(id);
    }
    lock::LockManager lm(&anc);
    std::set<lock::TxnId> dead;
    for (int op = 0; op < 200; ++op) {
      lock::TxnId t = rng.Choose(txns);
      if (dead.count(t)) continue;
      ObjectId x = static_cast<ObjectId>(rng.Below(3));
      switch (rng.Below(4)) {
        case 0:
          lm.TryAcquire(x, t, lock::LockMode::kRead);
          break;
        case 1:
          lm.TryAcquire(x, t, lock::LockMode::kWrite);
          break;
        case 2:
          lm.OnAbort(t, lock::LockManager::kAllShards);
          dead.insert(t);
          break;
        default:
          break;  // no-op
      }
      // Invariant (the lock rules' footprint): every WRITE holder is
      // ancestrally comparable with every other holder of any mode.
      // (Note a holder can still "see blockers" — a descendant may
      // acquire beneath a holding ancestor, and then the *ancestor* must
      // wait for the child to finish; that is Moss's rule, not a bug.)
      for (ObjectId ox = 0; ox < 3; ++ox) {
        for (lock::TxnId w : txns) {
          if (!lm.Holds(ox, w, lock::LockMode::kWrite)) continue;
          for (lock::TxnId h : txns) {
            if (h == w) continue;
            bool holds_any = lm.Holds(ox, h, lock::LockMode::kRead) ||
                             lm.Holds(ox, h, lock::LockMode::kWrite);
            if (!holds_any) continue;
            EXPECT_TRUE(anc.IsAncestor(w, h) || anc.IsAncestor(h, w))
                << "write holder " << w << " incomparable with holder "
                << h << " on x" << ox;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Engine: garbage collection and deep nesting.

TEST(EngineEdgeTest, StaleHandlesAfterTopLevelCommitAreSafe) {
  txn::TransactionManager mgr;
  auto t = mgr.Begin();
  auto c = t->BeginChild();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->Put(0, 1).ok());
  ASSERT_TRUE((*c)->Commit().ok());
  ASSERT_TRUE(t->Commit().ok());
  // The subtree is garbage-collected; stale child handle operations fail
  // cleanly instead of touching freed state.
  EXPECT_TRUE((*c)->Get(0).status().IsAborted());
  EXPECT_TRUE((*c)->BeginChild().status().IsAborted());
  EXPECT_TRUE((*c)->Abort().ok()) << "idempotent on gone transactions";
}

TEST(EngineEdgeTest, DeepNestingChainWorks) {
  txn::TransactionManager mgr;
  constexpr int kDepth = 32;
  std::vector<std::unique_ptr<txn::TxnHandle>> chain;
  chain.push_back(mgr.Begin());
  for (int d = 1; d < kDepth; ++d) {
    auto c = chain.back()->BeginChild();
    ASSERT_TRUE(c.ok()) << "depth " << d;
    chain.push_back(std::move(*c));
  }
  ASSERT_TRUE(chain.back()->Apply(0, Update::Add(1)).ok());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    ASSERT_TRUE((*it)->Commit().ok());
  }
  EXPECT_EQ(mgr.ReadCommitted(0), 1);
}

TEST(EngineEdgeTest, AbortAtDepthUnwindsEverything) {
  txn::TransactionManager mgr;
  auto t = mgr.Begin();
  std::vector<std::unique_ptr<txn::TxnHandle>> chain;
  chain.push_back(std::move(t));
  for (int d = 0; d < 10; ++d) {
    auto c = chain.back()->BeginChild();
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Apply(static_cast<ObjectId>(d), Update::Add(1)).ok());
    chain.push_back(std::move(*c));
  }
  // Abort the root: all 10 levels die, all versions vanish.
  ASSERT_TRUE(chain.front()->Abort().ok());
  for (int d = 0; d < 10; ++d) {
    EXPECT_EQ(mgr.ReadCommitted(static_cast<ObjectId>(d)), 0);
  }
  EXPECT_TRUE(chain.back()->Get(0).status().IsAborted());
}

TEST(EngineEdgeTest, ManySequentialTransactionsDoNotLeakState) {
  txn::TransactionManager mgr;
  for (int i = 0; i < 500; ++i) {
    auto t = mgr.Begin();
    ASSERT_TRUE(t->Apply(0, Update::Add(1)).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_EQ(mgr.ReadCommitted(0), 500);
  auto stats = mgr.stats();
  EXPECT_EQ(stats.committed, 500u);
  EXPECT_EQ(stats.aborted, 0u);
}

// ---------------------------------------------------------------------
// MVTO pruning and snapshot behavior.

TEST(MvtoEdgeTest, PruningPreservesCommittedState) {
  baseline::MvtoEngine eng;
  for (int i = 0; i < 100; ++i) {
    auto t = eng.Begin();
    ASSERT_TRUE(t->Apply(0, Update::Add(1)).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_EQ(eng.ReadCommitted(0), 100);
}

TEST(MvtoEdgeTest, LongLivedReaderSurvivesPruning) {
  baseline::MvtoEngine eng;
  {
    auto t = eng.Begin();
    ASSERT_TRUE(t->Put(0, 42).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  auto reader = eng.Begin();
  auto first = reader->Get(0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 42);
  // Many later writers (each on a fresh snapshot).
  for (int i = 0; i < 50; ++i) {
    auto t = eng.Begin();
    if (t->Put(0, 100 + i).ok()) (void)t->Commit();
  }
  // The old reader still sees its snapshot (pruning respects the oldest
  // active timestamp).
  auto again = reader->Get(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 42);
  ASSERT_TRUE(reader->Commit().ok());
}

// ---------------------------------------------------------------------
// Workload determinism (single worker => no interleaving nondeterminism).

TEST(WorkloadEdgeTest, SingleWorkerRunsAreDeterministic) {
  workload::Params p;
  p.num_objects = 8;
  p.child_failure_prob = 0.2;
  auto run = [&](std::uint64_t seed) {
    txn::TransactionManager eng;
    return workload::RunMixed(eng, p, 1, 30, seed);
  };
  workload::Result a = run(99), b = run(99), c = run(100);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.txn_attempts, b.txn_attempts);
  EXPECT_EQ(a.child_retries, b.child_retries);
  EXPECT_EQ(a.accesses, b.accesses);
  // Different seed, (almost surely) different trajectory.
  EXPECT_TRUE(a.child_retries != c.child_retries ||
              a.accesses != c.accesses || a.txn_attempts != c.txn_attempts);
}

// ---------------------------------------------------------------------
// Distributed driver with aborts at several depths.

TEST(DistDriverEdgeTest, AbortsAtMultipleDepthsStillDrain) {
  Rng rng(7);
  testutil::RandomRegistryParams p;
  p.top_level = 3;
  p.max_children = 3;
  p.max_depth = 4;
  p.objects = 3;
  action::ActionRegistry reg = testutil::MakeRandomRegistry(rng, p);
  // Abort one top-level and one inner non-access action.
  std::set<ActionId> aborts;
  for (ActionId a = 1; a < reg.size() && aborts.size() < 2; ++a) {
    if (!reg.IsAccess(a) &&
        (reg.Parent(a) == kRootAction ? aborts.empty() : aborts.size() == 1)) {
      aborts.insert(a);
    }
  }
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  sim::DriverOptions opt;
  opt.abort_set = aborts;
  auto run = sim::RunProgram(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->stats.aborts, aborts.size());
  // All locks drained to the root.
  for (NodeId i = 0; i < topo.k(); ++i) {
    for (ObjectId x : run->final_state.nodes[i].vmap.TouchedObjects()) {
      for (const auto& [holder, v] :
           *run->final_state.nodes[i].vmap.EntriesFor(x)) {
        EXPECT_EQ(holder, kRootAction);
      }
    }
  }
}

}  // namespace
}  // namespace rnt
