// Runtime half of the whole-program lock-order model: the debug-build
// LockOrderRegistry (common/mutex.h) checks every acquisition against
// the declared ranks and records the observed (held -> acquired) edges.
// This suite seeds deliberate inversions and asserts they are reported,
// then drives a real workload across the nested engine, the durable
// WAL engine, the online checker, and the async front end, and asserts
// the observed edge set is a SUBSET of the static acquisition graph
// (tools/analyze/lock_graph.json) — observed ⊆ declared is the contract
// that closes the loop between the analyzer and runtime truth.
//
// Labeled `stress` so the TSan preset (a Debug build, witness compiled
// in) runs it under a real race detector. Under RelWithDebInfo the
// witness is compiled out and every test skips with a note.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "frontend/arena.h"
#include "frontend/async_frontend.h"
#include "frontend/batch.h"
#include "lock_order_testutil.h"
#include "storage/durable_engine.h"
#include "temp_dir.h"
#include "txn/online_checker.h"
#include "txn/transaction_manager.h"
#include "workload/workload.h"

namespace rnt {
namespace {

#define SKIP_WITHOUT_WITNESS()                                            \
  if (!LockOrderRegistry::Enabled()) {                                    \
    GTEST_SKIP() << "lock-order witness compiled out (non-Debug build); " \
                    "run under the tsan/asan/lint presets";               \
  }

/// Restores abort-on-violation and clears the registry however the test
/// exits, so a failing assertion cannot poison the next test.
struct RegistryScope {
  RegistryScope() {
    LockOrderRegistry::Reset();
    LockOrderRegistry::SetAbortOnViolation(false);
  }
  ~RegistryScope() {
    LockOrderRegistry::Reset();
    LockOrderRegistry::SetAbortOnViolation(true);
  }
};

TEST(LockOrderWitnessTest, SeededInversionIsReported) {
  SKIP_WITHOUT_WITNESS();
  RegistryScope scope;
  Mutex lo{"test.lo", 1};
  Mutex hi{"test.hi", 2};
  {
    MutexLock l1(hi);
    MutexLock l2(lo);  // rank 2 held, rank 1 acquired: the violation
  }
  const auto violations = LockOrderRegistry::TakeViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("test.lo"), std::string::npos);
  EXPECT_NE(violations[0].find("test.hi"), std::string::npos);
}

TEST(LockOrderWitnessTest, SameRankDistinctLocksAreReported) {
  SKIP_WITHOUT_WITNESS();
  RegistryScope scope;
  Mutex a{"test.a", 7};
  Mutex b{"test.b", 7};
  MutexLock l1(a);
  MutexLock l2(b);  // equal ranks outside a sorted group: the violation
  EXPECT_EQ(LockOrderRegistry::TakeViolations().size(), 1u);
}

TEST(LockOrderWitnessTest, SortedGroupSameRankIsAccepted) {
  SKIP_WITHOUT_WITNESS();
  RegistryScope scope;
  Mutex parent{"test.group", 9, Mutex::SortedGroup{}};
  Mutex child{"test.group", 9, Mutex::SortedGroup{}};
  {
    MutexLock l1(parent);
    MutexLock l2(child);  // the engine's root-first chain idiom
  }
  EXPECT_TRUE(LockOrderRegistry::TakeViolations().empty());
  // The self edge is recorded, mirroring the static graph's declared
  // txn.rec -> txn.rec edge.
  const auto edges = LockOrderRegistry::ObservedEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, "test.group");
  EXPECT_EQ(edges[0].to, "test.group");
}

TEST(LockOrderWitnessTest, StrictlyIncreasingChainIsAccepted) {
  SKIP_WITHOUT_WITNESS();
  RegistryScope scope;
  Mutex a{"test.c1", 10};
  Mutex b{"test.c2", 20};
  Mutex c{"test.c3", 30};
  {
    MutexLock l1(a);
    MutexLock l2(b);
    MutexLock l3(c);
  }
  EXPECT_TRUE(LockOrderRegistry::TakeViolations().empty());
  EXPECT_EQ(LockOrderRegistry::ObservedEdges().size(), 3u);
}

TEST(LockOrderWitnessTest, UnrankedMutexesStayOutsideTheModel) {
  SKIP_WITHOUT_WITNESS();
  RegistryScope scope;
  Mutex anon;  // rank -1: test/tool utility locks are not witnessed
  Mutex ranked{"test.r", 10};
  MutexLock l1(ranked);
  MutexLock l2(anon);
  EXPECT_TRUE(LockOrderRegistry::TakeViolations().empty());
  EXPECT_TRUE(LockOrderRegistry::ObservedEdges().empty());
}

/// The whole-stack drive: the engine under a contended nested workload
/// with the online checker attached, the durable WAL engine, and the
/// async front end. Everything the static analyzer modeled runs
/// for real; the witness must observe no violation and no edge outside
/// the committed baseline.
TEST(LockOrderWitnessTest, ObservedEdgesAreSubsetOfStaticGraph) {
  SKIP_WITHOUT_WITNESS();
  const auto declared = rnt::testing::DeclaredLockEdges();
  ASSERT_FALSE(declared.empty()) << "baseline lock_graph.json not readable";
  RegistryScope scope;

  workload::Params params;
  params.num_objects = 16;  // contended: exercises waits and deadlocks
  params.children_per_txn = 3;
  params.accesses_per_child = 2;
  params.child_failure_prob = 0.1;
  params.parallel_children = true;

  {
    txn::TransactionManager::Options topt;
    topt.record_trace = true;
    txn::OnlineChecker checker;
    topt.trace_sink = &checker;
    txn::TransactionManager engine(topt);
    workload::RunMixed(engine, params, /*workers=*/4, /*txns_per_worker=*/50,
                       /*seed=*/2026);
  }

  {
    rnt::testing::TempDir dir;
    ASSERT_TRUE(dir.ok());
    storage::DurableEngineOptions dopt;
    dopt.fsync = false;
    auto eng = storage::DurableEngine::Open(dir.path(), dopt);
    ASSERT_TRUE(eng.ok()) << eng.status();
    workload::Params dparams = params;
    dparams.child_failure_prob = 0.0;
    workload::RunMixed(**eng, dparams, /*workers=*/4, /*txns_per_worker=*/25,
                       /*seed=*/7);
  }

  {
    txn::TransactionManager engine;
    frontend::AsyncFrontend fe(&engine, frontend::AsyncFrontend::Options{2, 8});
    frontend::Arena arena;
    frontend::BatchBuilder b(&arena);
    b.Begin().Put(1, 1).Apply(1, action::Update::Add(1)).Get(1).Commit();
    const frontend::BatchRequest req = b.Build();
    std::vector<frontend::OpResult> results(req.ops.size());
    frontend::Completion done;
    ASSERT_TRUE(fe.Submit(fe.OpenSession(), req, results.data(), &done));
    done.Wait();
    fe.Shutdown();
  }

  EXPECT_TRUE(LockOrderRegistry::TakeViolations().empty());
  for (const auto& e : LockOrderRegistry::ObservedEdges()) {
    EXPECT_TRUE(declared.count({e.from, e.to}))
        << "observed edge not in the static graph: " << e.from << " -> "
        << e.to << " (regenerate tools/analyze/lock_graph.json if the "
        << "locking change is intentional)";
  }
}

}  // namespace
}  // namespace rnt
