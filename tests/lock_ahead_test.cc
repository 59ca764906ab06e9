// Deadlock freedom of whole-transaction batches (frontend::Session →
// TxnHandle::LockAhead → ShardedEngine). Sessions on their own threads
// submit batches that each carry one whole top-level transaction whose
// key orders cross, that read a key before writing it, and that run a
// nested child (some of which abort). Taken access by access, such
// transactions deadlock: two readers of a key both wait to upgrade it,
// and two transactions that take keys in opposite orders wait for each
// other. Locking each whole transaction ahead in object order leaves no
// wait cycle, so with wait-for detection off not one lock wait may run
// into its timeout. Labeled `frontend` and `stress` (stress-tsan runs
// it).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.h"
#include "frontend/batch.h"
#include "txn/online_checker.h"
#include "txn/transaction_manager.h"

namespace rnt::frontend {
namespace {

using txn::OnlineChecker;
using txn::TransactionManager;

constexpr ObjectId kKeys = 6;

/// One whole transaction: read a and b, a child that writes b and c
/// (and aborts one time in four), then write a. Keys are drawn at
/// random, so the orders in which transactions reach them cross.
std::vector<BatchOp> WholeTransaction(Rng& rng, Value v) {
  const ObjectId a = static_cast<ObjectId>(rng.Below(kKeys));
  const ObjectId b = static_cast<ObjectId>(rng.Below(kKeys));
  const ObjectId c = static_cast<ObjectId>(rng.Below(kKeys));
  return {BatchOp::Begin(),
          BatchOp::Get(a),
          BatchOp::Get(b),
          BatchOp::Begin(),
          BatchOp::Put(b, v),
          BatchOp::Apply(c, action::Update::Add(1)),
          rng.Below(4) == 0 ? BatchOp::Abort() : BatchOp::Commit(),
          BatchOp::Put(a, v + 1),
          BatchOp::Commit()};
}

void RunSessions(std::size_t sessions, std::size_t txns_per_session) {
  OnlineChecker::Options copt;
  copt.mode = OnlineChecker::Mode::kRw;
  OnlineChecker checker(copt);
  TransactionManager::Options opt;
  opt.deadlock_detection = false;
  opt.lock_wait_timeout = std::chrono::milliseconds(20);
  opt.trace_sink = &checker;
  TransactionManager mgr(opt);

  std::vector<std::thread> threads;
  std::vector<std::size_t> committed(sessions, 0);
  for (std::size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      Session session(&mgr);
      Rng rng(1000 + s);
      for (std::size_t i = 0; i < txns_per_session; ++i) {
        const std::vector<BatchOp> ops =
            WholeTransaction(rng, static_cast<Value>(s * 100000 + i * 2));
        std::vector<OpResult> results(ops.size());
        session.Execute(BatchRequest{ops}, results.data());
        if (results.back().ok()) ++committed[s];
        EXPECT_EQ(session.depth(), 0u);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const TransactionManager::Stats st = mgr.stats();
  EXPECT_EQ(st.timeout_aborts, 0u)
      << "a lock wait ran into the timeout: a wait cycle formed";
  EXPECT_EQ(st.lock_records, 0u) << "lock records outlived every transaction";
  for (std::size_t s = 0; s < sessions; ++s) {
    EXPECT_EQ(committed[s], txns_per_session) << "session " << s;
  }
  const OnlineChecker::CheckResult verdict = checker.Verdict();
  EXPECT_EQ(verdict.outcome, OnlineChecker::Outcome::kOk) << verdict.detail;
}

TEST(LockAheadTest, CrossingWholeTransactionBatchesNeverTimeOut) {
  for (std::size_t sessions : {2u, 3u, 4u}) {
    SCOPED_TRACE(sessions);
    RunSessions(sessions, 300);
  }
}

}  // namespace
}  // namespace rnt::frontend
