// Differential suite for the batched front end (frontend/batch.h,
// frontend/async_frontend.h, frontend/fleet.h): batched execution must
// be indistinguishable from one-engine-call-per-op execution — same
// per-op codes and values, same committed store, same live Theorem 9
// verdict — across randomized batch shapes, including batches that
// straddle nested begin/commit/abort boundaries, at 16 shards and at
// one. Labeled `frontend`; runs under the default and stress-tsan
// presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "frontend/arena.h"
#include "frontend/async_frontend.h"
#include "frontend/batch.h"
#include "frontend/fleet.h"
#include "txn/online_checker.h"
#include "txn/transaction_manager.h"

namespace rnt::frontend {
namespace {

using txn::OnlineChecker;
using txn::TransactionManager;

// ---------------------------------------------------------------------
// Building blocks.

TEST(ArenaTest, ReusesBlocksAcrossResets) {
  Arena arena(1 << 10);
  int* a = arena.AllocArray<int>(100);
  for (int i = 0; i < 100; ++i) a[i] = i;
  const std::size_t cap = arena.CapacityBytes();
  for (int round = 0; round < 50; ++round) {
    arena.Reset();
    int* b = arena.AllocArray<int>(100);
    ASSERT_EQ(a, b);  // same storage, no growth
    for (int i = 0; i < 100; ++i) b[i] = i * round;
  }
  EXPECT_EQ(arena.CapacityBytes(), cap);
}

TEST(ArenaTest, GrowsForOversizedRequests) {
  Arena arena(64);
  double* big = arena.AllocArray<double>(1000);
  ASSERT_NE(big, nullptr);
  big[999] = 1.0;
  EXPECT_GE(arena.CapacityBytes(), 1000 * sizeof(double));
}

TEST(BatchBuilderTest, RegrowsPastReserve) {
  Arena arena;
  BatchBuilder b(&arena);
  b.Reserve(2);
  for (int i = 0; i < 100; ++i) b.Get(static_cast<ObjectId>(i));
  const BatchRequest req = b.Build();
  ASSERT_EQ(req.ops.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(req.ops[i].object, static_cast<ObjectId>(i));
    EXPECT_EQ(req.ops[i].kind, BatchOpKind::kGet);
  }
}

// ---------------------------------------------------------------------
// Randomized differential: batched vs one-op-at-a-time.

/// A random op stream over a small object pool: data ops mixed with
/// begin/commit/abort, mostly well-formed but with occasional illegal
/// ops (commit/abort/data at depth 0 happens when the weights land
/// there), so the kIllegalState paths are compared too. Ends by
/// committing everything still open.
std::vector<BatchOp> RandomStream(std::uint64_t seed, int length,
                                  int objects) {
  Rng rng(seed);
  std::vector<BatchOp> ops;
  int depth = 0;
  for (int i = 0; i < length; ++i) {
    const std::uint64_t roll = rng.Below(100);
    if (roll < 55) {
      const auto x = static_cast<ObjectId>(rng.Below(objects));
      switch (rng.Below(4)) {
        case 0:
          ops.push_back(BatchOp::Get(x));
          break;
        case 1:
          ops.push_back(BatchOp::Put(x, static_cast<Value>(rng.Below(100))));
          break;
        case 2:
          ops.push_back(
              BatchOp::Apply(x, action::Update::Add(
                                    1 + static_cast<Value>(rng.Below(5)))));
          break;
        default:
          ops.push_back(BatchOp::Apply(
              x, action::Update::XorConst(
                     static_cast<Value>(1 + rng.Below(63)))));
          break;
      }
    } else if (roll < 75) {
      ops.push_back(BatchOp::Begin());
      ++depth;
    } else if (roll < 90) {
      ops.push_back(BatchOp::Commit());
      if (depth > 0) --depth;
    } else {
      ops.push_back(BatchOp::Abort());
      if (depth > 0) --depth;
    }
  }
  for (; depth > 0; --depth) ops.push_back(BatchOp::Commit());
  return ops;
}

struct RunOutcome {
  std::vector<OpResult> results;
  std::map<ObjectId, Value> committed;
  OnlineChecker::Outcome verdict = OnlineChecker::Outcome::kOk;
  std::size_t final_depth = 0;
};

/// Executes `ops` on a fresh engine through one Session, split into
/// chunks at the given boundaries, batched or serial, with a live
/// checker mounted.
RunOutcome RunStream(const std::vector<BatchOp>& ops,
                     const std::vector<std::size_t>& chunk_ends,
                     std::uint32_t shards, bool batched) {
  OnlineChecker checker(
      OnlineChecker::Options{OnlineChecker::Mode::kRw, 256});
  TransactionManager::Options topt;
  topt.shards = shards;
  topt.trace_sink = &checker;
  TransactionManager engine(topt);
  RunOutcome out;
  out.results.resize(ops.size());
  {
    Session session(&engine);
    std::size_t start = 0;
    for (std::size_t end : chunk_ends) {
      const BatchRequest req{
          std::span<const BatchOp>(ops.data() + start, end - start)};
      if (batched) {
        session.Execute(req, out.results.data() + start);
      } else {
        session.ExecuteSerial(req, out.results.data() + start);
      }
      start = end;
    }
    out.final_depth = session.depth();
    // ~Session aborts whatever is still open, on both paths alike.
  }
  out.committed = engine.DumpCommitted();
  out.verdict = checker.Verdict().outcome;
  return out;
}

/// Random chunk boundaries: every op stream is split into 1..n batches
/// at arbitrary points, so chunks routinely straddle begin/commit/abort.
std::vector<std::size_t> RandomChunks(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::size_t> ends;
  std::size_t at = 0;
  while (at < n) {
    at = std::min(n, at + 1 + rng.Below(17));
    ends.push_back(at);
  }
  return ends;
}

class DifferentialTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DifferentialTest, BatchedMatchesSerialOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<BatchOp> ops = RandomStream(seed, 120, 8);
    const std::vector<std::size_t> chunks = RandomChunks(seed * 31, ops.size());
    const RunOutcome batched = RunStream(ops, chunks, GetParam(), true);
    const RunOutcome serial = RunStream(ops, chunks, GetParam(), false);
    ASSERT_EQ(batched.results.size(), serial.results.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(batched.results[i].code, serial.results[i].code)
          << "seed " << seed << " op " << i;
      EXPECT_EQ(batched.results[i].value, serial.results[i].value)
          << "seed " << seed << " op " << i;
    }
    EXPECT_EQ(batched.committed, serial.committed) << "seed " << seed;
    EXPECT_EQ(batched.final_depth, serial.final_depth) << "seed " << seed;
    EXPECT_EQ(batched.verdict, serial.verdict) << "seed " << seed;
    EXPECT_EQ(batched.verdict, OnlineChecker::Outcome::kOk)
        << "seed " << seed;
  }
}

TEST_P(DifferentialTest, StraddledNestedBoundaries) {
  // A hand-built stream whose every control op sits in its own chunk or
  // mid-chunk: begin / nested begin / nested abort / nested begin /
  // nested commit / top commit, with data ops on both sides of each
  // boundary.
  std::vector<BatchOp> ops = {
      BatchOp::Begin(),
      BatchOp::Put(1, 10),
      BatchOp::Begin(),           // nested
      BatchOp::Apply(1, action::Update::Add(5)),
      BatchOp::Put(2, 7),
      BatchOp::Abort(),           // nested abort: 1 stays 10, 2 unwritten
      BatchOp::Get(1),
      BatchOp::Begin(),           // nested again
      BatchOp::Apply(1, action::Update::Add(1)),
      BatchOp::Commit(),          // nested commit: 1 becomes 11
      BatchOp::Get(1),
      BatchOp::Commit(),          // top commit
  };
  // Chunk so that the nested begin/abort/commit all straddle.
  const std::vector<std::size_t> chunks = {2, 5, 8, 10, ops.size()};
  const RunOutcome batched = RunStream(ops, chunks, GetParam(), true);
  const RunOutcome serial = RunStream(ops, chunks, GetParam(), false);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(batched.results[i].code, serial.results[i].code) << "op " << i;
    EXPECT_EQ(batched.results[i].value, serial.results[i].value) << "op " << i;
  }
  EXPECT_EQ(batched.results[6].value, 10);   // read after nested abort
  EXPECT_EQ(batched.results[10].value, 11);  // read after nested commit
  EXPECT_EQ(batched.committed, serial.committed);
  EXPECT_EQ(batched.committed.at(1), 11);
  EXPECT_EQ(batched.committed.count(2), 0u);
  EXPECT_EQ(batched.verdict, OnlineChecker::Outcome::kOk);
  EXPECT_EQ(serial.verdict, OnlineChecker::Outcome::kOk);
}

TEST_P(DifferentialTest, DataOpsWithNoOpenTransactionAreRefused) {
  const std::vector<BatchOp> ops = {
      BatchOp::Get(1),
      BatchOp::Commit(),
      BatchOp::Begin(),
      BatchOp::Put(1, 3),
      BatchOp::Commit(),
  };
  const std::vector<std::size_t> chunks = {ops.size()};
  const RunOutcome batched = RunStream(ops, chunks, GetParam(), true);
  const RunOutcome serial = RunStream(ops, chunks, GetParam(), false);
  EXPECT_EQ(batched.results[0].code, StatusCode::kIllegalState);
  EXPECT_EQ(batched.results[1].code, StatusCode::kIllegalState);
  EXPECT_EQ(batched.results[3].code, StatusCode::kOk);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(batched.results[i].code, serial.results[i].code) << "op " << i;
  }
  EXPECT_EQ(batched.committed, serial.committed);
}

INSTANTIATE_TEST_SUITE_P(Shards, DifferentialTest, ::testing::Values(16u, 1u));

// ---------------------------------------------------------------------
// Async front end.

TEST(AsyncFrontendTest, CompletionsAndCallbacksFire) {
  TransactionManager engine;
  AsyncFrontend fe(&engine, AsyncFrontend::Options{2, 8});
  Arena arena;
  BatchBuilder b(&arena);
  b.Begin().Put(1, 41).Apply(1, action::Update::Add(1)).Get(1).Commit();
  const BatchRequest req = b.Build();
  std::vector<OpResult> results(req.ops.size());
  Completion done;
  std::atomic<int> callbacks{0};
  ASSERT_TRUE(fe.Submit(fe.OpenSession(), req, results.data(), &done,
                        [&](const BatchResult& r) {
                          callbacks.fetch_add(1);
                          EXPECT_EQ(r.failed_ops, 0u);
                        }));
  const BatchResult& r = done.Wait();
  EXPECT_EQ(r.ok_ops, req.ops.size());
  EXPECT_EQ(results[3].value, 42);  // the Get sees the Put+Add
  fe.Shutdown();
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(engine.DumpCommitted().at(1), 42);
  EXPECT_EQ(fe.stats().batches, 1u);
}

TEST(AsyncFrontendTest, SessionOrderSurvivesStraddling) {
  // One session's transaction spread over three submissions; a second
  // session interleaves its own. Per-session FIFO (worker pinning) must
  // keep each stack consistent.
  TransactionManager engine;
  AsyncFrontend fe(&engine, AsyncFrontend::Options{1, 16});
  const auto s1 = fe.OpenSession();
  const auto s2 = fe.OpenSession();
  Arena arena;
  BatchBuilder open1(&arena), mid1(&arena), close1(&arena), whole2(&arena);
  open1.Begin().Put(1, 100);
  mid1.Begin().Apply(1, action::Update::Add(11)).Commit();
  close1.Get(1).Commit();
  whole2.Begin().Put(2, 200).Commit();
  OpResult r1a[2], r1b[3], r1c[2], r2[3];
  Completion c1, c2;
  ASSERT_TRUE(fe.Submit(s1, open1.Build(), r1a, nullptr));
  ASSERT_TRUE(fe.Submit(s2, whole2.Build(), r2, &c2));
  ASSERT_TRUE(fe.Submit(s1, mid1.Build(), r1b, nullptr));
  ASSERT_TRUE(fe.Submit(s1, close1.Build(), r1c, &c1));
  c1.Wait();
  c2.Wait();
  EXPECT_EQ(r1c[0].value, 111);  // Put(100) + nested Add(11)
  fe.Shutdown();
  const auto committed = engine.DumpCommitted();
  EXPECT_EQ(committed.at(1), 111);
  EXPECT_EQ(committed.at(2), 200);
}

TEST(AsyncFrontendTest, ShutdownDrainsQueuedBatchesAndRefusesNew) {
  TransactionManager engine;
  Arena arena;
  BatchBuilder b(&arena);
  b.Begin().Put(5, 55).Commit();
  const BatchRequest req = b.Build();
  OpResult results[3];
  Completion done;
  AsyncFrontend::SessionId session;
  {
    AsyncFrontend fe(&engine, AsyncFrontend::Options{1, 4});
    session = fe.OpenSession();
    ASSERT_TRUE(fe.Submit(session, req, results, &done));
    fe.Shutdown();               // must execute the queued batch first
    EXPECT_TRUE(done.Done());
    EXPECT_EQ(done.Wait().ok_ops, 3u);
    EXPECT_FALSE(fe.Submit(session, req, results, &done));  // after stop
  }
  EXPECT_EQ(engine.DumpCommitted().at(5), 55);
}

TEST(AsyncFrontendTest, ShutdownAbortsOpenSessions) {
  TransactionManager engine;
  AsyncFrontend fe(&engine, AsyncFrontend::Options{1, 4});
  Arena arena;
  BatchBuilder b(&arena);
  b.Begin().Put(9, 99);  // no commit: left open on purpose
  OpResult results[2];
  Completion done;
  ASSERT_TRUE(fe.Submit(fe.OpenSession(), b.Build(), results, &done));
  done.Wait();
  fe.Shutdown();  // worker must CloseAbort the dangling transaction
  EXPECT_EQ(engine.DumpCommitted().count(9), 0u);
  EXPECT_EQ(engine.stats().lock_records, 0u);  // no leaked locks
}

TEST(AsyncFrontendTest, BackpressureBlocksThenRecovers) {
  TransactionManager engine;
  AsyncFrontend fe(&engine, AsyncFrontend::Options{1, 1});
  Arena arena;
  BatchBuilder b(&arena);
  b.Begin().Apply(1, action::Update::Add(1)).Commit();
  const BatchRequest req = b.Build();
  constexpr int kBatches = 64;
  std::vector<std::vector<OpResult>> results(kBatches);
  Completion done[kBatches];
  const auto session = fe.OpenSession();
  for (int i = 0; i < kBatches; ++i) {
    results[i].resize(req.ops.size());
    // Queue depth is 1, so most of these block in Submit until the
    // worker catches up — and all must still execute exactly once.
    ASSERT_TRUE(fe.Submit(session, req, results[i].data(), &done[i]));
  }
  for (int i = 0; i < kBatches; ++i) done[i].Wait();
  fe.Shutdown();
  EXPECT_EQ(engine.DumpCommitted().at(1), kBatches);
  EXPECT_EQ(fe.stats().batches, static_cast<std::uint64_t>(kBatches));
  EXPECT_GT(fe.stats().backpressure_waits, 0u);
}

// ---------------------------------------------------------------------
// Fleet: async execution matches the synchronous reference exactly.

TEST(FleetTest, AsyncMatchesSyncCommittedStore) {
  for (std::uint32_t shards : {16u, 1u}) {
    FleetOptions f;
    f.clients = 8;
    f.rounds = 3;
    f.txn_ops = 24;
    f.batch_size = 10;  // chunks straddle begin/commit
    f.objects_per_client = 32;
    f.seed = 7;
    std::map<ObjectId, Value> dumps[2];
    std::uint64_t ok[2];
    for (int pass = 0; pass < 2; ++pass) {
      OnlineChecker checker(
          OnlineChecker::Options{OnlineChecker::Mode::kRw, 256});
      TransactionManager::Options topt;
      topt.shards = shards;
      topt.trace_sink = &checker;
      TransactionManager engine(topt);
      FleetOptions run = f;
      run.async = pass == 0;
      run.workers = 2;
      const FleetReport r = RunFleet(&engine, run);
      EXPECT_EQ(r.failed_ops, 0u);
      EXPECT_EQ(r.rejected, 0u);
      EXPECT_EQ(checker.Verdict().outcome, OnlineChecker::Outcome::kOk);
      dumps[pass] = engine.DumpCommitted();
      ok[pass] = r.ok_ops;
    }
    // Disjoint per-client ranges make the committed store independent
    // of interleaving: async (2 workers) and sync must agree exactly.
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_EQ(ok[0], ok[1]);
  }
}

TEST(FleetTest, BatchSizeDoesNotChangeOutcomes) {
  std::map<ObjectId, Value> reference;
  std::uint64_t reference_ok = 0;
  for (std::uint64_t batch : {1ull, 5ull, 26ull, 64ull}) {
    TransactionManager engine;
    FleetOptions f;
    f.clients = 6;
    f.rounds = 2;
    f.txn_ops = 24;
    f.batch_size = batch;
    f.objects_per_client = 32;
    f.seed = 13;
    f.async = false;
    const FleetReport r = RunFleet(&engine, f);
    EXPECT_EQ(r.failed_ops, 0u);
    if (reference.empty()) {
      reference = engine.DumpCommitted();
      reference_ok = r.ok_ops;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(engine.DumpCommitted(), reference) << "batch " << batch;
      EXPECT_EQ(r.ok_ops, reference_ok) << "batch " << batch;
    }
  }
}

}  // namespace
}  // namespace rnt::frontend
