// DurableEngine: commit durability across clean restarts, nested-tree
// recovery semantics, checkpointing, recovered-history validity under
// the Theorem 9 checker, and the independence of recovery from the
// number of times it runs.
//
// Crash simulation without kill -9 (that harness lives in
// process_recovery_test.cc): after barriering the WAL we *freeze* the
// storage directory — byte-copy it into a second temp dir — while
// in-flight transactions are still open, then shut the engine down
// cleanly. The frozen copy is exactly the disk image a crash at that
// instant would have left (the abort records the clean shutdown emits
// land only in the original), and the process stays leak-free for the
// ASan durability preset.
#include <memory>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "aat/aat.h"
#include "storage/durable_engine.h"
#include "storage/file_io.h"
#include "storage/log_reader.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "temp_dir.h"
#include "txn/online_checker.h"
#include "txn/trace.h"

namespace rnt::storage {
namespace {

using action::Update;

DurableEngineOptions FastOptions() {
  DurableEngineOptions opts;
  opts.group_commit_interval = std::chrono::milliseconds(1);
  // Page-cache durability is what the process-level fault model needs;
  // keeps the unit tests fast.
  opts.fsync = false;
  return opts;
}

void CopyFile(const std::string& src, const std::string& dst) {
  auto bytes = ReadFileBytes(src);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto fd = OpenForAppend(dst, /*truncate=*/true);
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(WriteAll(*fd, bytes->data(), bytes->size(), dst).ok());
  ASSERT_EQ(::close(*fd), 0);
}

/// Byte-copies the storage directory (snapshot, if any, plus every WAL
/// file) — the crash-point disk image.
void FreezeDir(const std::string& src, const std::string& dst) {
  const std::string snap = src + "/" + SnapshotFileName();
  if (FileExists(snap)) CopyFile(snap, dst + "/" + SnapshotFileName());
  for (const std::string& path : ListWalFiles(src)) {
    CopyFile(path, dst + path.substr(src.size()));
  }
}

TEST(DurableEngineTest, FreshDirectoryOpensEmpty) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto eng = DurableEngine::Open(dir.path(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status();
  EXPECT_FALSE((*eng)->recovery().snapshot_loaded);
  EXPECT_EQ((*eng)->recovery().last_lsn, 0u);
  EXPECT_EQ((*eng)->ReadCommitted(0), 0);
}

TEST(DurableEngineTest, CommittedStateSurvivesReopen) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  {
    auto eng = DurableEngine::Open(dir.path(), FastOptions());
    ASSERT_TRUE(eng.ok()) << eng.status();
    auto t = (*eng)->Begin();
    ASSERT_TRUE(t->Put(1, 10).ok());
    ASSERT_TRUE(t->Apply(2, Update::Add(5)).ok());
    ASSERT_TRUE(t->Commit().ok());
    auto t2 = (*eng)->Begin();
    ASSERT_TRUE(t2->Apply(1, Update::MulAdd(3, 1)).ok());  // 10*3+1 = 31
    ASSERT_TRUE(t2->Commit().ok());
    // No checkpoint, no clean shutdown protocol: reopen must recover
    // everything from the WAL alone.
  }
  auto eng = DurableEngine::Open(dir.path(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status();
  EXPECT_EQ((*eng)->ReadCommitted(1), 31);
  EXPECT_EQ((*eng)->ReadCommitted(2), 5);
  EXPECT_EQ((*eng)->recovery().committed_top, 2u);
  EXPECT_EQ((*eng)->recovery().undone_txns, 0u);
}

TEST(DurableEngineTest, NestedTreesRecoverWithSubtransactionSemantics) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  {
    auto eng = DurableEngine::Open(dir.path(), FastOptions());
    ASSERT_TRUE(eng.ok()) << eng.status();
    auto t = (*eng)->Begin();
    {
      auto c1 = t->BeginChild();
      ASSERT_TRUE(c1.ok());
      ASSERT_TRUE((*c1)->Put(1, 100).ok());
      ASSERT_TRUE((*c1)->Commit().ok());  // merges into parent
    }
    {
      auto c2 = t->BeginChild();
      ASSERT_TRUE(c2.ok());
      ASSERT_TRUE((*c2)->Put(2, 200).ok());
      ASSERT_TRUE((*c2)->Abort().ok());  // discarded
    }
    ASSERT_TRUE(t->Commit().ok());
  }
  auto eng = DurableEngine::Open(dir.path(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status();
  // The committed child's write survives through the parent; the
  // aborted child's does not.
  EXPECT_EQ((*eng)->ReadCommitted(1), 100);
  EXPECT_EQ((*eng)->ReadCommitted(2), 0);
}

TEST(DurableEngineTest, InFlightTreeIsRolledBackOnRecovery) {
  rnt::testing::TempDir dir;
  rnt::testing::TempDir frozen;
  ASSERT_TRUE(dir.ok() && frozen.ok());
  {
    auto eng = DurableEngine::Open(dir.path(), FastOptions());
    ASSERT_TRUE(eng.ok()) << eng.status();
    auto committed = (*eng)->Begin();
    ASSERT_TRUE(committed->Put(1, 7).ok());
    ASSERT_TRUE(committed->Commit().ok());
    auto in_flight = (*eng)->Begin();
    ASSERT_TRUE(in_flight->Put(2, 9).ok());
    auto child = in_flight->BeginChild();
    ASSERT_TRUE(child.ok());
    ASSERT_TRUE((*child)->Put(3, 11).ok());
    // Flush the in-flight records, then freeze: the copy is the disk
    // image of a crash here, before any abort record exists.
    ASSERT_TRUE((*eng)->wal_health().ok());
    FreezeDir(dir.path(), frozen.path());
    ASSERT_TRUE((*child)->Abort().ok());
    ASSERT_TRUE(in_flight->Abort().ok());
  }
  auto eng = DurableEngine::Open(frozen.path(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status();
  EXPECT_EQ((*eng)->ReadCommitted(1), 7);
  EXPECT_EQ((*eng)->ReadCommitted(2), 0);
  EXPECT_EQ((*eng)->ReadCommitted(3), 0);
  EXPECT_EQ((*eng)->recovery().undone_txns, 2u);
}

TEST(DurableEngineTest, RecoveredHistoryPassesTheorem9Checker) {
  rnt::testing::TempDir dir;
  rnt::testing::TempDir frozen;
  ASSERT_TRUE(dir.ok() && frozen.ok());
  {
    auto eng = DurableEngine::Open(dir.path(), FastOptions());
    ASSERT_TRUE(eng.ok()) << eng.status();
    for (int round = 0; round < 3; ++round) {
      auto t = (*eng)->Begin();
      ASSERT_TRUE(t->Apply(0, Update::Add(1)).ok());
      auto c = t->BeginChild();
      ASSERT_TRUE(c.ok());
      ASSERT_TRUE((*c)->Apply(1, Update::MulAdd(2, round)).ok());
      ASSERT_TRUE((*c)->Commit().ok());
      ASSERT_TRUE(t->Commit().ok());
    }
  }
  // Second incarnation: more work on top of the preloaded store, then
  // an in-flight transaction at "crash" (freeze) time.
  {
    auto eng = DurableEngine::Open(dir.path(), FastOptions());
    ASSERT_TRUE(eng.ok()) << eng.status();
    auto t = (*eng)->Begin();
    ASSERT_TRUE(t->Apply(0, Update::Add(10)).ok());
    ASSERT_TRUE(t->Commit().ok());
    auto open_txn = (*eng)->Begin();
    ASSERT_TRUE(open_txn->Put(5, 55).ok());
    ASSERT_TRUE((*eng)->wal_health().ok());
    FreezeDir(dir.path(), frozen.path());
    ASSERT_TRUE(open_txn->Abort().ok());
  }
  auto report = Recover(RecoveryOptions{frozen.path(), {}});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->undone_txns, 1u);
  // The recovered history (initializer txn + durable prefix + synthetic
  // aborts) replays as a valid computation...
  auto replayed = txn::ReplayTrace(report->history);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  // ...accepted by the Theorem 9 checker (read/write lock rules).
  EXPECT_TRUE(aat::IsPermDataSerializableRw(replayed->tree));
  // Value equivalence, independently derived: folding each object's
  // permanent datasteps must reproduce the recovered store.
  const action::ActionTree perm = replayed->tree.Perm();
  for (const auto& [x, v] : report->store) {
    Value folded = action::kInitValue;
    for (ActionId step : perm.Datasteps(x)) {
      folded = perm.registry().UpdateOf(step).Apply(folded);
    }
    EXPECT_EQ(folded, v) << "object " << x;
  }
}

// One OnlineChecker certifies a crash-spanning execution end to end:
// installed as the live extra_sink it sees every event the WAL logs, in
// the same serialization order; re-installed on reopen as history_sink
// + extra_sink it consumes the recovered prefix as recovery assembles
// it and then the new incarnation's events — a single continuous
// Theorem 9 verdict across the restart. The id-continuation contract
// (engine ids resume past the recovered history) is what makes the
// combined stream well-formed.
TEST(DurableEngineTest, OnlineCheckerSpansCrashAndRecovery) {
  rnt::testing::TempDir dir;
  rnt::testing::TempDir frozen;
  ASSERT_TRUE(dir.ok() && frozen.ok());
  txn::OnlineChecker::Options copt;
  copt.mode = txn::OnlineChecker::Mode::kRw;
  copt.gc_window = 16;
  {
    txn::OnlineChecker live(copt);
    DurableEngineOptions opts = FastOptions();
    opts.extra_sink = &live;
    auto eng = DurableEngine::Open(dir.path(), opts);
    ASSERT_TRUE(eng.ok()) << eng.status();
    for (int round = 0; round < 4; ++round) {
      auto t = (*eng)->Begin();
      ASSERT_TRUE(t->Apply(0, Update::Add(1)).ok());
      auto c = t->BeginChild();
      ASSERT_TRUE(c.ok());
      ASSERT_TRUE((*c)->Apply(1, Update::MulAdd(2, round)).ok());
      ASSERT_TRUE((*c)->Commit().ok());
      ASSERT_TRUE(t->Commit().ok());
      // An engine trace is accepted at every prefix, even mid-run.
      EXPECT_EQ(live.Verdict().outcome, txn::OnlineChecker::Outcome::kOk);
    }
    auto open_txn = (*eng)->Begin();
    ASSERT_TRUE(open_txn->Put(5, 55).ok());
    ASSERT_TRUE((*eng)->wal_health().ok());
    FreezeDir(dir.path(), frozen.path());
    EXPECT_EQ(live.Verdict().outcome, txn::OnlineChecker::Outcome::kOk);
    ASSERT_TRUE(open_txn->Abort().ok());
  }
  // Second incarnation over the crash image: the same checker instance
  // certifies recovered prefix + new run as one history.
  txn::OnlineChecker resumed(copt);
  {
    DurableEngineOptions opts = FastOptions();
    opts.history_sink = &resumed;
    opts.extra_sink = &resumed;
    auto eng = DurableEngine::Open(frozen.path(), opts);
    ASSERT_TRUE(eng.ok()) << eng.status();
    EXPECT_EQ((*eng)->recovery().undone_txns, 1u);
    // The recovered prefix has already streamed through and passes.
    const auto after_recovery = resumed.Verdict();
    EXPECT_EQ(after_recovery.outcome, txn::OnlineChecker::Outcome::kOk)
        << after_recovery.detail;
    EXPECT_EQ(resumed.stats().events,
              (*eng)->recovery().history.events.size());
    auto t = (*eng)->Begin();
    ASSERT_TRUE(t->Apply(0, Update::Add(10)).ok());  // continues from 4
    auto c = t->BeginChild();
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Apply(1, Update::Add(-1)).ok());
    ASSERT_TRUE((*c)->Commit().ok());
    ASSERT_TRUE(t->Commit().ok());
    EXPECT_EQ((*eng)->ReadCommitted(0), 14);
  }
  const auto verdict = resumed.Verdict();
  EXPECT_EQ(verdict.outcome, txn::OnlineChecker::Outcome::kOk)
      << verdict.detail;
  // The live tail really streamed through the same checker.
  EXPECT_GT(resumed.stats().events, 0u);
}

TEST(DurableEngineTest, RepeatedRecoveryIsIdempotent) {
  rnt::testing::TempDir dir;
  rnt::testing::TempDir frozen;
  ASSERT_TRUE(dir.ok() && frozen.ok());
  {
    auto eng = DurableEngine::Open(dir.path(), FastOptions());
    ASSERT_TRUE(eng.ok()) << eng.status();
    auto t = (*eng)->Begin();
    ASSERT_TRUE(t->Put(1, 42).ok());
    ASSERT_TRUE(t->Commit().ok());
    auto open_txn = (*eng)->Begin();
    ASSERT_TRUE(open_txn->Put(2, 43).ok());
    ASSERT_TRUE((*eng)->wal_health().ok());
    FreezeDir(dir.path(), frozen.path());
    ASSERT_TRUE(open_txn->Abort().ok());
  }
  // Recover is read-only: run it thrice, identical reports.
  auto r1 = Recover(RecoveryOptions{frozen.path(), {}});
  auto r2 = Recover(RecoveryOptions{frozen.path(), {}});
  auto r3 = Recover(RecoveryOptions{frozen.path(), {}});
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(r1->store, r2->store);
  EXPECT_EQ(r2->store, r3->store);
  EXPECT_EQ(r1->last_lsn, r3->last_lsn);
  EXPECT_EQ(r1->history.events.size(), r3->history.events.size());
  EXPECT_EQ(r1->undone_txns, 1u);
  EXPECT_EQ(r3->undone_txns, 1u);
}

TEST(DurableEngineTest, CheckpointResetsWalAndPreservesState) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  {
    auto eng = DurableEngine::Open(dir.path(), FastOptions());
    ASSERT_TRUE(eng.ok()) << eng.status();
    for (int i = 0; i < 10; ++i) {
      auto t = (*eng)->Begin();
      ASSERT_TRUE(t->Apply(0, Update::Add(1)).ok());
      ASSERT_TRUE(t->Commit().ok());
    }
    ASSERT_TRUE((*eng)->Checkpoint().ok());
    // Post-checkpoint work lands in the reset WAL.
    auto t = (*eng)->Begin();
    ASSERT_TRUE(t->Apply(0, Update::Add(100)).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  auto eng = DurableEngine::Open(dir.path(), FastOptions());
  ASSERT_TRUE(eng.ok()) << eng.status();
  EXPECT_EQ((*eng)->ReadCommitted(0), 110);
  // Only the post-checkpoint transaction was replayed from the log.
  EXPECT_EQ((*eng)->recovery().committed_top, 1u);
  EXPECT_TRUE((*eng)->recovery().snapshot_loaded);
}

}  // namespace
}  // namespace rnt::storage
