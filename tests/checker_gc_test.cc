// GC-boundary property tests for the OnlineChecker: the windowed
// retirement of finalized subtrees must be *invisible* — verdict,
// offending event index, and witness cycle identical across every
// window size (including sweeping after every single event) — while
// actually bounding memory: a long committed chain must run in O(1)
// tracked state no matter how many events stream through.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "action/action_tree.h"
#include "action/registry.h"
#include "aat/aat.h"
#include "common/random.h"
#include "testutil.h"
#include "txn/online_checker.h"
#include "txn/trace.h"

namespace rnt::txn {
namespace {

using action::ActionRegistry;
using action::ActionTree;
using action::Update;

using Mode = OnlineChecker::Mode;
using Outcome = OnlineChecker::Outcome;

constexpr std::uint64_t kWindows[] = {0, 1, 2, 7, 64, 256};

/// Random level-1 trace with a mix of committed, aborted, orphaned and
/// mislabeled subtrees (same shape as the differential suite's
/// generator, kept local so this file stands alone). Children are begun
/// under active and aborted transactions (an aborted one may already be
/// retired, depending on the window); with `committed_parent_prob` per
/// step, a forged kBegin or kPerform names a committed vertex (a
/// transaction, possibly dead or retired, or an access) as its parent.
Trace RandomTrace(std::uint64_t seed, int steps, double bad_label_prob,
                  double committed_parent_prob = 0) {
  Rng rng(seed);
  ActionRegistry reg;
  ActionTree tree(&reg);
  Trace out;
  for (int step = 0; step < steps; ++step) {
    std::vector<ActionId> parents;
    std::vector<ActionId> committable;
    std::vector<ActionId> abortable;
    std::vector<ActionId> committed;
    for (ActionId a : tree.Vertices()) {
      if (!reg.IsAccess(a) && !tree.IsCommitted(a)) {
        if (tree.IsActive(a) || rng.Chance(0.2)) parents.push_back(a);
      }
      if (a != kRootAction && tree.IsCommitted(a)) committed.push_back(a);
      if (a != kRootAction && !reg.IsAccess(a)) {
        if (tree.CanCommit(a)) committable.push_back(a);
        if (tree.CanAbort(a)) abortable.push_back(a);
      }
    }
    if (!committed.empty() && rng.Chance(committed_parent_prob)) {
      // Not applied to the tree: the checker must reject it, at the same
      // event and with the same detail in every window.
      const ActionId parent = committed[rng.Below(committed.size())];
      const ActionId a = reg.NewAction(kRootAction);  // a fresh id only
      if (rng.Chance(0.5)) {
        out.events.push_back({TraceEvent::Kind::kBegin, a, parent, 0, {}, 0});
      } else {
        out.events.push_back(
            {TraceEvent::Kind::kPerform, a, parent, 0, Update::Read(), 0});
      }
      continue;
    }
    const double r = rng.NextDouble();
    if (r < 0.30 && !parents.empty()) {
      ActionId parent = parents[rng.Below(parents.size())];
      ActionId a = reg.NewAction(parent);
      tree.ApplyCreate(a);
      out.events.push_back({TraceEvent::Kind::kBegin, a, parent, 0, {}, 0});
    } else if (r < 0.65 && !parents.empty()) {
      ActionId parent = parents[rng.Below(parents.size())];
      ObjectId x = static_cast<ObjectId>(rng.Below(3));
      Update u = testutil::RandomUpdate(rng, 0.3);
      ActionId a = reg.NewAccess(parent, x, u);
      tree.ApplyCreate(a);
      Value seen = aat::MossValue(tree, a);
      if (rng.Chance(bad_label_prob)) seen = static_cast<Value>(rng.Below(5));
      tree.ApplyPerform(a, seen);
      out.events.push_back({TraceEvent::Kind::kPerform, a, parent, x, u, seen});
    } else if (r < 0.88 && !committable.empty()) {
      ActionId a = committable[rng.Below(committable.size())];
      tree.ApplyCommit(a);
      out.events.push_back(
          {TraceEvent::Kind::kCommit, a, reg.Parent(a), 0, {}, 0});
    } else if (!abortable.empty()) {
      ActionId a = abortable[rng.Below(abortable.size())];
      tree.ApplyAbort(a);
      out.events.push_back(
          {TraceEvent::Kind::kAbort, a, reg.Parent(a), 0, {}, 0});
    }
  }
  return out;
}

OnlineChecker::CheckResult RunWith(const Trace& t, Mode mode,
                                   std::uint64_t gc_window) {
  OnlineChecker::Options opt;
  opt.mode = mode;
  opt.gc_window = gc_window;
  OnlineChecker checker(opt);
  for (const TraceEvent& e : t.events) checker.Append(e);
  return checker.Verdict();
}

TEST(CheckerGcTest, VerdictInvariantAcrossWindowSizes) {
  // Every window size — from "sweep after every event" to "never
  // retire" — must produce byte-identical verdicts on random traces:
  // same outcome, same offending event, same witness cycle.
  int rejected = 0;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    Trace t = RandomTrace(seed, /*steps=*/80, /*bad_label_prob=*/0.12);
    for (Mode mode : {Mode::kSingle, Mode::kRw}) {
      const auto ref = RunWith(t, mode, /*gc_window=*/0);
      if (ref.outcome != Outcome::kOk) ++rejected;
      for (std::uint64_t w : kWindows) {
        const auto v = RunWith(t, mode, w);
        ASSERT_EQ(v.outcome, ref.outcome)
            << "seed " << seed << " window " << w << " mode "
            << static_cast<int>(mode) << ": " << v.detail << " vs "
            << ref.detail;
        ASSERT_EQ(v.event_index, ref.event_index)
            << "seed " << seed << " window " << w;
        ASSERT_EQ(v.transient, ref.transient) << "seed " << seed;
        ASSERT_EQ(v.detail, ref.detail) << "seed " << seed << " window " << w;
        ASSERT_EQ(v.witness, ref.witness)
            << "seed " << seed << " window " << w << ": witness differs";
      }
    }
  }
  // Both branches must be exercised for the invariance to mean much.
  EXPECT_GT(rejected, 30);
  EXPECT_LT(rejected, 1170);
}

TEST(CheckerGcTest, IllegalParentsRejectedAlikeAcrossWindowSizes) {
  // Begins and performs under committed vertices — live, dead, retired
  // or accesses — next to legal ones under aborted (possibly retired)
  // transactions: every window must reject at window 0's event with
  // window 0's detail, and accept what window 0 accepts.
  int illegal = 0;
  for (std::uint64_t seed = 2000; seed < 2200; ++seed) {
    Trace t = RandomTrace(seed, /*steps=*/80, /*bad_label_prob=*/0.05,
                          /*committed_parent_prob=*/0.01);
    for (Mode mode : {Mode::kSingle, Mode::kRw}) {
      const auto ref = RunWith(t, mode, /*gc_window=*/0);
      if (ref.outcome == Outcome::kInvalidTrace) ++illegal;
      for (std::uint64_t w : kWindows) {
        const auto v = RunWith(t, mode, w);
        ASSERT_EQ(v.outcome, ref.outcome)
            << "seed " << seed << " window " << w << ": " << v.detail
            << " vs " << ref.detail;
        ASSERT_EQ(v.event_index, ref.event_index)
            << "seed " << seed << " window " << w;
        ASSERT_EQ(v.detail, ref.detail) << "seed " << seed << " window " << w;
        ASSERT_EQ(v.witness, ref.witness) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(illegal, 40) << "too few illegal parents to mean much";
}

TEST(CheckerGcTest, BeginUnderRetiredCommittedChildOfAbortedParent) {
  // Begin 1, Begin 2 under 1, Commit 2, Abort 1, eight top-level begins
  // (so every window has drained), then Begin 3 under 2. Vertex 2 is
  // committed, so (a1) forbids the begin in every window, whether 2 was
  // retired while live (window 1), tombstoned once dead (window 4), or
  // never retired (window 0).
  for (TraceEvent::Kind last :
       {TraceEvent::Kind::kBegin, TraceEvent::Kind::kPerform}) {
    Trace t;
    t.events.push_back({TraceEvent::Kind::kBegin, 1, 0, 0, {}, 0});
    t.events.push_back({TraceEvent::Kind::kBegin, 2, 1, 0, {}, 0});
    t.events.push_back({TraceEvent::Kind::kCommit, 2, 1, 0, {}, 0});
    t.events.push_back({TraceEvent::Kind::kAbort, 1, 0, 0, {}, 0});
    for (lock::TxnId id = 10; id < 18; ++id) {
      t.events.push_back({TraceEvent::Kind::kBegin, id, 0, 0, {}, 0});
    }
    t.events.push_back({last, 3, 2, 0, Update::Read(), 0});
    const auto ref = RunWith(t, Mode::kSingle, /*gc_window=*/0);
    ASSERT_EQ(ref.outcome, Outcome::kInvalidTrace) << ref.detail;
    ASSERT_EQ(ref.event_index, 12u);
    for (std::uint64_t w : {1, 2, 4, 7, 64, 256}) {
      const auto v = RunWith(t, Mode::kSingle, w);
      EXPECT_EQ(v.outcome, ref.outcome) << "window " << w << ": " << v.detail;
      EXPECT_EQ(v.event_index, ref.event_index) << "window " << w;
      EXPECT_EQ(v.detail, ref.detail) << "window " << w;
    }
  }
}

TEST(CheckerGcTest, PerPrefixVerdictInvariantAtWindowOne) {
  // The strictest setting: sweeping after *every* event must agree with
  // never sweeping at *every* prefix, not just at the end.
  for (std::uint64_t seed = 1000; seed < 1100; ++seed) {
    Trace t = RandomTrace(seed, /*steps=*/60, /*bad_label_prob=*/0.15);
    OnlineChecker::Options eager;
    eager.gc_window = 1;
    OnlineChecker::Options never;
    never.gc_window = 0;
    OnlineChecker a(eager);
    OnlineChecker b(never);
    for (std::size_t k = 0; k < t.events.size(); ++k) {
      a.Append(t.events[k]);
      b.Append(t.events[k]);
      const auto va = a.Verdict();
      const auto vb = b.Verdict();
      ASSERT_EQ(va.outcome, vb.outcome)
          << "seed " << seed << " prefix " << (k + 1) << ": " << va.detail
          << " vs " << vb.detail;
      ASSERT_EQ(va.event_index, vb.event_index)
          << "seed " << seed << " prefix " << (k + 1);
      ASSERT_EQ(va.witness, vb.witness) << "seed " << seed;
    }
  }
}

TEST(CheckerGcTest, LongCommittedChainRunsInFlatMemory) {
  // The memory claim behind the whole design: a run of sequential
  // committed transactions is an O(1) frontier. Stream many of them
  // with a small window and assert the high-water mark of tracked state
  // (live vertices + window slots + edges + tombstones) never grows
  // with the run length.
  constexpr int kTxns = 50000;
  OnlineChecker::Options opt;
  opt.gc_window = 64;
  OnlineChecker checker(opt);
  Value folded = 0;
  for (int t = 0; t < kTxns; ++t) {
    const lock::TxnId id = 1 + static_cast<lock::TxnId>(2 * t);
    checker.Append({TraceEvent::Kind::kBegin, id, 0, 0, {}, 0});
    checker.Append({TraceEvent::Kind::kPerform, id + 1, id, 0,
                    Update::Add(1), folded});
    folded += 1;
    checker.Append({TraceEvent::Kind::kCommit, id, 0, 0, {}, 0});
  }
  const auto v = checker.Verdict();
  ASSERT_EQ(v.outcome, Outcome::kOk) << v.detail;
  const auto s = checker.stats();
  EXPECT_EQ(s.events, static_cast<std::uint64_t>(kTxns) * 3);
  // The frontier is a handful of vertices; the sweep cadence adds at
  // most one window's worth of retirable state. Far below O(run).
  EXPECT_LT(s.peak_tracked, 300u)
      << "tracked state grew with the run: GC is not retiring";
  EXPECT_GT(s.retired_vertices, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(s.tombstones, 0u) << "nothing aborted, nothing to tombstone";
}

TEST(CheckerGcTest, AbortHeavyChainKeepsOnlyTombstones) {
  // Aborted transactions retire down to a single tombstone id each;
  // everything else about them must be reclaimed.
  constexpr int kTxns = 20000;
  OnlineChecker::Options opt;
  opt.gc_window = 32;
  OnlineChecker checker(opt);
  for (int t = 0; t < kTxns; ++t) {
    const lock::TxnId id = 1 + static_cast<lock::TxnId>(2 * t);
    checker.Append({TraceEvent::Kind::kBegin, id, 0, 0, {}, 0});
    checker.Append({TraceEvent::Kind::kPerform, id + 1, id, 0,
                    Update::Write(7), 99});  // orphan: any label is legal
    checker.Append({TraceEvent::Kind::kAbort, id, 0, 0, {}, 0});
  }
  const auto v = checker.Verdict();
  ASSERT_EQ(v.outcome, Outcome::kOk) << v.detail;
  const auto s = checker.stats();
  EXPECT_EQ(s.tombstones, static_cast<std::uint64_t>(kTxns));
  EXPECT_LT(s.live_vertices, 50u);
  EXPECT_LT(s.window_slots, 50u);
  // Peak = frontier + tombstones (one word per aborted txn, by design).
  EXPECT_LT(s.peak_tracked, static_cast<std::uint64_t>(kTxns) + 300u);
}

TEST(CheckerGcTest, WideRootGroupRetiresInOneDrain) {
  // 4096 top-level siblings, all begun before any finishes, then run one
  // at a time over 4 hot objects: each commit adds an edge from the
  // previous committer on its object, so the root group holds four
  // in-degree chains ~1000 long. The window is the whole stream, so the
  // only drain comes after the last commit and must retire everything
  // through RetireChild's cascade: the root alone stays live, and each
  // aborted transaction leaves exactly one tombstone.
  constexpr int kTxns = 4096;
  constexpr int kObjects = 4;
  constexpr int kEventsPerTxn = 3;  // begin, perform, commit/abort
  {
    OnlineChecker::Options opt;
    opt.mode = Mode::kRw;
    opt.gc_window = static_cast<std::uint64_t>(kTxns) * kEventsPerTxn;
    OnlineChecker checker(opt);
    for (int t = 0; t < kTxns; ++t) {
      checker.Append({TraceEvent::Kind::kBegin, 1 + static_cast<lock::TxnId>(t),
                      0, 0, {}, 0});
    }
    Value value[kObjects] = {};
    std::uint64_t aborted = 0;
    for (int t = 0; t < kTxns; ++t) {
      const lock::TxnId id = 1 + static_cast<lock::TxnId>(t);
      const lock::TxnId access = 100000 + static_cast<lock::TxnId>(t);
      const ObjectId x = static_cast<ObjectId>(t % kObjects);
      checker.Append({TraceEvent::Kind::kPerform, access, id, x,
                      Update::Add(1), value[x]});
      if (t % 16 == 15) {
        checker.Append({TraceEvent::Kind::kAbort, id, 0, 0, {}, 0});
        ++aborted;
      } else {
        value[x] += 1;
        checker.Append({TraceEvent::Kind::kCommit, id, 0, 0, {}, 0});
      }
    }
    const auto v = checker.Verdict();
    ASSERT_EQ(v.outcome, Outcome::kOk) << v.detail;
    const auto s = checker.stats();
    EXPECT_EQ(s.gc_sweeps, 1u);
    EXPECT_EQ(s.live_vertices, 1u) << "only the root should survive";
    EXPECT_EQ(s.tombstones, aborted);
    EXPECT_EQ(s.edges, 0u);
    EXPECT_EQ(s.window_slots, 0u);
    EXPECT_EQ(s.retired_vertices, 2u * kTxns);
    EXPECT_GE(s.edges_inserted, static_cast<std::uint64_t>(kTxns - aborted -
                                                           kObjects));
  }
}

TEST(CheckerGcTest, OpenWindowsReturnToZeroOverManyObjects) {
  // Every object ever touched keeps a window (its fold and next
  // position), but only objects with a slot not yet popped count as
  // open. A 100k-transaction stream spread over 65 536 objects, two
  // transactions in flight at a time, must end with no open window.
  constexpr int kTxns = 100000;
  constexpr ObjectId kObjects = 65536;
  OnlineChecker::Options opt;
  opt.gc_window = 64;
  OnlineChecker checker(opt);
  std::vector<Value> value(kObjects, 0);
  std::uint64_t max_open = 0;
  lock::TxnId next = 1;
  for (int t = 0; t < kTxns; t += 2) {
    // Two overlapping transactions on distinct objects; every tenth pair
    // aborts its second transaction.
    const lock::TxnId a = next++, b = next++;
    const ObjectId xa = static_cast<ObjectId>((t * 7919u) % kObjects);
    const ObjectId xb = static_cast<ObjectId>((t * 7919u + 1) % kObjects);
    checker.Append({TraceEvent::Kind::kBegin, a, 0, 0, {}, 0});
    checker.Append({TraceEvent::Kind::kBegin, b, 0, 0, {}, 0});
    checker.Append({TraceEvent::Kind::kPerform, next++, a, xa, Update::Add(1),
                    value[xa]});
    checker.Append({TraceEvent::Kind::kPerform, next++, b, xb, Update::Add(1),
                    value[xb]});
    max_open = std::max(max_open, checker.stats().open_windows);
    checker.Append({TraceEvent::Kind::kCommit, a, 0, 0, {}, 0});
    value[xa] += 1;
    if (t % 20 == 0) {
      checker.Append({TraceEvent::Kind::kAbort, b, 0, 0, {}, 0});
    } else {
      checker.Append({TraceEvent::Kind::kCommit, b, 0, 0, {}, 0});
      value[xb] += 1;
    }
  }
  const auto v = checker.Verdict();
  ASSERT_EQ(v.outcome, Outcome::kOk) << v.detail;
  const auto s = checker.stats();
  EXPECT_EQ(s.open_windows, 0u);
  EXPECT_EQ(s.window_slots, 0u);
  EXPECT_EQ(max_open, 2u);
  EXPECT_LT(s.live_vertices, 300u);
}

TEST(CheckerGcTest, WindowTableCostsAtMost40BytesPerObject) {
  // Every object ever performed on keeps its fold and next position for
  // good. They live in an open-addressing table of 20-byte slots kept
  // 53–80% full, so 64k objects must cost at most 40 bytes each (a node
  // map spent about 58).
  constexpr ObjectId kObjects = 1 << 16;
  OnlineChecker checker;
  lock::TxnId next = 1;
  for (ObjectId x = 0; x < kObjects; ++x) {
    const lock::TxnId t = next++;
    checker.Append({TraceEvent::Kind::kBegin, t, 0, 0, {}, 0});
    checker.Append({TraceEvent::Kind::kPerform, next++, t, x * 5 + 1,
                    Update::Write(x), 0});
    checker.Append({TraceEvent::Kind::kCommit, t, 0, 0, {}, 0});
  }
  const auto v = checker.Verdict();
  ASSERT_EQ(v.outcome, Outcome::kOk) << v.detail;
  const auto s = checker.stats();
  EXPECT_EQ(s.objects, kObjects);
  EXPECT_EQ(s.open_windows, 0u);
  EXPECT_GT(s.window_bytes, 20u * kObjects);
  EXPECT_LE(s.window_bytes, 40u * kObjects);
}

TEST(CheckerGcTest, WitnessSurvivesAggressiveGc) {
  // A cycle whose participants are *recent* must still be caught and
  // witnessed exactly even when everything older has been retired:
  // stream a long clean prefix, then the classic two-transaction
  // interleave.
  for (std::uint64_t w : kWindows) {
    OnlineChecker::Options opt;
    opt.gc_window = w;
    OnlineChecker checker(opt);
    Value folded = 0;
    for (int t = 0; t < 500; ++t) {
      const lock::TxnId id = 10 + static_cast<lock::TxnId>(2 * t);
      checker.Append({TraceEvent::Kind::kBegin, id, 0, 0, {}, 0});
      checker.Append({TraceEvent::Kind::kPerform, id + 1, id, 0,
                      Update::Add(1), folded});
      folded += 1;
      checker.Append({TraceEvent::Kind::kCommit, id, 0, 0, {}, 0});
    }
    const lock::TxnId t1 = 5000, t2 = 5001;
    checker.Append({TraceEvent::Kind::kBegin, t1, 0, 0, {}, 0});
    checker.Append({TraceEvent::Kind::kBegin, t2, 0, 0, {}, 0});
    checker.Append({TraceEvent::Kind::kPerform, 5002, t1, 0,
                    Update::Write(7), folded});
    checker.Append({TraceEvent::Kind::kPerform, 5003, t2, 1,
                    Update::Write(8), 0});
    checker.Append({TraceEvent::Kind::kPerform, 5004, t1, 1,
                    Update::Write(9), 8});
    checker.Append({TraceEvent::Kind::kPerform, 5005, t2, 0,
                    Update::Write(6), 7});
    checker.Append({TraceEvent::Kind::kCommit, t1, 0, 0, {}, 0});
    checker.Append({TraceEvent::Kind::kCommit, t2, 0, 0, {}, 0});
    const auto v = checker.Verdict();
    ASSERT_EQ(v.outcome, Outcome::kNotSerializable)
        << "window " << w << ": " << v.detail;
    EXPECT_FALSE(v.transient);
    ASSERT_EQ(v.witness.size(), 2u) << "window " << w << ": " << v.detail;
    EXPECT_TRUE((v.witness[0] == t1 && v.witness[1] == t2) ||
                (v.witness[0] == t2 && v.witness[1] == t1));
  }
}

}  // namespace
}  // namespace rnt::txn
