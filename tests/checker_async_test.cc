// Hand-off tests for the OnlineChecker's stamped append path. Append only
// stamps and buffers; one drainer at a time applies the events in stamp
// order. So a trace appended from several threads in a fixed global
// order (each append inside an external critical section, as an engine
// does) must get the verdict, rejection index, detail and witness of a
// single-threaded feed. Verdict()/stats() may race with appenders,
// destruction with events still buffered must be clean, and a producer
// that outruns the consumer must keep the backlog bounded by the slot
// cap.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "aat/aat.h"
#include "action/action_tree.h"
#include "action/registry.h"
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

constexpr int kThreads = 4;

/// Random level-1 trace with committed, aborted and orphaned subtrees and
/// forged labels (the GC suite's generator shape, kept local).
Trace RandomTrace(std::uint64_t seed, int steps, double bad_label_prob) {
  Rng rng(seed);
  ActionRegistry reg;
  ActionTree tree(&reg);
  Trace out;
  for (int step = 0; step < steps; ++step) {
    std::vector<ActionId> parents;
    std::vector<ActionId> done_able;
    for (ActionId a : tree.Vertices()) {
      if (!reg.IsAccess(a) && !tree.IsCommitted(a)) {
        if (tree.IsActive(a) || rng.Chance(0.2)) parents.push_back(a);
      }
      if (a != kRootAction && !reg.IsAccess(a) && tree.CanCommit(a)) {
        done_able.push_back(a);
      }
    }
    const double r = rng.NextDouble();
    if (r < 0.3 && !parents.empty()) {
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
    } else if (!done_able.empty()) {
      ActionId a = done_able[rng.Below(done_able.size())];
      const bool commit = rng.Chance(0.75);
      if (commit) {
        tree.ApplyCommit(a);
      } else {
        tree.ApplyAbort(a);
      }
      out.events.push_back({commit ? TraceEvent::Kind::kCommit
                                   : TraceEvent::Kind::kAbort,
                            a, reg.Parent(a), 0, {}, 0});
    }
  }
  return out;
}

/// A long valid trace of sequential top-level transactions (some nested
/// one level) with Moss-correct labels, then two performs swapped when
/// `mutate` is set: a stale label or a sibling cycle, usually.
Trace ChainTrace(std::uint64_t seed, int txns, bool mutate) {
  Rng rng(seed);
  ActionRegistry reg;
  ActionTree tree(&reg);
  Trace out;
  std::vector<std::size_t> performs;
  for (int t = 0; t < txns; ++t) {
    ActionId top = reg.NewAction(kRootAction);
    tree.ApplyCreate(top);
    out.events.push_back({TraceEvent::Kind::kBegin, top, 0, 0, {}, 0});
    const int accesses = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < accesses; ++i) {
      ActionId parent = top;
      if (rng.Chance(0.3)) {
        parent = reg.NewAction(top);
        tree.ApplyCreate(parent);
        out.events.push_back({TraceEvent::Kind::kBegin, parent, top, 0, {}, 0});
      }
      ObjectId x = static_cast<ObjectId>(rng.Below(4));
      Update u = testutil::RandomUpdate(rng, 0.25);
      ActionId a = reg.NewAccess(parent, x, u);
      tree.ApplyCreate(a);
      Value seen = aat::MossValue(tree, a);
      tree.ApplyPerform(a, seen);
      performs.push_back(out.events.size());
      out.events.push_back({TraceEvent::Kind::kPerform, a, parent, x, u, seen});
      if (parent != top) {
        tree.ApplyCommit(parent);
        out.events.push_back({TraceEvent::Kind::kCommit, parent, top, 0, {}, 0});
      }
    }
    tree.ApplyCommit(top);
    out.events.push_back({TraceEvent::Kind::kCommit, top, 0, 0, {}, 0});
  }
  if (mutate && performs.size() >= 2) {
    const std::size_t i = performs[rng.Below(performs.size())];
    const std::size_t j = performs[rng.Below(performs.size())];
    std::swap(out.events[i].seen, out.events[j].seen);
  }
  return out;
}

OnlineChecker::Options Opts(Mode mode) {
  OnlineChecker::Options opt;
  opt.mode = mode;
  opt.gc_window = 16;
  return opt;
}

/// Appends `t` from kThreads threads in its own order: event k is
/// appended by a seeded owner thread once event k - 1 is in, inside an
/// external critical section (the engine's serializing section). Owners
/// hold short random runs of events, as engine threads do.
void FeedFromThreads(OnlineChecker& checker, const Trace& t,
                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::size_t>> owned(kThreads);
  std::size_t owner = 0;
  for (std::size_t k = 0; k < t.events.size(); ++k) {
    if (rng.Chance(0.35)) owner = rng.Below(kThreads);
    owned[owner].push_back(k);
  }
  std::mutex section;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int me = 0; me < kThreads; ++me) {
    threads.emplace_back([&, me] {
      for (std::size_t k : owned[me]) {
        while (next.load(std::memory_order_acquire) != k) {
          std::this_thread::yield();
        }
        std::lock_guard<std::mutex> l(section);
        checker.Append(t.events[k]);
        next.store(k + 1, std::memory_order_release);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

void ExpectSameAsSingleThreaded(const Trace& t, Mode mode,
                                std::uint64_t seed, int* rejected) {
  OnlineChecker single(Opts(mode));
  for (const TraceEvent& e : t.events) single.Append(e);
  const auto ref = single.Verdict();
  OnlineChecker multi(Opts(mode));
  FeedFromThreads(multi, t, seed);
  const auto v = multi.Verdict();
  if (ref.outcome != Outcome::kOk) ++*rejected;
  ASSERT_EQ(v.outcome, ref.outcome)
      << "seed " << seed << ": " << v.detail << " vs " << ref.detail;
  ASSERT_EQ(v.event_index, ref.event_index) << "seed " << seed;
  ASSERT_EQ(v.transient, ref.transient) << "seed " << seed;
  ASSERT_EQ(v.detail, ref.detail) << "seed " << seed;
  ASSERT_EQ(v.witness, ref.witness) << "seed " << seed;
  ASSERT_EQ(multi.stats().events, t.events.size()) << "seed " << seed;
}

TEST(CheckerAsyncTest, FourThreadsMatchSingleThreadedFeed) {
  // Short forged traces stay below the consumer's start backlog, so the
  // final Verdict merges four buffered runs on the calling thread; long
  // mutated chains start the consumer thread part way through.
  int rejected = 0;
  int cases = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const Mode mode = seed % 2 == 0 ? Mode::kSingle : Mode::kRw;
    ExpectSameAsSingleThreaded(RandomTrace(seed, 90, 0.1), mode, seed,
                               &rejected);
    ExpectSameAsSingleThreaded(ChainTrace(seed, 300, seed % 3 != 0), mode,
                               seed + 1000, &rejected);
    cases += 2;
  }
  // Both verdict branches must be exercised for the equality to mean much.
  EXPECT_GT(rejected, cases / 4);
  EXPECT_LT(rejected, cases);
}

TEST(CheckerAsyncTest, VerdictAndStatsRaceWithAppenders) {
  // Every prefix of a valid trace is valid, so a reader polling while
  // three threads append must only ever see kOk and a growing count.
  const Trace t = ChainTrace(/*seed=*/7, /*txns=*/600, /*mutate=*/false);
  OnlineChecker checker(Opts(Mode::kRw));
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto v = checker.Verdict();
      EXPECT_EQ(v.outcome, Outcome::kOk) << v.detail;
      const auto s = checker.stats();
      EXPECT_GE(s.events, last);
      last = s.events;
    }
  });
  std::mutex section;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> appenders;
  for (int me = 0; me < 3; ++me) {
    appenders.emplace_back([&, me] {
      for (std::size_t k = static_cast<std::size_t>(me); k < t.events.size();
           k += 3) {
        while (next.load(std::memory_order_acquire) != k) {
          std::this_thread::yield();
        }
        std::lock_guard<std::mutex> l(section);
        checker.Append(t.events[k]);
        next.store(k + 1, std::memory_order_release);
      }
    });
  }
  for (std::thread& th : appenders) th.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(checker.Verdict().outcome, Outcome::kOk);
  EXPECT_EQ(checker.stats().events, t.events.size());
}

TEST(CheckerAsyncTest, DestroysWithUndrainedEventsAndWithoutConsumer) {
  const Trace t = ChainTrace(/*seed=*/3, /*txns=*/800, /*mutate=*/false);
  {
    // Far past the start backlog: the consumer is running, and most
    // events are still buffered or mid-drain when the checker dies.
    OnlineChecker checker(Opts(Mode::kSingle));
    for (const TraceEvent& e : t.events) checker.Append(e);
  }
  {
    // A few events only: no consumer thread was ever started.
    OnlineChecker checker(Opts(Mode::kSingle));
    for (std::size_t k = 0; k < 10; ++k) checker.Append(t.events[k]);
  }
  {
    // The consumer started, drained everything and sleeps.
    OnlineChecker checker(Opts(Mode::kSingle));
    for (const TraceEvent& e : t.events) checker.Append(e);
    EXPECT_EQ(checker.Verdict().outcome, Outcome::kOk);
  }
  // Nothing appended at all.
  OnlineChecker idle;
}

TEST(CheckerAsyncTest, BacklogStaysBoundedWhenProducersOutrunConsumer) {
  // Two producers stream disjoint top-level transactions on their own
  // objects as fast as they can; pushing is far cheaper than applying,
  // so only the slot cap (a full slot is drained by its appender) keeps
  // the backlog from growing with the run.
  constexpr int kTxnsPerProducer = 20000;
  OnlineChecker checker(Opts(Mode::kSingle));
  auto producer = [&checker](lock::TxnId base, ObjectId x) {
    Value seen = 0;
    for (int i = 0; i < kTxnsPerProducer; ++i) {
      const lock::TxnId id = base + static_cast<lock::TxnId>(2 * i);
      checker.Append({TraceEvent::Kind::kBegin, id, 0, 0, {}, 0});
      checker.Append(
          {TraceEvent::Kind::kPerform, id + 1, id, x, Update::Add(1), seen});
      checker.Append({TraceEvent::Kind::kCommit, id, 0, 0, {}, 0});
      ++seen;
    }
  };
  std::thread a(producer, 1, 0);
  std::thread b(producer, 1000000, 1);
  a.join();
  b.join();
  const auto v = checker.Verdict();
  ASSERT_EQ(v.outcome, Outcome::kOk) << v.detail;
  const auto s = checker.stats();
  EXPECT_EQ(s.events, 2u * 3 * kTxnsPerProducer);
  EXPECT_GT(s.backlog_peak, 0u);
  EXPECT_LE(s.backlog_peak,
            OnlineChecker::kSlotCap * OnlineChecker::kAppendSlots);
}

}  // namespace
}  // namespace rnt::txn
