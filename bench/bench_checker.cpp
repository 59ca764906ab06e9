// Experiment E4 (DESIGN.md): the value of Theorem 9's cycle-free
// characterization (paper §5.2) — the polynomial checker vs the
// exponential definitional oracle (§3.4), as the action tree grows.
//
// The oracle enumerates sibling permutations (the literal definition of
// serializability); the Theorem 9 checker tests version compatibility
// plus acyclicity of sibling-data. The crossover is brutal: a handful of
// sibling groups already puts the oracle orders of magnitude behind.
//
// Experiment E14 (EXPERIMENTS.md) rides in the same binary behind its
// own flag, so the committed E4 numbers are untouched: --sweep_json=<p>
// (with optional --smoke) skips google-benchmark entirely and emits the
// online-vs-post-hoc sweep as one JSON document — the streaming
// OnlineChecker consuming a generated committed workload event by event
// (O(events) time, flat peak tracked state thanks to windowed GC)
// against the post-hoc pipeline (materialize the trace, ReplayTrace,
// IsPermDataSerializable), whose sibling-edge construction enumerates
// datastep pairs per object and goes superlinear long before the online
// path breaks a sweat. Without the flag the binary is plain
// google-benchmark, so the existing bench-smoke filter still works.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "aat/aat.h"
#include "aat/aat_algebra.h"
#include "action/serializability.h"
#include "algebra/algebra.h"
#include "common/random.h"
#include "txn/online_checker.h"
#include "txn/trace.h"

namespace {

using rnt::ActionId;
using rnt::ObjectId;
using rnt::Rng;

/// Builds a valid Moss execution with `tops` top-level transactions, each
/// with `kids` accesses over `objects` shared objects, by random-running
/// the level-2 algebra to quiescence.
rnt::action::ActionTree MakeTree(int tops, int kids, int objects,
                                 rnt::action::ActionRegistry& reg,
                                 std::uint64_t seed) {
  Rng rng(seed);
  for (int t = 0; t < tops; ++t) {
    ActionId top = reg.NewAction(rnt::kRootAction);
    for (int c = 0; c < kids; ++c) {
      reg.NewAccess(top, static_cast<ObjectId>(rng.Below(objects)),
                    rnt::action::Update::Add(1 + c));
    }
  }
  rnt::aat::AatAlgebra alg(&reg);
  auto run = rnt::algebra::RandomRun(
      alg, [](const rnt::aat::Aat& s) { return rnt::aat::EventCandidates(s); },
      rng, 10 * tops * (kids + 2));
  return run.state;
}

void BM_Theorem9Checker(benchmark::State& state) {
  int tops = static_cast<int>(state.range(0));
  rnt::action::ActionRegistry reg;
  rnt::action::ActionTree tree = MakeTree(tops, 3, 2, reg, 42);
  bool result = false;
  for (auto _ : state) {
    result = rnt::aat::IsDataSerializable(tree);
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = static_cast<double>(tree.size());
  state.counters["serializable"] = result ? 1 : 0;
}

void BM_ExhaustiveOracle(benchmark::State& state) {
  int tops = static_cast<int>(state.range(0));
  rnt::action::ActionRegistry reg;
  rnt::action::ActionTree tree = MakeTree(tops, 3, 2, reg, 42);
  // The oracle decides the same property when constrained by the tree's
  // data order.
  rnt::action::DataOrder order;
  for (ObjectId x : tree.TouchedObjects()) order[x] = tree.Datasteps(x);
  rnt::action::OracleOptions opt;
  opt.data_order = &order;
  bool result = false;
  for (auto _ : state) {
    result = rnt::action::IsSerializable(tree, opt);
    benchmark::DoNotOptimize(result);
  }
  state.counters["vertices"] = static_cast<double>(tree.size());
  state.counters["serializable"] = result ? 1 : 0;
}

void BM_RwChecker(benchmark::State& state) {
  int tops = static_cast<int>(state.range(0));
  rnt::action::ActionRegistry reg;
  rnt::action::ActionTree tree = MakeTree(tops, 3, 2, reg, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rnt::aat::IsDataSerializableRw(tree));
  }
  state.counters["vertices"] = static_cast<double>(tree.size());
}

// The oracle's cost explodes with sibling-group count; cap it where a
// single evaluation still finishes in reasonable time.
BENCHMARK(BM_Theorem9Checker)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Arg(8);
BENCHMARK(BM_ExhaustiveOracle)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6);
BENCHMARK(BM_RwChecker)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------
// E14: the streaming checker vs the post-hoc pipeline.

/// Generates a valid single-mode Moss workload — sequential committed
/// top-level transactions, half of them with one committed child, all
/// writes (Add) over a small shared pool — one event at a time. Small
/// object pool on purpose: every transaction conflicts with every other
/// on some object, which is exactly the regime where the post-hoc
/// per-object pair enumeration hurts and the online spans do not.
class WorkloadGen {
 public:
  explicit WorkloadGen(std::uint64_t seed) : rng_(seed) {}

  static constexpr int kObjects = 4;

  /// Streams one committed transaction tree (4–9 events) into `emit`.
  template <typename Emit>
  void NextTxn(Emit&& emit) {
    using K = rnt::txn::TraceEvent::Kind;
    const std::uint64_t top = next_id_++;
    emit({K::kBegin, top, 0, 0, {}, 0});
    Access(top, emit);
    if (rng_.Chance(0.5)) {
      const std::uint64_t child = next_id_++;
      emit({K::kBegin, child, top, 0, {}, 0});
      Access(child, emit);
      Access(child, emit);
      emit({K::kCommit, child, top, 0, {}, 0});
    }
    Access(top, emit);
    emit({K::kCommit, top, 0, 0, {}, 0});
  }

 private:
  template <typename Emit>
  void Access(std::uint64_t txn, Emit&& emit) {
    const auto x = static_cast<rnt::ObjectId>(rng_.Below(kObjects));
    // Everything commits and execution is sequential, so the running
    // fold per object is exactly the value each access sees.
    const rnt::Value seen = value_[x];
    const auto update = rnt::action::Update::Add(1);
    emit({rnt::txn::TraceEvent::Kind::kPerform, next_id_++, txn, x, update,
          seen});
    value_[x] = update.Apply(seen);
  }

  rnt::Rng rng_;
  std::uint64_t next_id_ = 1;
  rnt::Value value_[kObjects] = {};
};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Process max-RSS high-water mark in KiB (Linux ru_maxrss units). The
/// sweep records the *delta* across each point as an OS-level cross-check
/// of the checker's own `peak_tracked` accounting: the online points must
/// not grow the high-water with event count (their state is windowed),
/// while the post-hoc points materialize O(events) before checking and
/// visibly do. Being a high-water mark, the delta is one-sided — a point
/// cheaper than everything before it reports 0, never a negative.
long MaxRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// One online point: stream ~`events` generated events straight into the
/// checker — nothing is ever materialized, so the only state is the
/// checker's own (the flat `peak_tracked` is the claim under test). The
/// generator thread only stamps and buffers; the checker's consumer
/// thread applies, and the timed region ends after the final Verdict has
/// drained the rest, so events/sec is the rate the checker applies at.
bool OnlinePoint(std::uint64_t events, FILE* out, bool first) {
  rnt::txn::OnlineChecker::Options copt;
  copt.mode = rnt::txn::OnlineChecker::Mode::kSingle;
  copt.gc_window = 256;
  rnt::txn::OnlineChecker checker(copt);
  WorkloadGen gen(/*seed=*/7);
  const long rss0 = MaxRssKb();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t appended = 0;
  while (appended < events) {
    gen.NextTxn([&](const rnt::txn::TraceEvent& e) {
      checker.Append(e);
      ++appended;
    });
  }
  const auto verdict = checker.Verdict();
  const double secs = Seconds(t0);
  const auto stats = checker.stats();
  if (verdict.outcome != rnt::txn::OnlineChecker::Outcome::kOk) {
    std::fprintf(stderr, "online sweep rejected a valid workload: %s\n",
                 verdict.detail.c_str());
    return false;
  }
  std::fprintf(
      out,
      "%s{\"events\":%llu,\"seconds\":%.4f,\"events_per_sec\":%.0f,"
      "\"peak_tracked\":%llu,\"peak_frontier\":%llu,\"backlog_peak\":%llu,"
      "\"live_at_end\":%llu,\"retired\":%llu,"
      "\"gc_sweeps\":%llu,\"max_rss_delta_kb\":%ld,\"max_rss_kb\":%ld}",
      first ? "" : ",", static_cast<unsigned long long>(stats.events), secs,
      secs == 0 ? 0.0 : static_cast<double>(stats.events) / secs,
      static_cast<unsigned long long>(stats.peak_tracked),
      static_cast<unsigned long long>(stats.peak_frontier),
      static_cast<unsigned long long>(stats.backlog_peak),
      static_cast<unsigned long long>(stats.live_vertices),
      static_cast<unsigned long long>(stats.retired_vertices),
      static_cast<unsigned long long>(stats.gc_sweeps), MaxRssKb() - rss0,
      MaxRssKb());
  return true;
}

/// One post-hoc point: materialize the same workload as a trace (memory
/// O(events) before the check even starts), then time ReplayTrace + the
/// batch Theorem 9 checker.
bool PostHocPoint(std::uint64_t events, FILE* out, bool first) {
  // rss0 is captured before materialization on purpose: the O(events)
  // trace + rebuilt tree are the post-hoc pipeline's memory story.
  const long rss0 = MaxRssKb();
  rnt::txn::Trace trace;
  WorkloadGen gen(/*seed=*/7);
  while (trace.events.size() < events) {
    gen.NextTxn(
        [&](const rnt::txn::TraceEvent& e) { trace.events.push_back(e); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto replayed = rnt::txn::ReplayTrace(trace);
  if (!replayed.ok()) {
    std::fprintf(stderr, "post-hoc replay failed: %s\n",
                 replayed.status().ToString().c_str());
    return false;
  }
  const bool ok = rnt::aat::IsPermDataSerializable(replayed->tree);
  const double secs = Seconds(t0);
  if (!ok) {
    std::fprintf(stderr, "post-hoc sweep rejected a valid workload\n");
    return false;
  }
  std::fprintf(
      out,
      "%s{\"events\":%llu,\"seconds\":%.4f,\"events_per_sec\":%.0f,"
      "\"tree_vertices\":%llu,\"max_rss_delta_kb\":%ld,\"max_rss_kb\":%ld}",
      first ? "" : ",", static_cast<unsigned long long>(trace.events.size()),
      secs, secs == 0 ? 0.0 : static_cast<double>(trace.events.size()) / secs,
      static_cast<unsigned long long>(replayed->tree.size()),
      MaxRssKb() - rss0, MaxRssKb());
  return true;
}

int RunSweep(const std::string& path, bool smoke) {
  FILE* out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  // The online path is linear: run it to a million events. The post-hoc
  // path enumerates datastep pairs per object — quadratic with this
  // object pool — so its sweep stops where one evaluation still
  // finishes in seconds; the cap is recorded in the document rather
  // than silently pretending the large sizes were measured.
  const std::vector<std::uint64_t> online_sizes =
      smoke ? std::vector<std::uint64_t>{2000}
            : std::vector<std::uint64_t>{10000, 50000, 200000, 1000000};
  const std::vector<std::uint64_t> posthoc_sizes =
      smoke ? std::vector<std::uint64_t>{2000}
            : std::vector<std::uint64_t>{10000, 20000, 50000};
  std::fprintf(out,
               "{\"bench\":\"checker_online\",\"mode\":\"single\","
               "\"gc_window\":256,\"objects\":%d,"
               "\"posthoc_capped_at\":%llu,\"online\":[",
               WorkloadGen::kObjects,
               static_cast<unsigned long long>(posthoc_sizes.back()));
  bool first = true;
  for (std::uint64_t n : online_sizes) {
    if (!OnlinePoint(n, out, first)) return 1;
    first = false;
  }
  std::fprintf(out, "],\"posthoc\":[");
  first = true;
  for (std::uint64_t n : posthoc_sizes) {
    if (!PostHocPoint(n, out, first)) return 1;
    first = false;
  }
  std::fprintf(out, "]}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): --sweep_json diverts to the
// E14 sweep; anything else flows to google-benchmark unchanged (the
// bench-smoke --benchmark_filter path still works).
int main(int argc, char** argv) {
  std::string sweep_path;
  bool smoke = false;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sweep_json=", 13) == 0) {
      sweep_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (!sweep_path.empty()) return RunSweep(sweep_path, smoke);
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
