// Experiment E1 (DESIGN.md): "nesting allows more concurrency than a
// single-level transaction structure" (paper §1).
//
// Throughput of the mixed nested workload vs worker count, on the nested
// Moss engine and the flat strict-2PL baseline, under uniform and
// Zipf-skewed access. Simulated per-access work makes lock *hold time*
// the contended resource; the nested engine's subtransaction commits
// release conflicts earlier (locks pass to the parent, and sibling work
// can interleave), so its throughput should degrade more slowly with
// workers and skew than the flat baseline's.
//
// Experiment E11 (EXPERIMENTS.md): `--sweep_json` runs a thread-count
// sweep (1/2/4/8 workers) of the engine at its default 16 shards
// against the same engine at one shard (the coarse-grained ablation) and
// emits one JSON document on stdout, in the style of bench_faults, so
// the scalability trajectory is tracked:
//   {"bench":"concurrency","txns_per_worker":...,"trajectory":[{...}]}

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "baseline/flat_engine.h"
#include "txn/transaction_manager.h"
#include "workload/workload.h"

namespace {

using rnt::workload::Params;
using rnt::workload::Result;
using rnt::workload::RunMixed;
using rnt::txn::TransactionManager;

Params MakeParams(double theta) {
  Params p;
  p.num_objects = 48;
  p.zipf_theta = theta;
  p.children_per_txn = 4;
  p.accesses_per_child = 2;
  p.read_fraction = 0.5;
  p.work_ns_per_access = 200000;  // 200us of simulated I/O per access
  return p;
}

constexpr int kTxnsPerWorker = 40;

void Report(benchmark::State& state, const Result& total,
            std::uint64_t runs) {
  state.counters["txn_per_s"] = benchmark::Counter(
      static_cast<double>(total.committed), benchmark::Counter::kIsRate);
  state.counters["attempts_per_commit"] =
      total.committed == 0
          ? 0.0
          : static_cast<double>(total.txn_attempts) / total.committed;
  state.counters["failed"] =
      static_cast<double>(total.failed) / static_cast<double>(runs);
}

void BM_Nested(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  double theta = static_cast<double>(state.range(1)) / 100.0;
  Params p = MakeParams(theta);
  Result total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    TransactionManager engine;
    total.MergeFrom(RunMixed(engine, p, workers, kTxnsPerWorker, 17));
    ++runs;
  }
  Report(state, total, runs);
}

void BM_NestedParallel(benchmark::State& state) {
  // The paper's headline: subtransactions of one transaction overlap
  // safely, because the nesting discipline serializes siblings. A flat
  // transaction cannot parallelize its steps without losing isolation
  // and partial rollback, so there is no flat-parallel baseline.
  int workers = static_cast<int>(state.range(0));
  double theta = static_cast<double>(state.range(1)) / 100.0;
  Params p = MakeParams(theta);
  p.parallel_children = true;
  Result total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    TransactionManager engine;
    total.MergeFrom(RunMixed(engine, p, workers, kTxnsPerWorker, 17));
    ++runs;
  }
  Report(state, total, runs);
}

void BM_Flat(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  double theta = static_cast<double>(state.range(1)) / 100.0;
  Params p = MakeParams(theta);
  Result total;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    rnt::baseline::FlatEngine engine;
    total.MergeFrom(RunMixed(engine, p, workers, kTxnsPerWorker, 17));
    ++runs;
  }
  Report(state, total, runs);
}

void ConcurrencyArgs(benchmark::internal::Benchmark* b) {
  for (int theta : {0, 90}) {
    for (int workers : {1, 2, 4, 8}) {
      b->Args({workers, theta});
    }
  }
}

BENCHMARK(BM_Nested)
    ->Apply(ConcurrencyArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.3);
BENCHMARK(BM_NestedParallel)
    ->Apply(ConcurrencyArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.3);
BENCHMARK(BM_Flat)
    ->Apply(ConcurrencyArgs)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.3);

// ---------------------------------------------------------------------
// E11: thread-count sweep, 16 shards vs 1 shard, JSON on stdout.

struct SweepPoint {
  double txn_per_s = 0;
  double attempts_per_commit = 0;
  std::uint64_t committed = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t deadlock_aborts = 0;
  std::uint64_t timeout_aborts = 0;
};

SweepPoint RunSweepCell(std::uint32_t shards, const Params& p, int workers,
                        int seeds) {
  SweepPoint pt;
  Result total;
  double elapsed = 0;
  TransactionManager::Options opt;
  opt.shards = shards;
  for (int s = 0; s < seeds; ++s) {
    TransactionManager engine(opt);
    const auto t0 = std::chrono::steady_clock::now();
    total.MergeFrom(
        RunMixed(engine, p, workers, kTxnsPerWorker, 17 + 1000u * s));
    elapsed += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
    const auto stats = engine.stats();
    pt.lock_waits += stats.lock_waits;
    pt.deadlock_aborts += stats.deadlock_aborts;
    pt.timeout_aborts += stats.timeout_aborts;
  }
  pt.committed = total.committed;
  pt.txn_per_s =
      elapsed > 0 ? static_cast<double>(total.committed) / elapsed : 0;
  pt.attempts_per_commit =
      total.committed == 0
          ? 0.0
          : static_cast<double>(total.txn_attempts) / total.committed;
  return pt;
}

int RunSweepJson() {
  constexpr int kSeeds = 5;
  const int kWorkers[] = {1, 2, 4, 8};
  struct Arm {
    const char* name;
    double theta;
  };
  const Arm kArms[] = {{"low", 0.0}, {"high", 0.9}};
  const std::uint32_t kShards[] = {16, 1};

  std::printf("{\"bench\":\"concurrency\",\"txns_per_worker\":%d,"
              "\"seeds\":%d,\"objects\":48,\"work_us_per_access\":200,",
              kTxnsPerWorker, kSeeds);
  std::printf("\"trajectory\":[");
  double at8[2][2] = {{0, 0}, {0, 0}};  // [arm][shards] txn/s at 8 workers
  bool first = true;
  for (int a = 0; a < 2; ++a) {
    const Params p = MakeParams(kArms[a].theta);
    for (int e = 0; e < 2; ++e) {
      for (int workers : kWorkers) {
        const SweepPoint pt = RunSweepCell(kShards[e], p, workers, kSeeds);
        if (workers == 8) at8[a][e] = pt.txn_per_s;
        std::printf(
            "%s{\"contention\":\"%s\",\"shards\":%u,\"threads\":%d,"
            "\"txn_per_s\":%.1f,\"committed\":%llu,"
            "\"attempts_per_commit\":%.3f,\"lock_waits\":%llu,"
            "\"deadlock_aborts\":%llu,\"timeout_aborts\":%llu}",
            first ? "" : ",", kArms[a].name, kShards[e], workers,
            pt.txn_per_s, static_cast<unsigned long long>(pt.committed),
            pt.attempts_per_commit,
            static_cast<unsigned long long>(pt.lock_waits),
            static_cast<unsigned long long>(pt.deadlock_aborts),
            static_cast<unsigned long long>(pt.timeout_aborts));
        first = false;
        std::fflush(stdout);
      }
    }
  }
  std::printf("],\"speedup_at_8_threads\":{");
  std::printf("\"low\":%.2f,\"high\":%.2f}}\n",
              at8[0][1] > 0 ? at8[0][0] / at8[0][1] : 0.0,
              at8[1][1] > 0 ? at8[1][0] / at8[1][1] : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sweep_json") {
      sweep = true;
    } else {
      argv[out++] = argv[i];  // leave the rest for google-benchmark
    }
  }
  argc = out;
  if (sweep) return RunSweepJson();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
