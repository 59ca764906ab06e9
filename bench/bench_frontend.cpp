// Experiment E15 (EXPERIMENTS.md): the batched-operations front end —
// what batching buys a fleet of request-response clients over submitting
// the same op stream one op at a time, across batch size x client count
// x shard count (the default 16, and 1 as the coarse-grained ablation).
//
// Every cell runs the identical seeded workload (transaction boundaries
// and op streams are a pure function of the seed — batch_size only
// changes submission granularity), so the batch-size axis isolates the
// amortized costs: the client/worker round trip, the queue hop, and the
// engine's per-op locking (FindRec, per-op shard-lock acquisition, the
// ancestor-chain critical section).
//
// Each cell is run twice:
//  * a timed pass with no trace sink — the throughput number (the live
//    checker costs ~2-3us/op inside the engine's serializing section,
//    which would floor every cell at the checker's own speed and hide
//    exactly the per-op overhead this sweep measures);
//  * a certification pass with a live txn::OnlineChecker mounted as the
//    engine's trace sink — same seed, same submission stream. Its
//    verdict must be kOk for the cell's numbers to be emitted at all,
//    and its own throughput is reported alongside (checked_ops_per_sec),
//    so the checker's cost is data, not a footnote.
// A separate oracle section spot-checks batched against one-op-at-a-time
// and against per-op serial execution of the same workload on fresh
// engines: identical committed stores, or the sweep exits nonzero.
//
// Wall-clock timing lives here (bench/ is outside the deterministic
// lint layer); src/frontend itself has no clocks.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "frontend/fleet.h"
#include "txn/online_checker.h"
#include "txn/transaction_manager.h"

namespace {

using rnt::frontend::AsyncFrontend;
using rnt::frontend::FleetOptions;
using rnt::frontend::FleetReport;
using rnt::frontend::RunFleet;
using rnt::txn::OnlineChecker;
using rnt::txn::TransactionManager;

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Fleet shape shared by every sweep cell; only batch size, client
/// count, and shard count vary.
FleetOptions BaseFleet(bool smoke) {
  FleetOptions f;
  f.rounds = smoke ? 2 : 8;
  f.txn_ops = 64;
  f.objects_per_client = 256;
  f.write_fraction = 0.5;
  f.nested_fraction = 0.2;
  f.abort_fraction = 0.1;
  f.seed = 99;
  f.workers = 1;
  f.queue_capacity = 64;
  return f;
}

/// One fleet execution; returns ops/sec via *ops_per_sec.
FleetReport TimeFleet(TransactionManager& engine, const FleetOptions& f,
                      double* ops_per_sec) {
  const auto t0 = std::chrono::steady_clock::now();
  const FleetReport r = RunFleet(const_cast<TransactionManager*>(&engine), f);
  const double secs = Seconds(t0);
  *ops_per_sec = secs == 0 ? 0.0 : static_cast<double>(r.ops) / secs;
  return r;
}

/// One sweep cell: timed pass (no sink) + certification pass (live
/// checker). Emits one JSON object; fails the sweep on any checker
/// rejection.
bool SweepCell(std::uint32_t shards, std::uint64_t clients,
               std::uint64_t batch, bool smoke, FILE* out, bool first,
               double* ops_per_sec) {
  FleetOptions f = BaseFleet(smoke);
  f.clients = clients;
  f.batch_size = batch;

  TransactionManager::Options topt;
  topt.shards = shards;
  TransactionManager engine(topt);
  const FleetReport timed = TimeFleet(engine, f, ops_per_sec);

  // Certification twin: identical submission stream (same seed), fresh
  // engine, live rw-mode checker mounted in the engine's trace path.
  OnlineChecker::Options copt;
  copt.mode = OnlineChecker::Mode::kRw;
  OnlineChecker checker(copt);
  TransactionManager::Options ctopt;
  ctopt.shards = shards;
  ctopt.trace_sink = &checker;
  TransactionManager checked_engine(ctopt);
  double checked_ops = 0;
  const FleetReport certified = TimeFleet(checked_engine, f, &checked_ops);
  const auto verdict = checker.Verdict();
  if (verdict.outcome != OnlineChecker::Outcome::kOk) {
    std::fprintf(stderr,
                 "E15 sweep: live checker rejected %u shards/%llu "
                 "clients/batch %llu: %s\n",
                 shards, static_cast<unsigned long long>(clients),
                 static_cast<unsigned long long>(batch),
                 verdict.detail.c_str());
    return false;
  }
  if (certified.ops != timed.ops || certified.failed_ops != timed.failed_ops) {
    std::fprintf(stderr,
                 "E15 sweep: certification twin diverged from timed run "
                 "(%llu/%llu ops, %llu/%llu failed)\n",
                 static_cast<unsigned long long>(certified.ops),
                 static_cast<unsigned long long>(timed.ops),
                 static_cast<unsigned long long>(certified.failed_ops),
                 static_cast<unsigned long long>(timed.failed_ops));
    return false;
  }
  std::fprintf(
      out,
      "%s{\"shards\":%u,\"clients\":%llu,\"batch\":%llu,"
      "\"ops\":%llu,\"ops_per_sec\":%.0f,\"ok_ops\":%llu,"
      "\"failed_ops\":%llu,\"batches\":%llu,\"backpressure_waits\":%llu,"
      "\"checked_ops_per_sec\":%.0f,\"checker_events\":%llu,"
      "\"checker\":\"ok\"}",
      first ? "" : ",", shards, static_cast<unsigned long long>(clients),
      static_cast<unsigned long long>(batch),
      static_cast<unsigned long long>(timed.ops), *ops_per_sec,
      static_cast<unsigned long long>(timed.ok_ops),
      static_cast<unsigned long long>(timed.failed_ops),
      static_cast<unsigned long long>(timed.batches),
      static_cast<unsigned long long>(timed.frontend.backpressure_waits),
      checked_ops,
      static_cast<unsigned long long>(checker.stats().events));
  return true;
}

/// Oracle spot check: the same seeded workload, synchronously (no async
/// front end, no client threads — fully deterministic), three ways:
/// batched at `batch`, one-op-at-a-time (batch 1), and per-op serial
/// engine calls. All three must commit identical stores with identical
/// per-op success counts — any divergence is a batching bug, not noise.
bool OraclePoint(std::uint32_t shards, std::uint64_t batch, bool smoke,
                 FILE* out, bool first) {
  struct Variant {
    std::uint64_t batch;
    AsyncFrontend::SubmitMode submit;
  };
  const Variant variants[3] = {
      {batch, AsyncFrontend::SubmitMode::kBatched},
      {1, AsyncFrontend::SubmitMode::kBatched},
      {batch, AsyncFrontend::SubmitMode::kSerial},
  };
  std::map<rnt::ObjectId, rnt::Value> dumps[3];
  std::uint64_t ok_ops[3] = {0, 0, 0};
  for (int pass = 0; pass < 3; ++pass) {
    OnlineChecker checker(
        OnlineChecker::Options{OnlineChecker::Mode::kRw, 256});
    TransactionManager::Options topt;
    topt.shards = shards;
    topt.trace_sink = &checker;
    TransactionManager engine(topt);
    FleetOptions f = BaseFleet(smoke);
    f.clients = 8;
    f.batch_size = variants[pass].batch;
    f.mode = variants[pass].submit;
    f.async = false;
    const FleetReport r = RunFleet(&engine, f);
    if (checker.Verdict().outcome != OnlineChecker::Outcome::kOk) {
      std::fprintf(stderr, "E15 oracle: checker rejected pass %d\n", pass);
      return false;
    }
    dumps[pass] = engine.DumpCommitted();
    ok_ops[pass] = r.ok_ops;
  }
  const bool match = dumps[0] == dumps[1] && dumps[0] == dumps[2] &&
                     ok_ops[0] == ok_ops[1] && ok_ops[0] == ok_ops[2];
  if (!match) {
    std::fprintf(stderr,
                 "E15 oracle: batched / one-op / serial committed stores "
                 "diverge (%u shards, batch %llu)\n",
                 shards, static_cast<unsigned long long>(batch));
  }
  std::fprintf(out,
               "%s{\"shards\":%u,\"batch\":%llu,\"objects_compared\":%zu,"
               "\"ok_ops\":%llu,\"match\":%s}",
               first ? "" : ",", shards,
               static_cast<unsigned long long>(batch), dumps[0].size(),
               static_cast<unsigned long long>(ok_ops[0]),
               match ? "true" : "false");
  return match;
}

int RunSweep(const std::string& path, bool smoke) {
  FILE* out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  const std::vector<std::uint64_t> clients =
      smoke ? std::vector<std::uint64_t>{16}
            : std::vector<std::uint64_t>{64, 256, 2048};
  const std::vector<std::uint64_t> batches =
      smoke ? std::vector<std::uint64_t>{1, 64}
            : std::vector<std::uint64_t>{1, 4, 16, 64, 256};
  const std::uint32_t shard_counts[] = {16, 1};
  FleetOptions base = BaseFleet(smoke);
  std::fprintf(out,
               "{\"bench\":\"frontend\",\"rounds\":%llu,\"txn_ops\":%llu,"
               "\"objects_per_client\":%llu,\"write_fraction\":%.2f,"
               "\"nested_fraction\":%.2f,\"workers\":%zu,"
               "\"note\":\"single-core container: speedup is per-op "
               "submission + locking overhead amortized by batching, not "
               "parallelism; clients are request-response threads on "
               "disjoint key ranges; ops_per_sec is the unchecked timed "
               "pass, checked_ops_per_sec the certification twin with the "
               "live rw OnlineChecker mounted\",\"sweep\":[",
               static_cast<unsigned long long>(base.rounds),
               static_cast<unsigned long long>(base.txn_ops),
               static_cast<unsigned long long>(base.objects_per_client),
               base.write_fraction, base.nested_fraction, base.workers);
  // The headline: ops/s at batch >= 64 vs batch == 1 (one-op-at-a-time)
  // at 16 shards, best cell per side.
  double sharded_batched64 = 0, sharded_oneop = 0;
  bool first = true;
  for (std::uint32_t shards : shard_counts) {
    for (std::uint64_t c : clients) {
      for (std::uint64_t b : batches) {
        double ops = 0;
        if (!SweepCell(shards, c, b, smoke, out, first, &ops)) return 1;
        first = false;
        if (shards == 16) {
          if (b >= 64 && ops > sharded_batched64) sharded_batched64 = ops;
          if (b == 1 && ops > sharded_oneop) sharded_oneop = ops;
        }
      }
    }
  }
  std::fprintf(out, "],\"oracle\":[");
  first = true;
  for (std::uint32_t shards : shard_counts) {
    for (std::uint64_t b : smoke ? std::vector<std::uint64_t>{64}
                                 : std::vector<std::uint64_t>{16, 64, 256}) {
      if (!OraclePoint(shards, b, smoke, out, first)) return 1;
      first = false;
    }
  }
  const double speedup =
      sharded_oneop == 0 ? 0 : sharded_batched64 / sharded_oneop;
  std::fprintf(out, "],\"sharded_batch64_vs_oneop_speedup\":%.2f}\n", speedup);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sweep_path = "-";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sweep_json=", 13) == 0) {
      sweep_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown arg %s\n", argv[i]);
      return 2;
    }
  }
  return RunSweep(sweep_path, smoke);
}
