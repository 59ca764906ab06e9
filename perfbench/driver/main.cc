// perfbench_driver: the repository benchmark's measuring program.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (durable_oltp, contended_certified, bsim_processes)
// from the working directory, which must be the checkout root (scratch
// files go under .bench_build/run/). Prints one info line of run facts,
// then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, with layers a workload does not reach reported
// as 0. Exit code 1 when a correctness gate fails, 2 on bad arguments.

#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "stats.h"
#include "storage/file_io.h"
#include "timing.h"

namespace perfbench {

namespace {

/// The end-to-end metrics every workload reports with --trace 0. Their
/// per-workload meaning is documented in perfbench/README.md.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_tail_us", "us"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics every workload reports with --trace 1.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"gen.lag_p99_us", "us"},
    {"gen.offered_per_s", "1/s"},
    {"gen.retries", "count"},
    {"gen.latency_samples", "count"},
    {"gen.commit_p99_us", "us"},
    {"frontend.submit_us_p99", "us"},
    {"frontend.queue_wait_us_p50", "us"},
    {"frontend.queue_wait_us_p99", "us"},
    {"frontend.exec_us_p50", "us"},
    {"frontend.exec_us_p99", "us"},
    {"frontend.backpressure_waits", "count"},
    {"txn.access_us_p50", "us"},
    {"txn.access_us_p99", "us"},
    {"txn.begin_us_p50", "us"},
    {"txn.child_commit_us_p50", "us"},
    {"txn.top_commit_us_p50", "us"},
    {"txn.top_commit_us_p99", "us"},
    {"txn.abort_us_p50", "us"},
    {"txn.lock_waits_per_txn", "ratio"},
    {"txn.deadlock_aborts", "count"},
    {"txn.timeout_aborts", "count"},
    {"txn.cascade_aborts", "count"},
    {"storage.barrier_wait_us_p50", "us"},
    {"storage.barrier_wait_us_p99", "us"},
    {"storage.records_per_flush", "ratio"},
    {"storage.commits_per_flush", "ratio"},
    {"storage.records_per_commit", "ratio"},
    {"storage.wal_bytes_per_commit", "B"},
    {"storage.fdatasync_us_p50", "us"},
    {"storage.recover_s", "s"},
    {"checker.append_us_p50", "us"},
    {"checker.append_us_p99", "us"},
    {"checker.busy_share", "ratio"},
    {"checker.events_per_txn", "ratio"},
    {"checker.peak_tracked", "count"},
    {"sim.process_overhead_ms", "ms"},
    {"sim.spawn_exit_ms", "ms"},
    {"sim.hub_start_ms", "ms"},
    {"sim.frames_per_program", "ratio"},
    {"sim.messages_per_program", "ratio"},
    {"sim.retries_per_program", "ratio"},
    {"sim.reconnects", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + Quote(m.name) + ": {\"value\": " +
           Number(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

/// Orders the workload's metrics by the declared list, fills a layer the
/// workload does not reach with 0, and reports a metric the workload
/// should have produced but did not (a driver bug) as a gate failure.
std::vector<Metric> Canonical(
    const std::vector<std::pair<std::string, std::string>>& declared,
    bool zero_fill, Report* report) {
  std::map<std::string, Metric> have;
  for (const Metric& m : report->metrics) have[m.name] = m;
  std::vector<Metric> out;
  for (const auto& [name, unit] : declared) {
    auto it = have.find(name);
    if (it != have.end()) {
      out.push_back(Metric{name, it->second.value, unit});
      have.erase(it);
    } else if (zero_fill) {
      out.push_back(Metric{name, 0, unit});
    } else {
      report->Fail("driver produced no value for " + name);
      out.push_back(Metric{name, 0, unit});
    }
  }
  for (const auto& [name, m] : have) {
    report->Fail("driver produced undeclared metric " + name);
  }
  return out;
}

const char* FsName(long magic) {
  switch (static_cast<unsigned long>(magic)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x6969:
      return "nfs";
    default:
      return "other";
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload durable_oltp|contended_certified|"
               "bsim_processes --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a driver started by a Python parent would report the
  // parent's footprint whenever it is larger than its own.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double FdatasyncProbeUsP50(const std::string& dir) {
  const std::string path = dir + "/fdatasync.probe";
  auto fd = rnt::storage::OpenForAppend(path, /*truncate=*/true);
  if (!fd.ok()) return 0;
  // One WAL-sized append + data sync per round, as a group commit does.
  const std::string block(512, 'p');
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t t0 = NowNs();
    if (!rnt::storage::WriteAll(*fd, block.data(), block.size(), path).ok() ||
        !rnt::storage::SyncData(*fd, path).ok()) {
      break;
    }
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  ::close(*fd);
  (void)rnt::storage::RemoveFile(path);
  return Select(us, 0.5).value;
}

void AddHostFacts(const RunContext& ctx, Report* report) {
  report->Info("host.nproc", static_cast<double>(std::thread::hardware_concurrency()),
               "count");
  report->Info("host.fdatasync_us_p50", FdatasyncProbeUsP50(ctx.dir), "us");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(ctx.seconds > 0)) return Usage(argv[0]);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage(argv[0]);
      ctx.trace = value == "1";
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || argc % 2 == 0) return Usage(argv[0]);

  ctx.dir = ".bench_build/run/" + ctx.workload + "-" +
            std::to_string(::getpid());
  RemoveTree(ctx.dir);
  if (!MakeDirs(ctx.dir)) {
    std::fprintf(stderr, "cannot create %s\n", ctx.dir.c_str());
    return 2;
  }

  Report report;
  if (ctx.workload == "durable_oltp") {
    report = RunDurableOltp(ctx);
  } else if (ctx.workload == "contended_certified") {
    report = RunContendedCertified(ctx);
  } else if (ctx.workload == "bsim_processes") {
    report = RunBsimProcesses(ctx);
  } else {
    RemoveTree(ctx.dir);
    return Usage(argv[0]);
  }
  struct statfs sfs {};
  const char* fs = ::statfs(ctx.dir.c_str(), &sfs) == 0 ? FsName(sfs.f_type)
                                                         : "unknown";
  RemoveTree(ctx.dir);

  const std::vector<Metric> metrics =
      ctx.trace ? Canonical(kPerLayer, /*zero_fill=*/true, &report)
                : Canonical(kEndToEnd, /*zero_fill=*/false, &report);
  report.Info("failed_share", FailedShare(report.failed, report.attempted),
              "ratio");
  for (const std::string& why : report.gate_failures) {
    std::fprintf(stderr, "GATE FAILED (%s): %s\n", ctx.workload.c_str(),
                 why.c_str());
  }
  std::printf("{\"info\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"host.fs\": %s, \"facts\": %s}}\n",
              Quote(ctx.workload).c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.trace ? 1 : 0,
              Quote(fs).c_str(), MetricsJson(report.info).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
