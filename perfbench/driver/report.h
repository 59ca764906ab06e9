#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One benchmark invocation, as parsed from the command line.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Per-run scratch directory (relative to the checkout root, so unix
  /// socket paths under it stay short); removed when the run ends.
  std::string dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the metrics of its mode, the unit
/// counts, correctness gate outcomes, and host/run facts for the info line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Facts printed on the line before the result (sample counts, fixed
  /// parameters, host facts): context for the numbers, not metrics.
  std::vector<Metric> info;
  std::vector<std::string> gate_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Info(const std::string& name, double value, const std::string& unit) {
    info.push_back(Metric{name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    gate_failures.push_back(why);
  }
};

Report RunDurableOltp(const RunContext& ctx);
Report RunContendedCertified(const RunContext& ctx);
Report RunBsimProcesses(const RunContext& ctx);

/// Host facts every run reports: nproc, the run directory's filesystem,
/// and a WriteAll+SyncData probe (p50, µs) in that directory — the device
/// floor under every durable latency this sandbox reports.
void AddHostFacts(const RunContext& ctx, Report* report);
double FdatasyncProbeUsP50(const std::string& dir);

/// Process peak resident set size so far, in MB.
double PeakRssMb();

/// splitmix64 finalizer: derives independent streams from one seed.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

/// mkdir -p / rm -rf for scratch directories under the checkout.
bool MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
