// bsim_processes: a sequence of fault-free ℬ programs (§9's distributed
// algebra), each run as k = 3 rnt_node OS processes over unix sockets by
// sim::RunMultiProcess, and again in-process by sim::RunParallel, which is
// both the value oracle and the timed in-process baseline.

#include <spawn.h>
#include <sys/wait.h>
#include <fcntl.h>

#include <string>
#include <vector>

#include "dist/dist_algebra.h"
#include "dist/topology.h"
#include "report.h"
#include "sim/parallel_runner.h"
#include "sim/program_spec.h"
#include "sim/socket_hub.h"
#include "sim/supervisor.h"
#include "stats.h"
#include "timing.h"

extern char** environ;

namespace perfbench {

namespace {

using rnt::NodeId;
using rnt::ObjectId;
using rnt::Value;

constexpr int kSetupRepeats = 25;
constexpr int kProbeRepeats = 20;
/// Figures come from this many equal spans of the run (by program start),
/// taken from the quiet side (stats.h).
constexpr int kWindows = 5;

rnt::sim::ProgramSpec SpecFor(std::uint64_t seed, std::uint64_t iteration) {
  rnt::sim::ProgramSpec spec;
  spec.seed = 1 + (Mix(seed, iteration) >> 1);
  spec.top_level = 16;
  spec.max_children = 3;
  spec.max_depth = 3;
  spec.objects = 16;
  spec.k = 3;
  return spec;
}

/// A spec's program, built the way every backend builds it.
struct Program {
  explicit Program(const rnt::sim::ProgramSpec& s)
      : spec(s),
        registry(s.BuildRegistry()),
        topology(rnt::dist::Topology::RoundRobin(&registry,
                                                 static_cast<NodeId>(s.k))),
        algebra(&topology) {}

  template <typename State>
  std::vector<Value> HomeValues(const State& state) const {
    std::vector<Value> values;
    for (ObjectId x = 0; x < static_cast<ObjectId>(spec.objects); ++x) {
      values.push_back(
          state.nodes[topology.HomeOfObject(x)].vmap.Get(x, rnt::kRootAction));
    }
    return values;
  }

  rnt::sim::ProgramSpec spec;
  rnt::action::ActionRegistry registry;
  rnt::dist::Topology topology;
  rnt::dist::DistAlgebra algebra;
};

double MsSince(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// fork/exec/reap of one rnt_node that exits at once (no arguments: it
/// prints its usage and exits), with its output sent to a file in `dir`.
double SpawnExitMs(const std::string& dir) {
  const std::string log = dir + "/spawn.log";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  char arg0[] = RNT_NODE_BINARY;
  char* argv[] = {arg0, nullptr};
  const std::int64_t t0 = NowNs();
  pid_t pid = -1;
  double ms = 0;
  if (posix_spawn(&pid, RNT_NODE_BINARY, &actions, nullptr, argv, environ) ==
      0) {
    int status = 0;
    (void)::waitpid(pid, &status, 0);
    ms = MsSince(t0);
  }
  posix_spawn_file_actions_destroy(&actions);
  return ms;
}

/// SocketHub::Start + Stop, the hub's fixed cost per program.
double HubStartMs(const std::string& dir) {
  rnt::sim::SocketHub::Options o;
  o.dir = dir;
  o.k = 3;
  const std::int64_t t0 = NowNs();
  auto hub = rnt::sim::SocketHub::Start(o);
  if (!hub.ok()) return 0;
  (*hub)->Stop();
  hub->reset();
  return MsSince(t0);
}

}  // namespace

Report RunBsimProcesses(const RunContext& ctx) {
  Report rep;
  AddHostFacts(ctx, &rep);

  // Set-up: build the first program and run its in-process oracle.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t t0 = NowNs();
    Program prog(SpecFor(ctx.seed, 0));
    auto run = rnt::sim::RunParallel(prog.algebra);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!run.ok()) rep.Fail("oracle failed: " + run.status().ToString());
  }

  std::vector<double> program_ms;
  std::vector<Stamped> program_ms_at;  // by program start
  std::vector<Stamped> thread_ms_at;
  std::vector<double> overhead_ms;
  std::uint64_t frames = 0, messages = 0, retries = 0, reconnects = 0;
  const std::int64_t start = NowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(ctx.seconds * 1e9);
  for (std::uint64_t it = 0; NowNs() < end; ++it) {
    ++rep.attempted;
    Program prog(SpecFor(ctx.seed, it));
    std::int64_t t0 = NowNs();
    auto oracle = rnt::sim::RunParallel(prog.algebra);
    const double in_process = MsSince(t0);
    if (!oracle.ok() || !oracle->complete) {
      ++rep.failed;
      rep.Fail("program " + std::to_string(it) + ": in-process oracle " +
               (oracle.ok() ? "incomplete" : oracle.status().ToString()));
      continue;
    }
    const std::int64_t program_start = t0;
    thread_ms_at.push_back(Stamped{program_start, in_process});

    rnt::sim::SupervisorOptions opt;
    opt.spec = prog.spec;
    opt.node_binary = RNT_NODE_BINARY;
    opt.dir = ctx.dir + "/p" + std::to_string(it);
    // A healthy program takes ~0.1 s; a hung one fails the run well within
    // the benchmark's per-run time limit.
    opt.deadline_ms = 30000;
    MakeDirs(opt.dir);
    t0 = NowNs();
    auto run = rnt::sim::RunMultiProcess(opt);
    const double multi = MsSince(t0);
    RemoveTree(opt.dir);
    if (!run.ok()) {
      ++rep.failed;
      rep.Fail("program " + std::to_string(it) + ": " +
               run.status().ToString());
      continue;
    }
    if (!run->complete ||
        prog.HomeValues(run->final_state) !=
            prog.HomeValues(oracle->final_state)) {
      ++rep.failed;
      rep.Fail("program " + std::to_string(it) + " (" + prog.spec.Serialize() +
               "): multi-process values differ from the oracle or the run "
               "is incomplete");
      continue;
    }
    program_ms.push_back(multi);
    program_ms_at.push_back(Stamped{program_start, multi});
    overhead_ms.push_back(multi - in_process);
    frames += run->hub.frames;
    messages += run->stats.messages;
    retries += run->stats.retries;
    reconnects += run->hub.reconnects;
  }
  const double rss = PeakRssMb();
  const double programs = static_cast<double>(program_ms.size());
  // Programs per second of multi-process wall time, per span.
  std::vector<double> span_ms(kWindows, 0), span_n(kWindows, 0);
  const double width = static_cast<double>(end - start) / kWindows;
  for (const Stamped& p : program_ms_at) {
    const std::size_t k = SpanOf(p.at, start, width, kWindows);
    span_ms[k] += p.value;
    span_n[k] += 1;
  }
  std::vector<double> span_rate;
  for (int k = 0; k < kWindows; ++k) {
    if (span_ms[k] > 0) span_rate.push_back(span_n[k] / (span_ms[k] / 1e3));
  }

  const Quantile p90 = Select(program_ms, 0.9);
  rep.Info("programs", programs, "count");
  rep.Info("program_ms_p90_samples_beyond", static_cast<double>(p90.beyond),
           "count");
  rep.Info("program_ms_p50", Select(program_ms, 0.5).value, "ms");
  if (!ctx.trace) {
    rep.Set("setup_s", Select(setup_s, kQuietLow).value, "s");
    rep.Set("throughput_per_s", Select(span_rate, kQuietHigh).value,
            "1/s");
    rep.Set("latency_p50_us",
            WindowedQuantile(thread_ms_at, start, end, kWindows, 0.5,
                             kQuietLow) * 1e3,
            "us");
    rep.Set("latency_tail_us",
            WindowedQuantile(program_ms_at, start, end, kWindows, 0.9,
                             kQuietLow) * 1e3,
            "us");
    rep.Set("peak_rss_mb", rss, "MB");
    return rep;
  }

  std::vector<double> spawn_ms, hub_ms;
  const std::string probe_dir = ctx.dir + "/probe";
  MakeDirs(probe_dir);
  for (int r = 0; r < kProbeRepeats; ++r) {
    spawn_ms.push_back(SpawnExitMs(probe_dir));
    hub_ms.push_back(HubStartMs(probe_dir));
  }
  RemoveTree(probe_dir);
  const double n = programs > 0 ? programs : 1;
  rep.Set("sim.process_overhead_ms", Mean(overhead_ms), "ms");
  rep.Set("sim.spawn_exit_ms", Select(spawn_ms, 0.5).value, "ms");
  rep.Set("sim.hub_start_ms", Select(hub_ms, 0.5).value, "ms");
  rep.Set("sim.frames_per_program", static_cast<double>(frames) / n, "ratio");
  rep.Set("sim.messages_per_program", static_cast<double>(messages) / n,
          "ratio");
  rep.Set("sim.retries_per_program", static_cast<double>(retries) / n,
          "ratio");
  rep.Set("sim.reconnects", static_cast<double>(reconnects), "count");
  rep.Set("storage.fdatasync_us_p50", FdatasyncProbeUsP50(ctx.dir), "us");
  return rep;
}

}  // namespace perfbench
