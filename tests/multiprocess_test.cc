#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aat/aat.h"
#include "algebra/algebra.h"
#include "dist/dist_algebra.h"
#include "dist/topology.h"
#include "faults/faults.h"
#include "orphan/orphan.h"
#include "sim/parallel_runner.h"
#include "sim/process_chaos.h"
#include "sim/program_spec.h"
#include "sim/supervisor.h"
#include "temp_dir.h"
#include "txn/online_checker.h"

// The real multi-process transport (DESIGN.md "Transport layer"): k
// rnt_node OS processes over unix-domain / TCP sockets, kill -9 process
// chaos delivered by the supervisor, bounded rebirth from the durable
// retention log. The headline acceptance property: a seeded chaos run
// over 3 node processes survives >= 10 compounding kill -9 cycles plus
// stamp-windowed partitions with every top-level transaction committed,
// recovered >= acked durable knowledge per node, and a merged trace that
// is value-equivalent to the in-process backend on the same seed and
// certified by the Theorem 9 checker.

namespace rnt::sim {
namespace {

#ifndef RNT_NODE_BINARY
#error "multiprocess_test requires RNT_NODE_BINARY (see tests/CMakeLists.txt)"
#endif

ProgramSpec SmallSpec(std::uint64_t seed) {
  ProgramSpec spec;
  spec.seed = seed;
  spec.top_level = 3;
  spec.max_children = 3;
  spec.max_depth = 3;
  spec.objects = 4;
  spec.k = 3;
  return spec;
}

/// The in-process oracle for a spec: same registry, same topology, the
/// MailboxTransport backend (fault-free — transport faults must be
/// invisible in the outcome, so one oracle serves every plan).
StatusOr<ParallelRun> InProcessOracle(const ProgramSpec& spec,
                                      action::ActionRegistry* reg) {
  *reg = spec.BuildRegistry();
  dist::Topology topo =
      dist::Topology::RoundRobin(reg, static_cast<NodeId>(spec.k));
  dist::DistAlgebra alg(&topo);
  return RunParallel(alg, ParallelOptions{});
}

/// Judges one multi-process run against the oracle: value equivalence
/// per object at its home, a valid merged ℬ computation, and the
/// Theorem 9 / orphan certification of its abstract image.
void JudgeRun(const ProgramSpec& spec, const MultiProcessRun& run,
              const ParallelRun& oracle) {
  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo =
      dist::Topology::RoundRobin(&reg, static_cast<NodeId>(spec.k));
  dist::DistAlgebra alg(&topo);

  // Commit rate 1.0: every top-level transaction committed at its home.
  for (ActionId a = 1; a < reg.size(); ++a) {
    if (reg.Parent(a) != kRootAction || reg.IsAccess(a)) continue;
    const NodeId h = topo.HomeOfAction(a);
    EXPECT_TRUE(run.final_state.nodes[h].summary.IsCommitted(a))
        << "top-level " << a << " not committed at home " << h;
  }
  EXPECT_EQ(run.stats.performs, oracle.stats.performs);
  EXPECT_EQ(run.stats.commits, oracle.stats.commits);
  EXPECT_EQ(run.stats.aborts, oracle.stats.aborts);
  for (ObjectId x = 0; x < static_cast<ObjectId>(spec.objects); ++x) {
    const NodeId h = topo.HomeOfObject(x);
    EXPECT_EQ(run.final_state.nodes[h].vmap.Get(x, kRootAction),
              oracle.final_state.nodes[h].vmap.Get(x, kRootAction))
        << "object " << x;
  }
  EXPECT_TRUE(algebra::IsValidSequence(
      alg, std::span<const dist::DistEvent>(run.events)));
  txn::OnlineChecker online;
  auto abstract = ReplayAbstract(
      alg, std::span<const dist::DistEvent>(run.events), &online);
  ASSERT_TRUE(abstract.ok()) << abstract.status();
  EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree));
  EXPECT_EQ(online.Verdict().outcome, txn::OnlineChecker::Outcome::kOk)
      << online.Verdict().detail;
  EXPECT_TRUE(orphan::CheckOrphanViewConsistency(abstract->tree).ok());
}

TEST(MultiProcessTest, UnixBackendMatchesInProcessNoFaults) {
  const ProgramSpec spec = SmallSpec(11);
  action::ActionRegistry reg;
  auto oracle = InProcessOracle(spec, &reg);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  SupervisorOptions opt;
  opt.spec = spec;
  opt.node_binary = RNT_NODE_BINARY;
  opt.dir = dir.path();
  opt.backend = SocketHub::Backend::kUnix;
  auto run = RunMultiProcess(opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->kills, 0);
  // Start-up frames wait at the hub for their target's first hello, so
  // a fault-free run loses none.
  EXPECT_EQ(run->hub.unrouted, 0u);
  JudgeRun(spec, *run, *oracle);
}

TEST(MultiProcessTest, TcpBackendMatchesInProcess) {
  const ProgramSpec spec = SmallSpec(23);
  action::ActionRegistry reg;
  auto oracle = InProcessOracle(spec, &reg);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  SupervisorOptions opt;
  opt.spec = spec;
  opt.node_binary = RNT_NODE_BINARY;
  opt.dir = dir.path();
  opt.backend = SocketHub::Backend::kTcp;
  // One kill on the TCP path too: rebirth must be backend-agnostic.
  faults::CrashSpec crash;
  crash.node = 1;
  crash.at_stamp = 12;
  crash.down_for_stamps = 5;
  opt.plan.crashes.push_back(crash);
  auto run = RunMultiProcess(opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->kills, 1);
  JudgeRun(spec, *run, *oracle);
}

TEST(MultiProcessTest, SurvivesCompoundingKillsAndPartitions) {
  // THE acceptance run: 12 scheduled kill -9s rotating over all three
  // node processes (stamp-triggered, with the quiescence early-fire rule
  // guaranteeing each one lands), two stamp-windowed partitions that
  // sever real socket connections, and background message chaos.
  const ProgramSpec spec = SmallSpec(7);
  action::ActionRegistry reg;
  auto oracle = InProcessOracle(spec, &reg);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  faults::FaultPlan plan;
  plan.seed = 1234;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.05;
  plan.delay_prob = 0.1;
  plan.max_delay_rounds = 2;
  for (int c = 0; c < 12; ++c) {
    faults::CrashSpec crash;
    crash.node = static_cast<NodeId>(c % 3);
    crash.at_stamp = 15 + 10 * c;
    crash.down_for_stamps = 4;
    plan.crashes.push_back(crash);
  }
  faults::PartitionSpec p01;
  p01.a = 0;
  p01.b = 1;
  p01.from_stamp = 20;
  p01.until_stamp = 60;
  plan.partitions.push_back(p01);
  faults::PartitionSpec p12;
  p12.a = 1;
  p12.b = 2;
  p12.from_stamp = 70;
  p12.until_stamp = 110;
  plan.partitions.push_back(p12);

  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  SupervisorOptions opt;
  opt.spec = spec;
  opt.node_binary = RNT_NODE_BINARY;
  opt.dir = dir.path();
  opt.backend = SocketHub::Backend::kUnix;
  opt.plan = plan;
  auto run = RunMultiProcess(opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete) << "chaos must degrade to retries, not give-up";
  EXPECT_GE(run->kills, 10) << "every scheduled kill must land";
  EXPECT_EQ(run->stats.crashes, static_cast<std::uint64_t>(run->kills));
  // Bounded rebirth's durability contract, per node: everything durably
  // acknowledged before a kill was recovered by the rebirth.
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_GE(run->recovered_scalar[i], run->acked_at_kill[i])
        << "node " << i << " lost acknowledged retention";
  }
  EXPECT_GT(run->stats.recovered_nodes, 0u);
  // Lost frames are repaired only by the watchdog's anti-entropy; its
  // retries reach the supervisor through the heartbeats.
  EXPECT_GT(run->stats.retries, 0u);
  EXPECT_GT(run->stats.dropped_msgs, 0u);
  JudgeRun(spec, *run, *oracle);
}

TEST(MultiProcessTest, DeterministicFaultsAreDeterministic) {
  // Two multi-process runs of the same spec + plan agree on the final
  // values (the fault schedule is seeded; the *interleaving* may differ,
  // the outcome may not).
  const ProgramSpec spec = SmallSpec(31);
  faults::FaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 0.1;
  faults::CrashSpec crash;
  crash.node = 0;
  crash.at_stamp = 10;
  crash.down_for_stamps = 4;
  plan.crashes.push_back(crash);

  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);

  std::vector<Value> first;
  for (int rep = 0; rep < 2; ++rep) {
    testing::TempDir dir;
    ASSERT_TRUE(dir.ok());
    SupervisorOptions opt;
    opt.spec = spec;
    opt.node_binary = RNT_NODE_BINARY;
    opt.dir = dir.path();
    opt.plan = plan;
    auto run = RunMultiProcess(opt);
    ASSERT_TRUE(run.ok()) << run.status() << " rep " << rep;
    EXPECT_TRUE(run->complete);
    std::vector<Value> values;
    for (ObjectId x = 0; x < static_cast<ObjectId>(spec.objects); ++x) {
      const NodeId h = topo.HomeOfObject(x);
      values.push_back(run->final_state.nodes[h].vmap.Get(x, kRootAction));
    }
    if (rep == 0) {
      first = values;
    } else {
      EXPECT_EQ(values, first);
    }
  }
}

/// Entries of `dir` other than "." and "..".
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  (void)::closedir(d);
  return names;
}

/// Runs the node binary with `args` (stderr silenced) and returns its
/// exit code, or -1 when it did not exit normally.
int RunNodeBinary(const std::vector<std::string>& args) {
  std::vector<std::string> all{RNT_NODE_BINARY};
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : all) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) (void)::dup2(null_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (pid < 0) return -1;
  auto status = ReapWithDeadline(pid, 30000, "rnt_node (argv check)");
  if (!status.ok() || !WIFEXITED(*status)) return -1;
  return WEXITSTATUS(*status);
}

TEST(MultiProcessTest, RejectsLazyPropagationBeforeAnyFork) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  SupervisorOptions opt;
  opt.spec = SmallSpec(5);
  opt.node_binary = RNT_NODE_BINARY;
  opt.dir = dir.path();
  opt.propagation = Propagation::kLazy;
  auto run = RunMultiProcess(opt);
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  // Rejected before the hub bound its socket or any node traced.
  EXPECT_TRUE(ListDir(dir.path()).empty());
}

TEST(MultiProcessTest, NodeBinaryRejectsMalformedFlags) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  const std::vector<std::string> base{
      "--spec=" + SmallSpec(5).Serialize(), "--dir=" + dir.path(),
      "--endpoint=unix:" + dir.path() + "/no-hub.sock"};
  const std::vector<std::string> bad{
      "--node=x",
      "--node=1x",
      "--node=-1",
      "--node=",
      "--node=4294967296",
      "--incarnation=abc",
      "--incarnation=99999999999",
      "--max-idle-spins=abc",
      "--max-idle-spins=12 ",
      "--max-idle-spins=99999999999999999999999",
      "--propagation=lazy",
      "--propagation=bogus",
  };
  for (const std::string& flag : bad) {
    std::vector<std::string> args = base;
    args.push_back(flag);
    EXPECT_EQ(RunNodeBinary(args), 1) << flag;
    EXPECT_TRUE(ListDir(dir.path()).empty()) << flag;
  }
}

}  // namespace
}  // namespace rnt::sim
