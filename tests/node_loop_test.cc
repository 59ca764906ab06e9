// The ℬ node loop driven through its hook seam alone (sim/node_loop.h):
// k NodeLoops stepped round-robin on one thread over one in-process
// MailboxTransport, with a fake host that stamps from a plain counter and
// keeps M_i in memory. No threads, no sockets, no wall clock: every run
// is a pure function of the seed, and it must be judged exactly like the
// two real hosts' runs — a valid ℬ computation whose abstract image is
// serializable, with RunProgram's final values at every object's home.

#include "sim/node_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "aat/aat.h"
#include "algebra/algebra.h"
#include "sim/dist_driver.h"
#include "sim/message_buffer.h"
#include "sim/parallel_runner.h"
#include "sim/transport.h"
#include "testutil.h"

namespace rnt::sim {
namespace {

/// The smallest host: one shared stamp counter, a retained summary per
/// node, and the mailbox for transmissions.
class FakeHost final : public NodeHost {
 public:
  FakeHost(NodeId self, NodeId k, MailboxTransport* transport,
           std::uint64_t* clock, NodeId* done)
      : self_(self), k_(k), transport_(transport), clock_(clock),
        done_(done) {}

  Status Record(const dist::DistEvent&, std::uint64_t* stamp) override {
    *stamp = (*clock_)++;
    return Status::Ok();
  }
  Status Retain(const dist::ActionSummary& payload) override {
    retained.MergeFrom(payload);
    return Status::Ok();
  }
  void Send(NodeId to, dist::ActionSummary payload) override {
    EXPECT_TRUE(
        transport_->Send(to, TransportMessage{self_, std::move(payload)}));
  }
  std::vector<TransportMessage> Poll() override {
    return transport_->Poll(self_);
  }
  void OnDone() override { ++*done_; }
  bool AllDone() override { return *done_ == k_; }
  void Tick() override { ++*clock_; }
  bool Pace(bool) override { return true; }

  dist::ActionSummary retained;  // M_i

 private:
  NodeId self_;
  NodeId k_;
  MailboxTransport* transport_;
  std::uint64_t* clock_;
  NodeId* done_;
};

struct SeamRun {
  std::vector<dist::DistEvent> events;
  dist::DistState state;
  bool complete = true;
};

/// Steps k loops round-robin until every loop has ended. With
/// `crash_node` set, that node crashes after `crash_after` rounds and is
/// reborn on the spot from its retained M_i.
SeamRun StepRoundRobin(const dist::DistAlgebra& alg,
                       const std::set<ActionId>& abort_set, Propagation prop,
                       NodeId crash_node, int crash_after) {
  const NodeId k = alg.topology().k();
  auto plan = PlanProgram(alg, abort_set);
  EXPECT_TRUE(plan.ok()) << plan.status();
  SeamRun run;
  run.state = alg.Initial();
  ConcurrentMailbox mailbox(k);
  MailboxTransport transport(&mailbox);
  std::uint64_t clock = 0;
  NodeId done = 0;
  std::vector<std::unique_ptr<FakeHost>> hosts;
  std::vector<std::unique_ptr<NodeLoop>> loops;
  for (NodeId i = 0; i < k; ++i) {
    hosts.push_back(
        std::make_unique<FakeHost>(i, k, &transport, &clock, &done));
    NodeLoop::Config config;
    config.self = i;
    config.propagation = prop;
    config.max_idle_spins = 1u << 20;
    config.watchdog = false;
    config.keep_log = true;
    loops.push_back(std::make_unique<NodeLoop>(alg, run.state, *plan, config,
                                               *hosts[i]));
  }
  std::vector<char> running(k, 1);
  for (int round = 0; round < 100000; ++round) {
    if (round == crash_after && crash_node < k) {
      EXPECT_TRUE(running[crash_node]) << "crash lands mid-run";
      loops[crash_node]->Crash();
      const Status reborn =
          loops[crash_node]->Rebirth(hosts[crash_node]->retained);
      EXPECT_TRUE(reborn.ok()) << reborn;
    }
    bool any = false;
    for (NodeId i = 0; i < k; ++i) {
      if (running[i]) running[i] = loops[i]->Step() ? 1 : 0;
      any = any || running[i];
    }
    if (!any) break;
  }
  std::vector<StampedEvent> merged;
  for (NodeId i = 0; i < k; ++i) {
    EXPECT_FALSE(running[i]) << "node " << i << " never finished";
    if (loops[i]->gave_up()) run.complete = false;
    // Write-ahead discipline: M_i covers everything the node knows.
    EXPECT_TRUE(
        run.state.nodes[i].summary.IsSubsummaryOf(hosts[i]->retained))
        << "node " << i;
    for (StampedEvent& se : loops[i]->log()) merged.push_back(std::move(se));
  }
  std::sort(merged.begin(), merged.end(),
            [](const StampedEvent& a, const StampedEvent& b) {
              return a.stamp < b.stamp;
            });
  for (StampedEvent& se : merged) run.events.push_back(std::move(se.event));
  return run;
}

void CheckSeam(std::uint64_t seed, Propagation prop, bool with_abort,
               NodeId crash_node, int crash_after) {
  Rng rng(seed);
  testutil::RandomRegistryParams p;
  p.top_level = 3;
  p.max_children = 3;
  p.max_depth = 3;
  p.objects = 4;
  action::ActionRegistry reg = testutil::MakeRandomRegistry(rng, p);
  std::set<ActionId> abort_set;
  for (ActionId a = 1; with_abort && a < reg.size(); ++a) {
    if (!reg.IsAccess(a) && reg.Parent(a) != kRootAction) {
      abort_set.insert(a);
      break;
    }
  }
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  DriverOptions seq_opt;
  seq_opt.abort_set = abort_set;
  auto seq = RunProgram(alg, seq_opt);
  ASSERT_TRUE(seq.ok()) << seq.status() << " seed " << seed;

  SeamRun run = StepRoundRobin(alg, abort_set, prop, crash_node, crash_after);
  EXPECT_TRUE(run.complete) << "seed " << seed;
  for (ObjectId x = 0; x < static_cast<ObjectId>(p.objects); ++x) {
    const NodeId h = topo.HomeOfObject(x);
    EXPECT_EQ(run.state.nodes[h].vmap.Get(x, kRootAction),
              seq->final_state.nodes[h].vmap.Get(x, kRootAction))
        << "object " << x << " seed " << seed;
  }
  const std::span<const dist::DistEvent> events(run.events);
  EXPECT_TRUE(algebra::IsValidSequence(alg, events)) << "seed " << seed;
  auto abstract = ReplayAbstract(alg, events);
  ASSERT_TRUE(abstract.ok()) << abstract.status() << " seed " << seed;
  EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree)) << "seed " << seed;
}

TEST(NodeLoopTest, RoundRobinDeltaMatchesSequentialWithAborts) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    CheckSeam(seed, Propagation::kDelta, /*with_abort=*/seed % 3 != 2,
              /*crash_node=*/3, /*crash_after=*/-1);
  }
}

TEST(NodeLoopTest, RoundRobinEagerMatchesSequential) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    CheckSeam(seed, Propagation::kEager, /*with_abort=*/true,
              /*crash_node=*/3, /*crash_after=*/-1);
  }
}

TEST(NodeLoopTest, CrashAndRebirthThroughTheSeam) {
  for (std::uint64_t seed = 80; seed < 88; ++seed) {
    CheckSeam(seed, Propagation::kDelta, /*with_abort=*/true,
              /*crash_node=*/static_cast<NodeId>(seed % 3),
              /*crash_after=*/static_cast<int>(2 + seed % 5));
  }
}

TEST(NodeLoopTest, PlanAndOptionsAreValidatedUpFront) {
  action::ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId a = reg.NewAccess(t, 0, action::Update::Read());
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 2);
  dist::DistAlgebra alg(&topo);
  EXPECT_EQ(PlanProgram(alg, {a}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanProgram(alg, {kRootAction}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(PlanProgram(alg, {t}).ok());
  EXPECT_EQ(ValidateLoopOptions(Propagation::kLazy, 2, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateLoopOptions(Propagation::kDelta, 2, {}).ok());
  EXPECT_TRUE(ValidateLoopOptions(Propagation::kEager, 2, {}).ok());
}

}  // namespace
}  // namespace rnt::sim
