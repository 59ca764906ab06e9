#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/summary.h"
#include "sim/socket_hub.h"
#include "sim/socket_transport.h"
#include "sim/transport.h"
#include "sim/wire.h"
#include "temp_dir.h"

// The hub's routing rules and the waits of the process host, driven
// in-process: the test plays the node processes with SocketTransports.
// A frame to a node that has not said its first hello is held until it
// does; a frame to a node that went away after its first hello is lost
// (and counted); and every wait ends on its event, not on a timer. The
// time bounds are generous: they tell an event-driven wait from a wait
// that runs out its timeout, nothing finer.

namespace rnt::sim {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kPatience = std::chrono::seconds(10);

std::unique_ptr<SocketHub> StartHub(const std::string& dir) {
  SocketHub::Options o;
  o.dir = dir;
  o.k = 3;
  auto hub = SocketHub::Start(o);
  EXPECT_TRUE(hub.ok()) << hub.status();
  return hub.ok() ? std::move(*hub) : nullptr;
}

std::unique_ptr<SocketTransport> ConnectNode(const SocketHub& hub, NodeId node,
                                             std::uint32_t incarnation = 0) {
  HelloFrame hello;
  hello.node = node;
  hello.incarnation = incarnation;
  auto t = SocketTransport::Connect(
      SocketTransport::Options{node, incarnation, hub.endpoint()}, hello);
  EXPECT_TRUE(t.ok()) << t.status();
  return t.ok() ? std::move(*t) : nullptr;
}

TransportMessage Carrying(NodeId from, ActionId a) {
  dist::ActionSummary s;
  s.AddActive(a);
  return TransportMessage{from, std::move(s), 0, /*clock=*/a};
}

/// True once `pred` holds; false after kPatience.
bool Eventually(const std::function<bool()>& pred) {
  const auto until = Clock::now() + kPatience;
  while (!pred()) {
    if (Clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Everything `t` delivers until it has `n` messages or kPatience passes.
std::vector<TransportMessage> Receive(SocketTransport& t, NodeId self,
                                      std::size_t n) {
  std::vector<TransportMessage> got;
  const auto until = Clock::now() + kPatience;
  while (got.size() < n && Clock::now() < until) {
    t.Wait(100);
    for (TransportMessage& m : t.Poll(self)) got.push_back(std::move(m));
  }
  return got;
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

TEST(SocketHubTest, FrameBeforeFirstHelloReachesNodeOnceItConnects) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto hub = StartHub(dir.path());
  ASSERT_NE(hub, nullptr);
  auto n0 = ConnectNode(*hub, 0);
  ASSERT_NE(n0, nullptr);

  // Node 1 has not started yet: both frames must wait at the hub.
  ASSERT_TRUE(n0->Send(1, Carrying(0, 5)));
  ASSERT_TRUE(n0->Send(1, Carrying(0, 6)));
  ASSERT_TRUE(Eventually([&] { return hub->Stats().frames == 2; }));

  auto n1 = ConnectNode(*hub, 1);
  ASSERT_NE(n1, nullptr);
  ASSERT_TRUE(Eventually([&] { return hub->Snapshot()[1].connected; }));
  ASSERT_TRUE(n0->Send(1, Carrying(0, 7)));

  // Held frames come first and in the order sent: the link never
  // reorders.
  const auto got = Receive(*n1, 1, 3);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].from, 0u);
    EXPECT_TRUE(got[i].summary.Contains(static_cast<ActionId>(5 + i)))
        << "message " << i;
  }
  EXPECT_EQ(hub->Stats().unrouted, 0u);
}

TEST(SocketHubTest, FrameToNodeResetAfterFirstHelloIsDropped) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto hub = StartHub(dir.path());
  ASSERT_NE(hub, nullptr);
  auto n0 = ConnectNode(*hub, 0);
  auto n1 = ConnectNode(*hub, 1);
  ASSERT_NE(n0, nullptr);
  ASSERT_NE(n1, nullptr);
  ASSERT_TRUE(Eventually([&] { return hub->Snapshot()[1].connected; }));

  // The hub severs node 1 (as before a kill -9), then node 0 sends.
  hub->ResetNode(1);
  ASSERT_TRUE(Eventually([&] { return !hub->Snapshot()[1].connected; }));
  ASSERT_TRUE(n0->Send(1, Carrying(0, 5)));
  ASSERT_TRUE(Eventually([&] { return hub->Stats().unrouted == 1; }));

  // Node 1 notices the reset and reconnects; only what is sent after
  // that reaches it.
  ASSERT_TRUE(Eventually([&] {
    EXPECT_TRUE(n1->Poll(1).empty());
    return hub->Snapshot()[1].connected;
  }));
  EXPECT_EQ(hub->Stats().reconnects, 1u);
  ASSERT_TRUE(n0->Send(1, Carrying(0, 6)));
  const auto got = Receive(*n1, 1, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].summary.Contains(6));
  EXPECT_FALSE(got[0].summary.Contains(5));
  EXPECT_FALSE(n1->Wait(20));  // nothing else is on its way
  EXPECT_TRUE(n1->Poll(1).empty());
}

TEST(SocketHubTest, IdleWaitEndsWhenAFrameArrives) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto hub = StartHub(dir.path());
  ASSERT_NE(hub, nullptr);
  auto n0 = ConnectNode(*hub, 0);
  auto n1 = ConnectNode(*hub, 1);
  ASSERT_NE(n0, nullptr);
  ASSERT_NE(n1, nullptr);

  // With nothing on its way the wait runs its whole timeout.
  auto t0 = Clock::now();
  EXPECT_FALSE(n1->Wait(30));
  EXPECT_GE(MsSince(t0), 25.0);

  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(n0->Send(1, Carrying(0, 9)));
  });
  t0 = Clock::now();
  const bool ready = n1->Wait(5000);
  const double waited = MsSince(t0);
  sender.join();
  EXPECT_TRUE(ready);
  EXPECT_LT(waited, 2500.0);
  const auto got = Receive(*n1, 1, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].summary.Contains(9));
}

TEST(SocketHubTest, IdleWaitEndsWhenAllDoneArrives) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto hub = StartHub(dir.path());
  ASSERT_NE(hub, nullptr);
  auto n1 = ConnectNode(*hub, 1);
  ASSERT_NE(n1, nullptr);
  ASSERT_TRUE(Eventually([&] { return hub->Snapshot()[1].connected; }));

  std::thread supervisor([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    hub->BroadcastAllDone();
  });
  const auto t0 = Clock::now();
  const bool ready = n1->Wait(5000);
  const double waited = MsSince(t0);
  supervisor.join();
  EXPECT_TRUE(ready);
  EXPECT_LT(waited, 2500.0);
  EXPECT_TRUE(n1->Poll(1).empty());
  EXPECT_TRUE(n1->AllDone());
  EXPECT_TRUE(n1->Wait(5000));  // kAllDone seen: no more waiting
}

TEST(SocketHubTest, AwaitProgressEndsOnHeartbeatAndSumsRetries) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto hub = StartHub(dir.path());
  ASSERT_NE(hub, nullptr);
  auto n2 = ConnectNode(*hub, 2);
  ASSERT_NE(n2, nullptr);
  ASSERT_TRUE(Eventually([&] { return hub->Snapshot()[2].connected; }));
  std::uint64_t seen = hub->AwaitProgress(0, 0);

  // No hub event: the wait runs out and reports no progress.
  EXPECT_EQ(hub->AwaitProgress(seen, 20), seen);

  HeartbeatFrame beat;
  beat.node = 2;
  beat.retries = 3;
  std::thread node([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(n2->SendHeartbeat(beat));
  });
  const auto t0 = Clock::now();
  seen = hub->AwaitProgress(seen, 5000);
  EXPECT_LT(MsSince(t0), 2500.0);
  node.join();
  EXPECT_EQ(hub->Snapshot()[2].retries, 3u);

  // Each incarnation reports its own running count; the hub sums them.
  beat.retries = 5;
  ASSERT_TRUE(n2->SendHeartbeat(beat));
  ASSERT_TRUE(Eventually([&] { return hub->Snapshot()[2].retries == 5; }));
  n2.reset();
  auto reborn = ConnectNode(*hub, 2, /*incarnation=*/1);
  ASSERT_NE(reborn, nullptr);
  beat.retries = 2;
  ASSERT_TRUE(reborn->SendHeartbeat(beat));
  ASSERT_TRUE(Eventually([&] { return hub->Snapshot()[2].retries == 7; }));
}

}  // namespace
}  // namespace rnt::sim
