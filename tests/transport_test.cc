#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "action/action_tree.h"
#include "dist/dist_algebra.h"
#include "dist/summary.h"
#include "faults/link_interposer.h"
#include "sim/event_log.h"
#include "sim/program_spec.h"
#include "sim/transport.h"
#include "sim/wire.h"
#include "storage/file_io.h"
#include "temp_dir.h"

// The transport layer's building blocks (DESIGN.md "Transport layer"):
// the wire codecs every socket frame and trace record travels through,
// the per-incarnation durable event log, the in-process Transport
// adapter, the hub-side fault interposer, and the ProgramSpec token that
// makes "same seed, different transport" a meaningful comparison.

namespace rnt::sim {
namespace {

using action::ActionStatus;

dist::ActionSummary SampleSummary() {
  dist::ActionSummary s;
  s.AddActive(3);
  s.AddActive(7);
  s.SetStatus(7, ActionStatus::kCommitted);
  s.AddActive(12);
  s.SetStatus(12, ActionStatus::kAborted);
  return s;
}

TEST(WireTest, SummaryScalarCountsEntriesPlusDone) {
  dist::ActionSummary s;
  EXPECT_EQ(SummaryScalar(s), 0u);
  s.AddActive(1);
  EXPECT_EQ(SummaryScalar(s), 1u);
  s.AddActive(2);
  EXPECT_EQ(SummaryScalar(s), 2u);
  // Upgrading a status adds exactly one: the scalar is monotone along
  // every legal retention history (entries appear, statuses upgrade).
  s.SetStatus(1, ActionStatus::kCommitted);
  EXPECT_EQ(SummaryScalar(s), 3u);
  s.SetStatus(2, ActionStatus::kAborted);
  EXPECT_EQ(SummaryScalar(s), 4u);
}

TEST(WireTest, EventCodecRoundTripsEveryVariant) {
  const dist::ActionSummary sum = SampleSummary();
  const std::vector<dist::DistEvent> events = {
      dist::DistEvent{dist::NodeCreate{1, 4}},
      dist::DistEvent{dist::NodeCommit{0, 9}},
      dist::DistEvent{dist::NodeAbort{2, 5}},
      dist::DistEvent{dist::NodePerform{1, 6, Value{-17}}},
      dist::DistEvent{dist::NodeReleaseLock{0, 3, 2}},
      dist::DistEvent{dist::NodeLoseLock{2, 8, 1}},
      dist::DistEvent{dist::Send{0, 2, sum}},
      dist::DistEvent{dist::Receive{1, sum}},
  };
  for (const dist::DistEvent& e : events) {
    std::string bytes;
    EncodeEvent(bytes, e);
    auto back = DecodeEvent(
        reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, e);
  }
}

TEST(WireTest, EventCodecRejectsTruncationAndTrailingBytes) {
  std::string bytes;
  EncodeEvent(bytes, dist::DistEvent{dist::Send{0, 2, SampleSummary()}});
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeEvent(p, cut).ok()) << "prefix of " << cut;
  }
  bytes.push_back('\0');
  EXPECT_FALSE(DecodeEvent(p, bytes.size()).ok()) << "trailing byte";
}

TEST(WireTest, FrameCodecsRoundTripThroughDrain) {
  HelloFrame hello;
  hello.node = 2;
  hello.incarnation = 3;
  hello.recovered = true;
  hello.recovered_scalar = 41;
  hello.clock = 999;
  SummaryFrame summary;
  summary.from = 1;
  summary.to = 0;
  summary.clock = 77;
  summary.delay = 2;
  summary.summary = SampleSummary();
  HeartbeatFrame hb;
  hb.node = 1;
  hb.clock = 123;
  hb.done = true;
  hb.gave_up = false;
  hb.acked_scalar = 17;
  hb.retries = 4;

  std::string stream = EncodeHello(hello) + EncodeSummaryFrame(summary) +
                       EncodeHeartbeat(hb) + EncodeAllDone();
  std::vector<Frame> frames;
  ASSERT_TRUE(DrainFrames(stream, frames).ok());
  EXPECT_TRUE(stream.empty());
  ASSERT_EQ(frames.size(), 4u);

  ASSERT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].hello.node, hello.node);
  EXPECT_EQ(frames[0].hello.incarnation, hello.incarnation);
  EXPECT_EQ(frames[0].hello.recovered, hello.recovered);
  EXPECT_EQ(frames[0].hello.recovered_scalar, hello.recovered_scalar);
  EXPECT_EQ(frames[0].hello.clock, hello.clock);

  ASSERT_EQ(frames[1].type, FrameType::kSummary);
  EXPECT_EQ(frames[1].summary.from, summary.from);
  EXPECT_EQ(frames[1].summary.to, summary.to);
  EXPECT_EQ(frames[1].summary.clock, summary.clock);
  EXPECT_EQ(frames[1].summary.delay, summary.delay);
  EXPECT_EQ(frames[1].summary.summary, summary.summary);

  ASSERT_EQ(frames[2].type, FrameType::kHeartbeat);
  EXPECT_EQ(frames[2].heartbeat.node, hb.node);
  EXPECT_EQ(frames[2].heartbeat.clock, hb.clock);
  EXPECT_TRUE(frames[2].heartbeat.done);
  EXPECT_FALSE(frames[2].heartbeat.gave_up);
  EXPECT_EQ(frames[2].heartbeat.acked_scalar, hb.acked_scalar);
  EXPECT_EQ(frames[2].heartbeat.retries, hb.retries);

  EXPECT_EQ(frames[3].type, FrameType::kAllDone);
}

TEST(WireTest, DrainFramesHandlesArbitrarySplitPoints) {
  // A stream chopped at every byte boundary must deliver the same
  // frames: the parser holds partial frames across reads.
  SummaryFrame f;
  f.from = 0;
  f.to = 2;
  f.clock = 5;
  f.summary = SampleSummary();
  const std::string whole = EncodeSummaryFrame(f) + EncodeAllDone();
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    std::string buf = whole.substr(0, split);
    std::vector<Frame> frames;
    ASSERT_TRUE(DrainFrames(buf, frames).ok()) << "split " << split;
    buf.append(whole.substr(split));
    ASSERT_TRUE(DrainFrames(buf, frames).ok()) << "split " << split;
    EXPECT_TRUE(buf.empty()) << "split " << split;
    ASSERT_EQ(frames.size(), 2u) << "split " << split;
    EXPECT_EQ(frames[0].type, FrameType::kSummary);
    EXPECT_EQ(frames[0].summary.summary, f.summary);
    EXPECT_EQ(frames[1].type, FrameType::kAllDone);
  }
}

TEST(WireTest, DrainFramesRejectsGarbage) {
  {
    // Unknown frame type.
    std::string buf;
    buf.push_back(1);
    buf.push_back(0);
    buf.push_back(0);
    buf.push_back(0);
    buf.push_back(99);
    std::vector<Frame> frames;
    EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss);
  }
  {
    // Insane length prefix.
    std::string buf(8, '\xff');
    std::vector<Frame> frames;
    EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss);
  }
  {
    // Hello frame with a short body.
    std::string good = EncodeHello(HelloFrame{});
    std::string buf = good.substr(0, good.size() - 3);
    buf[0] = static_cast<char>(good.size() - 4 - 3);  // len covers the cut
    std::vector<Frame> frames;
    EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss);
  }
  {
    // Heartbeat cut before its retry count: the layout without it is
    // not accepted as a heartbeat with zero retries.
    std::string good = EncodeHeartbeat(HeartbeatFrame{});
    std::string buf = good.substr(0, good.size() - 8);
    buf[0] = static_cast<char>(good.size() - 4 - 8);  // len covers the cut
    std::vector<Frame> frames;
    EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss);
  }
}

TEST(EventLogTest, AppendLoadRoundTrip) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto log = EventLog::Open(dir.path(), 1, 0);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_TRUE((*log)->Append(1, dist::DistEvent{dist::NodeCreate{1, 2}}).ok());
  ASSERT_TRUE(
      (*log)->Append(2, dist::DistEvent{dist::NodePerform{1, 3, Value{4}}})
          .ok());
  ASSERT_TRUE(
      (*log)->Append(5, dist::DistEvent{dist::Receive{1, SampleSummary()}})
          .ok());
  auto events = EventLog::Load(dir.path(), 1, 0);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].stamp, 1u);
  EXPECT_EQ((*events)[1].stamp, 2u);
  EXPECT_EQ((*events)[2].stamp, 5u);
  EXPECT_EQ((*events)[2].event,
            (dist::DistEvent{dist::Receive{1, SampleSummary()}}));
}

TEST(EventLogTest, TornTailIsDiscardedNotFatal) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  {
    auto log = EventLog::Open(dir.path(), 0, 0);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(
        (*log)->Append(1, dist::DistEvent{dist::NodeCreate{0, 1}}).ok());
    ASSERT_TRUE(
        (*log)->Append(2, dist::DistEvent{dist::NodeCommit{0, 1}}).ok());
  }
  const std::string path = dir.path() + "/" + EventLog::FileName(0, 0);
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  // Tear the final record mid-payload, as kill -9 during a write would.
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(bytes->size() - 5)),
            0);
  auto events = EventLog::Load(dir.path(), 0, 0);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].event, (dist::DistEvent{dist::NodeCreate{0, 1}}));
}

TEST(EventLogTest, LoadNodeConcatenatesIncarnationsAcrossGaps) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  {
    auto g0 = EventLog::Open(dir.path(), 2, 0);
    ASSERT_TRUE(g0.ok());
    ASSERT_TRUE((*g0)->Append(1, dist::DistEvent{dist::NodeCreate{2, 1}}).ok());
  }
  // Incarnation 1 died between exec and Open: no file at all — the gap
  // a mid-spawn kill -9 leaves. Incarnation 2 traced again.
  {
    auto g2 = EventLog::Open(dir.path(), 2, 2);
    ASSERT_TRUE(g2.ok());
    ASSERT_TRUE((*g2)->Append(7, dist::DistEvent{dist::NodeCommit{2, 1}}).ok());
  }
  auto events = EventLog::LoadNode(dir.path(), 2);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].stamp, 1u);
  EXPECT_EQ((*events)[1].stamp, 7u);
  // A node that never traced loads empty, not an error.
  auto none = EventLog::LoadNode(dir.path(), 7);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty());
}

TEST(TransportTest, MailboxBackendDeliversFifoPerDestination) {
  ConcurrentMailbox mailbox(3);
  MailboxTransport transport(&mailbox);
  EXPECT_TRUE(transport.Idle(1));
  dist::ActionSummary a;
  a.AddActive(1);
  dist::ActionSummary b;
  b.AddActive(2);
  EXPECT_TRUE(transport.Send(1, TransportMessage{0, a, 0, 0}));
  EXPECT_TRUE(transport.Send(1, TransportMessage{2, b, 3, 0}));
  EXPECT_FALSE(transport.Idle(1));
  EXPECT_TRUE(transport.Idle(2));
  std::vector<TransportMessage> got = transport.Poll(1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].from, 0u);
  EXPECT_EQ(got[0].summary, a);
  EXPECT_EQ(got[0].delay, 0);
  EXPECT_EQ(got[1].from, 2u);
  EXPECT_EQ(got[1].summary, b);
  EXPECT_EQ(got[1].delay, 3);
  EXPECT_TRUE(transport.Idle(1));
  EXPECT_TRUE(transport.Poll(1).empty());
}

TEST(LinkInterposerTest, DeterministicAcrossInstances) {
  faults::FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.3;
  plan.dup_prob = 0.2;
  plan.delay_prob = 0.3;
  plan.max_delay_rounds = 4;
  faults::LinkInterposer a(plan);
  faults::LinkInterposer b(plan);
  for (int i = 0; i < 200; ++i) {
    const NodeId from = static_cast<NodeId>(i % 3);
    const NodeId to = static_cast<NodeId>((i + 1) % 3);
    const auto va = a.OnFrame(from, to, i);
    const auto vb = b.OnFrame(from, to, i);
    EXPECT_EQ(va.drop, vb.drop) << i;
    EXPECT_EQ(va.partitioned, vb.partitioned) << i;
    EXPECT_EQ(va.reset, vb.reset) << i;
    EXPECT_EQ(va.delay, vb.delay) << i;
    EXPECT_EQ(va.duplicate_delay, vb.duplicate_delay) << i;
  }
}

TEST(LinkInterposerTest, PartitionWindowDropsAndResetsOnce) {
  faults::FaultPlan plan;
  faults::PartitionSpec part;
  part.a = 0;
  part.b = 1;
  part.from_stamp = 10;
  part.until_stamp = 20;
  plan.partitions.push_back(part);
  faults::LinkInterposer li(plan);

  // Before the window: the link is clean.
  auto v = li.OnFrame(0, 1, 5);
  EXPECT_FALSE(v.drop);
  EXPECT_FALSE(v.reset);
  // First frame in the window: dropped AND reset (connection teardown).
  v = li.OnFrame(1, 0, 12);
  EXPECT_TRUE(v.drop);
  EXPECT_TRUE(v.partitioned);
  EXPECT_TRUE(v.reset);
  // Subsequent frames in the window: dropped, no further reset.
  v = li.OnFrame(0, 1, 15);
  EXPECT_TRUE(v.drop);
  EXPECT_TRUE(v.partitioned);
  EXPECT_FALSE(v.reset);
  // Other links are untouched.
  v = li.OnFrame(0, 2, 15);
  EXPECT_FALSE(v.drop);
  // Window closed: healed.
  v = li.OnFrame(0, 1, 20);
  EXPECT_FALSE(v.drop);
  EXPECT_FALSE(v.partitioned);
}

TEST(ProgramSpecTest, SerializeParseRoundTrip) {
  ProgramSpec spec;
  spec.seed = 424242;
  spec.top_level = 4;
  spec.max_children = 2;
  spec.max_depth = 5;
  spec.objects = 7;
  spec.access_ppm = 123456;
  spec.read_ppm = 654321;
  spec.k = 5;
  auto back = ProgramSpec::Parse(spec.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, spec);
}

TEST(ProgramSpecTest, ParseRejectsMalformedTokens) {
  EXPECT_FALSE(ProgramSpec::Parse("").ok());
  EXPECT_FALSE(ProgramSpec::Parse("seed=banana").ok());
  EXPECT_FALSE(ProgramSpec::Parse("unknown=1").ok());
  EXPECT_FALSE(ProgramSpec::Parse("seed=1,seed=").ok());
}

TEST(ProgramSpecTest, BuildRegistryIsDeterministicAndSeedSensitive) {
  ProgramSpec spec;
  spec.seed = 7;
  action::ActionRegistry a = spec.BuildRegistry();
  action::ActionRegistry b = spec.BuildRegistry();
  ASSERT_EQ(a.size(), b.size());
  for (ActionId id = 1; id < a.size(); ++id) {
    EXPECT_EQ(a.Parent(id), b.Parent(id)) << id;
    EXPECT_EQ(a.IsAccess(id), b.IsAccess(id)) << id;
    if (a.IsAccess(id)) {
      EXPECT_EQ(a.Object(id), b.Object(id)) << id;
    }
  }
  spec.seed = 8;
  action::ActionRegistry c = spec.BuildRegistry();
  bool differs = a.size() != c.size();
  for (ActionId id = 1; !differs && id < a.size(); ++id) {
    differs = a.Parent(id) != c.Parent(id) || a.IsAccess(id) != c.IsAccess(id);
  }
  EXPECT_TRUE(differs) << "seed must matter";
}

}  // namespace
}  // namespace rnt::sim
