#include "sim/node_runtime.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "action/registry.h"
#include "dist/dist_algebra.h"
#include "dist/summary.h"
#include "dist/topology.h"
#include "sim/event_log.h"
#include "sim/node_loop.h"
#include "sim/socket_transport.h"
#include "sim/wire.h"
#include "storage/retention_log.h"

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistEvent;

/// Longest idle wait per pass. Watchdog retries, the max_idle_spins
/// give-up and exit-on-silence count idle passes, so this cap is what
/// keeps those thresholds in wall-clock terms (64 idle passes ≈ 64 ms
/// when nothing arrives). Liveness only: outcomes are replay-certified.
constexpr int kIdleWaitCapMs = 1;

/// The process host of ℬ: one NodeLoop (node_loop.h) as this whole OS
/// process, around it what only a process needs — durable open and
/// replay, the hub connection, and heartbeats. Its hooks:
///
///  * stamp and record: a per-node Lamport clock (each recorded event
///    stamps ++clock; a delivery first raises the clock to the sender's
///    transmit clock, so receiver stamps strictly follow the transmission
///    and the post-hoc merge by (stamp, node) is a legal ℬ order), and a
///    durable per-incarnation trace file;
///  * retain: the RetentionLog with its in-memory mirror and checkpoint
///    compaction. The loop retains only after the carrying Send is
///    traced, so a kill -9 at any instruction leaves retention ⊆ trace,
///    and the rebirth Receive of the retention log is legal against the
///    buffer mirror a mechanical trace replay rebuilds;
///  * transmit: a plain SocketTransport::Send. Fault injection lives at
///    the hub's link interposer (the process cannot be trusted to drop
///    its own frames once kill -9 is real); the node only *reacts*;
///  * done, stop and pace: heartbeats, the hub's kAllDone broadcast, and
///    an idle pass that blocks on the hub socket until a frame or
///    kAllDone arrives, for at most kIdleWaitCapMs.
class NodeRuntime final : public NodeHost {
 public:
  explicit NodeRuntime(const NodeRuntimeOptions& options)
      : options_(options),
        reg_(options.spec.BuildRegistry()),
        topo_(dist::Topology::RoundRobin(&reg_, options.spec.k)),
        alg_(&topo_),
        state_(alg_.Initial()) {}

  Status Run() {
    if (options_.node >= topo_.k()) {
      return Status::InvalidArgument("node id out of range");
    }
    RNT_RETURN_IF_ERROR(
        ValidateLoopOptions(options_.propagation, topo_.k(), {}));
    // No static abort set here: aborts come only from the watchdog.
    auto plan = PlanProgram(alg_, {});
    RNT_RETURN_IF_ERROR(plan.status());
    plan_ = std::move(*plan);
    NodeLoop::Config config;
    config.self = options_.node;
    config.propagation = options_.propagation;
    config.max_idle_spins = options_.max_idle_spins;
    loop_.emplace(alg_, state_, plan_, config, *this);
    RNT_RETURN_IF_ERROR(OpenDurable());
    if (options_.recover) RNT_RETURN_IF_ERROR(ReplayTraces());
    RNT_RETURN_IF_ERROR(Connect());
    RNT_RETURN_IF_ERROR(loop_->Run());
    // Bounded rebirth: leave the retention log compacted, so the next
    // incarnation (or a post-mortem audit) replays O(entries) records.
    if (!retained_.empty()) {
      RNT_RETURN_IF_ERROR(retention_->Checkpoint(retained_));
    }
    return Status::Ok();
  }

  Status Record(const DistEvent& e, std::uint64_t* stamp) override {
    *stamp = ++clock_;
    return trace_->Append(*stamp, e);
  }

  void Observe(std::uint64_t clock) override {
    clock_ = std::max(clock_, clock);
  }

  Status Retain(const ActionSummary& payload) override {
    for (const auto& [a, s] : payload.entries()) {
      RNT_RETURN_IF_ERROR(retention_->Append(a, s));
    }
    retained_.MergeFrom(payload);
    if (retention_->SuggestCheckpoint(retained_.size())) {
      return retention_->Checkpoint(retained_);
    }
    return Status::Ok();
  }

  /// The clock rides along for the receiver's Lamport merge; a frame the
  /// hub's interposer drops never becomes an event.
  void Send(NodeId to, ActionSummary payload) override {
    // Fire-and-forget by ℬ's message model: the network may eat any
    // transmission, and anti-entropy rebroadcasts repair the gap.
    (void)transport_->Send(  // rnt-lint: allow(status-must-use)
        to, TransportMessage{options_.node, std::move(payload), 0, clock_});
  }

  std::vector<TransportMessage> Poll() override {
    return transport_->Poll(options_.node);
  }

  void OnDone() override { Beat(); }

  bool AllDone() override { return transport_->AllDone(); }

  /// Heartbeat tick: hub-observed time advances while everyone stalls.
  void Tick() override {
    ++clock_;
    Beat();
  }

  bool Pace(bool progress) override {
    if ((loop_->passes() & 0xff) == 0) Beat();  // periodic liveness
    if (progress) return true;
    const std::uint64_t idle = loop_->idle();
    if (idle > 10 * options_.max_idle_spins) {
      return false;  // supervisor unreachable for good; exit on our own
    }
    // Whether a frame arrived or the cap passed, the next pass polls.
    transport_->Wait(kIdleWaitCapMs);
    return true;
  }

 private:
  Status OpenDurable() {
    // Retention first: Open repairs a torn tail in place, so the Load
    // below (and every later rebirth) reads a clean prefix.
    auto log = storage::RetentionLog::Open(options_.dir, options_.node);
    RNT_RETURN_IF_ERROR(log.status());
    retention_ = std::move(*log);
    auto loaded = storage::RetentionLog::Load(options_.dir, options_.node);
    if (loaded.ok()) {
      retained_ = std::move(*loaded);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
    return Status::Ok();
  }

  /// Rebirth, part 1 (paper §9.1): mechanical replay of this node's own
  /// trace files rebuilds the node component exactly as the crashed
  /// incarnations left it — summary, lock table, buffer mirror M_i. These
  /// events are *already recorded*; they are applied, not re-recorded.
  /// Part 2 is the loop's Rebirth in Connect: one Receive of the
  /// retention log's summary, recorded as the first event of the new
  /// incarnation, re-establishes knowledge a crash between apply and
  /// trace-append may have cost the summary.
  Status ReplayTraces() {
    for (std::uint32_t g = 0; g < options_.incarnation; ++g) {
      auto events = EventLog::Load(options_.dir, options_.node, g);
      if (!events.ok()) {
        if (events.status().code() == StatusCode::kNotFound) {
          continue;  // killed before this incarnation traced anything
        }
        return events.status();
      }
      for (StampedEvent& se : *events) {
        clock_ = std::max(clock_, se.stamp);
        alg_.Apply(state_, std::move(se.event));
      }
    }
    return Status::Ok();
  }

  Status Connect() {
    auto trace =
        EventLog::Open(options_.dir, options_.node, options_.incarnation);
    RNT_RETURN_IF_ERROR(trace.status());
    trace_ = std::move(*trace);
    if (options_.recover) RNT_RETURN_IF_ERROR(loop_->Rebirth(retained_));
    HelloFrame hello;
    hello.node = options_.node;
    hello.incarnation = options_.incarnation;
    hello.recovered = options_.recover;
    hello.recovered_scalar = SummaryScalar(retained_);
    hello.clock = clock_;
    auto transport = SocketTransport::Connect(
        SocketTransport::Options{options_.node, options_.incarnation,
                                 options_.endpoint},
        hello);
    RNT_RETURN_IF_ERROR(transport.status());
    transport_ = std::move(*transport);
    return Status::Ok();
  }

  void Beat() {
    HeartbeatFrame f;
    f.node = options_.node;
    f.clock = clock_;
    f.done = loop_->marked_done();
    f.gave_up = loop_->gave_up();
    f.acked_scalar = SummaryScalar(retained_);
    f.retries = loop_->stats().retries;
    // Liveness only: a lost beat is indistinguishable from silence, and
    // the next one supersedes it.
    (void)transport_->SendHeartbeat(f);  // rnt-lint: allow(status-must-use)
  }

  const NodeRuntimeOptions& options_;
  action::ActionRegistry reg_;
  dist::Topology topo_;
  dist::DistAlgebra alg_;
  dist::DistState state_;
  LoopPlan plan_;
  std::optional<NodeLoop> loop_;

  std::uint64_t clock_ = 0;
  std::unique_ptr<EventLog> trace_;
  std::unique_ptr<storage::RetentionLog> retention_;
  /// In-memory mirror of the retention log's deduped content; merged
  /// only after the corresponding Append returned, so its scalar is the
  /// durably-acknowledged progress the heartbeat reports.
  ActionSummary retained_;
  std::unique_ptr<SocketTransport> transport_;
};

}  // namespace

Status RunNodeProcess(const NodeRuntimeOptions& options) {
  NodeRuntime node(options);
  return node.Run();
}

}  // namespace rnt::sim
