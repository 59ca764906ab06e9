#ifndef RNT_SIM_NODE_LOOP_H_
#define RNT_SIM_NODE_LOOP_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dist/dist_algebra.h"
#include "faults/faults.h"
#include "sim/dist_driver.h"
#include "sim/event_log.h"
#include "sim/transport.h"

namespace rnt::sim {

/// Idle passes before a node's first anti-entropy retry: the base of the
/// watchdog's bounded exponential backoff (shift capped at 5).
inline constexpr int kStallRetrySpins = 64;
/// Unproductive watchdog retries before a timeout-abort, for hosts that
/// do not tune it (ParallelOptions::max_attempts_per_step does).
inline constexpr int kMaxAttemptsPerStep = 16;

/// The checks every host of a NodeLoop runs before it starts one: the
/// loop is reactive (nodes learn, they are not asked), so it supports
/// only the broadcast policies kDelta and kEager — kLazy needs a request
/// channel no host has — and the fault plan must be well formed for k
/// nodes.
Status ValidateLoopOptions(Propagation propagation, NodeId k,
                           const faults::FaultPlan& plan);

/// The static schedule of one program, from one DFS walk of the universal
/// tree with children in id order — exactly the sequential driver's
/// schedule. Shared read-only by the loops of all k nodes.
struct LoopPlan {
  struct Object {
    ObjectId x = 0;
    /// Live accesses on x in the DFS driver's perform order (the ticket
    /// list). Pinning per-object perform order to it makes every wait
    /// point from a DFS-later access to a DFS-earlier transaction —
    /// deadlock-free by the same argument as the sequential driver, and
    /// value-for-value equivalent to it.
    std::vector<ActionId> tickets;
  };
  /// One node's obligations, in DFS order (parents before children).
  struct Node {
    std::vector<ActionId> creates;  // actions originating here
    std::vector<ActionId> aborts;   // abort_set members homed here
    std::vector<ActionId> commits;  // live inner actions homed here
    std::vector<Object> objects;    // objects homed here
  };
  std::vector<std::vector<ActionId>> children;
  std::vector<Node> nodes;
};

/// Plans `alg`'s program with `abort_set` aborted (instead of committed)
/// once created and its subtrees pruned. InvalidArgument unless every
/// member is a registered non-access action.
StatusOr<LoopPlan> PlanProgram(const dist::DistAlgebra& alg,
                               const std::set<ActionId>& abort_set);

/// Everything a NodeLoop needs from the runtime hosting it. The thread
/// host (ParallelRunner) and the process host (rnt_node's NodeRuntime)
/// implement it; so does the single-thread fake in node_loop_test.
class NodeHost {
 public:
  virtual ~NodeHost() = default;

  /// Stamp and record: gives `e` the next stamp of the run's order and
  /// appends it to the run's trace (*stamp receives it; 0 when the host
  /// keeps no order). Non-ok stops the loop.
  virtual Status Record(const dist::DistEvent& e, std::uint64_t* stamp) = 0;
  /// Lamport merge before a delivered message's Send is recorded: raise
  /// the clock past the sender's transmit clock. The thread host's stamp
  /// counter is global, so it does nothing there.
  virtual void Observe(std::uint64_t /*clock*/) {}
  /// Retain: merges `payload` into the node's durable buffer M_i. The
  /// loop calls it only after Record returned for the Send that carried
  /// the payload (record-then-retain). A process may be killed between
  /// any two instructions, so that order is what keeps retention ⊆ trace
  /// and the rebirth Receive legal against the replayed trace; a thread
  /// crashes only between passes, where either order would be safe.
  virtual Status Retain(const dist::ActionSummary& payload) = 0;
  /// Transmit: hands one transmission toward `to` to the network,
  /// fire-and-forget. The network may eat it; the watchdog's anti-entropy
  /// repairs the gap. No event is recorded here: the receiver records the
  /// Send when it delivers the message.
  virtual void Send(NodeId to, dist::ActionSummary payload) = 0;
  /// Everything currently deliverable to this node, oldest first.
  virtual std::vector<TransportMessage> Poll() = 0;
  /// The node just finished its obligations or gave up (see gave_up()).
  virtual void OnDone() = 0;
  /// True once every node is done: ends the loop after the current pass.
  virtual bool AllDone() = 0;
  /// Checked before each pass by Run(): true stops the loop (thread host:
  /// a crash is due or another node failed).
  virtual bool Halted() { return false; }
  /// A watchdog firing: advance the logical clock so stamp-based
  /// schedules stay live while every node idles.
  virtual void Tick() = 0;
  /// End of a pass. `progress` false means an idle pass; the host pauses
  /// as it sees fit. Returning false ends the loop.
  virtual bool Pace(bool progress) = 0;
};

/// One node of ℬ (paper §9, the level-5 model) as a free-running
/// reactive event loop: per pass it delivers mail, creates, aborts,
/// performs and commits what local knowledge allows, walks locks, and
/// ships new knowledge to its peers. The policy is the sequential
/// driver's DFS order, pinned per object by ticket lists.
///
/// The loop owns node `self`'s scheduling state and touches only
/// `state.nodes[self]` and `state.buffer[self]` (Local Domain / Local
/// Changes, Lemma 22), so k loops may share one DistState across threads.
/// A Send is applied on the receiving node when its message is delivered,
/// never by the sender, so a dropped transmission never becomes an event.
///
/// Every summary-changing event (create/commit/abort/perform) is followed
/// by a write-ahead one-entry self-send Send{i,i}: recorded, merged into
/// the buffer mirror, then retained, so M_i stays a superset of the
/// node's acted-on knowledge and a crash is recovered by one Receive.
///
/// A watchdog turns unservable waits into graceful degradation: after
/// idle passes it re-broadcasts the full summary (a dropped delta is gone
/// for good) with bounded exponential backoff, and past
/// max_attempts_per_step retries it timeout-aborts the deepest abortable
/// enclosing subtransaction homed here. After max_idle_spins idle passes
/// the node gives up (an incomplete, diagnosed run).
class NodeLoop {
 public:
  struct Config {
    NodeId self = 0;
    Propagation propagation = Propagation::kDelta;
    int max_attempts_per_step = kMaxAttemptsPerStep;
    std::uint64_t max_idle_spins = 0;
    /// The thread host turns the watchdog on only under a fault plan.
    bool watchdog = true;
    /// Keep every recorded event with its stamp in log().
    bool keep_log = false;
  };

  NodeLoop(const dist::DistAlgebra& alg, dist::DistState& state,
           const LoopPlan& plan, const Config& config, NodeHost& host);

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  /// Passes until the host halts, every node is done, or an error.
  Status Run() {
    while (!host_.Halted() && Step()) {
    }
    return err_;
  }
  /// One pass. False when the loop should end (see Run).
  bool Step();

  /// Crash: wipes the volatile summary and the held (delayed) messages.
  /// The lock table and the host's M_i survive.
  void Crash();
  /// Rebirth (paper §9.1): one legal Receive of the durable M_i. The
  /// obligation cursors then restart at the front, and the next pass
  /// skips what the recovered knowledge shows settled — creates in the
  /// summary, commits and aborts done, and accesses already performed
  /// (effect (d21) marks a performed access committed) — and re-walks
  /// the durable lock table.
  Status Rebirth(const dist::ActionSummary& retained);

  DriverStats& stats() { return stats_; }
  std::uint64_t passes() const { return passes_; }
  std::uint64_t idle() const { return idle_; }
  bool marked_done() const { return marked_done_; }
  bool gave_up() const { return gave_up_; }
  std::vector<StampedEvent>& log() { return log_; }

 private:
  struct Cursor {
    std::size_t next = 0;  // first ticket not yet performed
    bool drained = false;  // locks walked to the root after the last one
  };

  bool Record(dist::DistEvent e, bool retain = false);
  bool ApplyNodeEvent(dist::DistEvent e);
  bool DeliverMail();
  bool TryCreates();
  bool TryAborts();
  bool TryCommits();
  bool TryObjects();
  bool WalkLocks(ObjectId x, ActionId requester, bool* progress);
  ActionId Blocker(ObjectId x, ActionId requester) const;
  bool LocalDone() const;
  void Watchdog();
  bool TimeoutAbort();
  bool AbortAncestorHomedHere(ActionId blocker, ActionId requester);
  void Flush();
  void FullBroadcast();
  void ResetWatchdog();
  const dist::ActionSummary& Knowledge() const {
    return state_.nodes[config_.self].summary;
  }

  const dist::DistAlgebra& alg_;
  const action::ActionRegistry& reg_;
  dist::DistState& state_;
  const LoopPlan& plan_;
  const LoopPlan::Node& work_;
  const Config config_;
  NodeHost& host_;

  std::size_t next_create_ = 0;
  std::vector<char> created_;    // by ActionId, local creations only
  std::vector<char> done_flag_;  // aborts, then commits
  std::vector<Cursor> cursors_;  // parallel to work_.objects
  /// Knowledge shipping: version bumps on every local summary change;
  /// per-peer frontiers (kDelta) or last-shipped versions (kEager)
  /// decide what the next flush sends.
  std::uint64_t version_ = 0;
  std::vector<dist::ActionSummary> shipped_;
  std::vector<std::uint64_t> shipped_version_;
  /// Messages held back by a delay verdict (receiver side).
  std::vector<TransportMessage> held_;

  std::uint64_t passes_ = 0;
  std::uint64_t idle_ = 0;
  int attempts_ = 0;
  std::uint64_t next_retry_idle_ = kStallRetrySpins;
  bool marked_done_ = false;
  bool gave_up_ = false;
  DriverStats stats_;
  std::vector<StampedEvent> log_;
  Status err_ = Status::Ok();
};

}  // namespace rnt::sim

#endif  // RNT_SIM_NODE_LOOP_H_
