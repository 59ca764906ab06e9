#ifndef RNT_SIM_MESSAGE_BUFFER_H_
#define RNT_SIM_MESSAGE_BUFFER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "dist/summary.h"
#include "sim/mpsc_queue.h"

namespace rnt::sim {

/// One in-flight transmission toward the owning destination node, as
/// every transport backend carries it (transport.h's TransportMessage).
struct NodeMessage {
  NodeId from = 0;
  dist::ActionSummary summary;
  /// Receiver-side holds before delivery (fault injection: a positive
  /// value delays the message past `delay` drain passes; distinct delays
  /// reorder messages).
  int delay = 0;
  /// The sender's Lamport clock at transmission, for the socket backends
  /// (the in-process backend stamps from one global counter; 0 there).
  std::uint64_t clock = 0;
};

/// The concurrent message buffer of the parallel runner: one MPSC queue
/// per destination node (the Treiber-list core lives in
/// sim::MpscQueue, shared with the batched front end's submission
/// queues). Producers push with a lock-free CAS loop; the single
/// consumer for a destination detaches the whole list with one exchange
/// and reverses it to recover FIFO order. Slots are cache-line
/// separated so concurrent senders to different destinations never
/// contend.
///
/// Two resilience features ride on the same slots:
///  * A per-destination *durable retention buffer* — the monotone M_i of
///    the paper's §9.1 recovery argument ("all information ever sent
///    toward node i"). The owner thread merges every drained payload and
///    every WAL self-append into it via Retain; a crash may wipe the
///    node's volatile ActionSummary, but the retention summary survives
///    and a reborn node recovers with one legal Receive(i, Retained(i)).
///    Single-writer discipline: only node i's (current) thread calls
///    Retain(i, ...); crash/rebirth hand-offs are sequenced by the
///    supervisor's thread join, so no lock is needed.
///  * A *link-level partition filter*: when set, Push consults it with
///    (from, to) and silently refuses transmissions across a severed
///    link — the network drops them; retention is untouched because the
///    payload never reached the destination's durable log.
class ConcurrentMailbox {
 public:
  using LinkFilter = std::function<bool(NodeId from, NodeId to)>;

  explicit ConcurrentMailbox(NodeId k) : slots_(k) {}

  ConcurrentMailbox(const ConcurrentMailbox&) = delete;
  ConcurrentMailbox& operator=(const ConcurrentMailbox&) = delete;

  /// Installs the partition filter. Must be called before any producer
  /// thread starts (the filter object itself is read concurrently but
  /// never mutated afterwards).
  void SetLinkFilter(LinkFilter filter) { filter_ = std::move(filter); }

  /// Lock-free multi-producer push toward `to`. Returns false when the
  /// link filter severed the (msg.from, to) link — the transmission is
  /// dropped by the network and never enqueued.
  bool Push(NodeId to, NodeMessage msg) {
    if (filter_ && msg.from != to && filter_(msg.from, to)) return false;
    slots_[to].queue.Push(std::move(msg));
    return true;
  }

  /// Detaches and returns every pending message for `to`, oldest first.
  /// Must only be called by node `to`'s thread (single consumer).
  std::vector<NodeMessage> Drain(NodeId to) { return slots_[to].queue.Drain(); }

  /// True when no message is pending for `to` (racy by nature; used only
  /// as a fast-path hint to skip an empty Drain).
  bool Empty(NodeId to) const { return slots_[to].queue.Empty(); }

  /// Merges `payload` into destination `to`'s durable retention buffer
  /// M_to. Owner-thread only (see class comment).
  void Retain(NodeId to, const dist::ActionSummary& payload) {
    slots_[to].retained.MergeFrom(payload);
  }

  /// The durable M_to: everything ever retained toward `to`. Readable by
  /// the owner thread, or by the supervisor after joining it.
  const dist::ActionSummary& Retained(NodeId to) const {
    return slots_[to].retained;
  }

 private:
  struct alignas(64) Slot {
    MpscQueue<NodeMessage> queue;
    /// Durable retention summary M_i (single-writer: the owner thread).
    dist::ActionSummary retained;
  };
  std::vector<Slot> slots_;
  LinkFilter filter_;
};

}  // namespace rnt::sim

#endif  // RNT_SIM_MESSAGE_BUFFER_H_
