#ifndef RNT_SIM_TRANSPORT_H_
#define RNT_SIM_TRANSPORT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "dist/summary.h"
#include "sim/message_buffer.h"

namespace rnt::sim {

/// One summary transmission as seen by a transport backend: the sender,
/// the payload, the receiver-side hold count the fault machinery attaches,
/// and the sender's Lamport clock (see NodeMessage).
using TransportMessage = NodeMessage;

/// The transport seam of the ℬ runtime: how summaries travel between
/// nodes. Two interchangeable backends implement it —
///
///  * MailboxTransport (below): the in-process ConcurrentMailbox, one
///    thread per node in one address space;
///  * SocketTransport (socket_transport.h): a Unix-domain or TCP stream
///    to the supervisor's SocketHub (one backend, two socket families),
///    one OS *process* per node.
///
/// The contract mirrors ℬ's message system: Send is fire-and-forget
/// (the network may eat it — false means the transport already knows it
/// did, e.g. a severed link), and Poll drains everything currently
/// pending for `self`. Each NodeLoop host (node_loop.h) forwards its
/// transmit and poll hooks to one backend. Value-equivalence across
/// backends on the same seed is the point: the algebra never sees which
/// backend carried its knowledge.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Hands one transmission to the network. Returns false when the
  /// transport knows the message was lost (severed link, dead peer
  /// connection); callers count it as a dropped transmission.
  virtual bool Send(NodeId to, TransportMessage msg) = 0;

  /// Drains every transmission currently deliverable to `self`, oldest
  /// first. Single-consumer per destination.
  virtual std::vector<TransportMessage> Poll(NodeId self) = 0;
};

/// The in-process backend: a thin adapter over the lock-free
/// ConcurrentMailbox the multi-threaded runner always used. Retention
/// (M_i) and the link-level partition filter stay on the mailbox itself;
/// this seam carries only the transmissions.
class MailboxTransport final : public Transport {
 public:
  explicit MailboxTransport(ConcurrentMailbox* mailbox)
      : mailbox_(mailbox) {}

  bool Send(NodeId to, TransportMessage msg) override {
    return mailbox_->Push(to, std::move(msg));
  }

  std::vector<TransportMessage> Poll(NodeId self) override {
    return mailbox_->Drain(self);
  }

  /// Fast-path hint: true when Poll(self) would (probably) return
  /// nothing. Racy by nature — used only to skip empty drains.
  bool Idle(NodeId self) const { return mailbox_->Empty(self); }

 private:
  ConcurrentMailbox* mailbox_;
};

}  // namespace rnt::sim

#endif  // RNT_SIM_TRANSPORT_H_
