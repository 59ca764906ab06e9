#ifndef RNT_SIM_SOCKET_HUB_H_
#define RNT_SIM_SOCKET_HUB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "faults/link_interposer.h"
#include "sim/wire.h"

namespace rnt::sim {

/// The supervisor's message system: a hub-and-spoke router the k node
/// processes connect to (Unix-domain or TCP), standing in for ℬ's
/// buffer component. Every kSummary frame from node i to node j passes
/// the LinkInterposer, which maps the seeded FaultPlan onto the real
/// sockets — random drop/duplicate/delay, stamp-windowed partitions
/// judged on the hub-observed Lamport clock, and one-shot connection
/// resets when a partition window opens.
///
/// Routing after the verdict: a frame to a node that has never sent its
/// first kHello is held in a per-node buffer and queued ahead of
/// everything else when that hello arrives (ℬ's buffer may delay a
/// message; holding it keeps the link's order). A frame to a node whose
/// connection closed after its first hello is dropped and counted as
/// `unrouted`: a crashed or partitioned node loses what the network
/// carried meanwhile, and anti-entropy repairs the gap.
///
/// Threading: one hub thread owns all socket I/O (a poll() loop over
/// the listener, every node connection and a wake-up eventfd, with no
/// timeout: delay verdicts travel inside the frame, so the hub keeps no
/// timers). The supervisor thread reads progress snapshots, waits for
/// hellos and heartbeats, and enqueues control actions (broadcast,
/// reset, stop — each wakes the hub at once) through a small table
/// guarded by hub_mu_ (kRankTransportHub).
class SocketHub {
 public:
  enum class Backend { kUnix, kTcp };

  struct Options {
    Backend backend = Backend::kUnix;
    /// Directory for the Unix socket file (unused for TCP).
    std::string dir;
    NodeId k = 3;
    faults::FaultPlan plan;
  };

  /// Progress snapshot of one node, assembled from its frames.
  struct NodeStatus {
    bool connected = false;
    bool done = false;
    bool gave_up = false;
    std::uint32_t incarnation = 0;
    std::uint64_t clock = 0;
    std::uint64_t acked_scalar = 0;
    /// Highest rebirth evidence seen: scalar recovered from the durable
    /// retention log, as reported by the latest recovering kHello.
    std::uint64_t recovered_scalar = 0;
    bool ever_recovered = false;
    /// Watchdog retries reported in heartbeats, summed over every
    /// incarnation of the node (each reports its own running count).
    std::uint64_t retries = 0;
  };

  struct HubStats {
    std::uint64_t frames = 0;
    std::uint64_t dropped = 0;       // random drops
    std::uint64_t partitioned = 0;   // partition-window drops
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t resets = 0;        // interposer-forced connection resets
    std::uint64_t reconnects = 0;    // kHello frames beyond the first
    /// Target closed after its first hello (crashed, reset, exited), so
    /// no live connection took the frame. Frames after the kAllDone
    /// broadcast are shutdown traffic and are not counted.
    std::uint64_t unrouted = 0;
  };

  /// Binds, listens, and starts the hub thread.
  static StatusOr<std::unique_ptr<SocketHub>> Start(const Options& options);
  ~SocketHub();

  SocketHub(const SocketHub&) = delete;
  SocketHub& operator=(const SocketHub&) = delete;

  /// The endpoint string node processes dial ("unix:..." / "tcp:...").
  const std::string& endpoint() const { return endpoint_; }

  std::vector<NodeStatus> Snapshot() const;
  HubStats Stats() const;

  /// Blocks until a kHello, heartbeat or connection loss arrives after
  /// the one that produced `seen`, or `timeout_ms` passes. Returns the
  /// progress count to pass to the next call (start with 0).
  std::uint64_t AwaitProgress(std::uint64_t seen, int timeout_ms) const;

  /// Queues a kAllDone broadcast to every connected node.
  void BroadcastAllDone();
  /// Queues a connection reset for `node` (e.g. before SIGKILL, so the
  /// dead process's socket never lingers as a routing target).
  void ResetNode(NodeId node);
  /// Clears the done/gave-up flags of `node` (called right after a kill:
  /// the reborn incarnation re-earns them).
  void ClearNodeProgress(NodeId node);

  /// Stops the hub thread and closes every socket.
  void Stop();

 private:
  explicit SocketHub(Options options) : options_(std::move(options)) {}

  Status Bind();
  void ThreadMain();
  /// Wakes the hub thread out of poll() so a control action runs now.
  void Wake();
  struct Conn;
  void FlushOutbound(Conn& c);
  /// Closes `c` and marks its node disconnected.
  void CloseConn(Conn& c);
  /// Wakes AwaitProgress callers.
  void NoteProgress() REQUIRES(hub_mu_);

  Options options_;
  std::string endpoint_;
  std::string unix_path_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Wake() makes it readable
  std::thread thread_;

  /// One accepted connection. Owned by the hub thread; `node` is set by
  /// the kHello handshake (-1 before it).
  struct Conn {
    int fd = -1;
    int node = -1;
    std::string inbuf;
    std::string outbuf;
  };

  mutable Mutex hub_mu_{"sim.hub", kRankTransportHub};
  bool stop_ GUARDED_BY(hub_mu_) = false;
  bool broadcast_all_done_ GUARDED_BY(hub_mu_) = false;
  std::vector<char> reset_requests_ GUARDED_BY(hub_mu_);
  std::vector<NodeStatus> status_ GUARDED_BY(hub_mu_);
  HubStats stats_ GUARDED_BY(hub_mu_);
  /// Bumped (and progress_cv_ notified) per hello, heartbeat and closed
  /// node connection.
  std::uint64_t progress_ GUARDED_BY(hub_mu_) = 0;
  mutable CondVar progress_cv_;
};

}  // namespace rnt::sim

#endif  // RNT_SIM_SOCKET_HUB_H_
