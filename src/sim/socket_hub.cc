#include "sim/socket_hub.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "storage/file_io.h"

namespace rnt::sim {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

StatusOr<std::unique_ptr<SocketHub>> SocketHub::Start(const Options& options) {
  std::unique_ptr<SocketHub> hub(new SocketHub(options));
  Status st = hub->Bind();
  if (!st.ok()) return st;
  hub->wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (hub->wake_fd_ < 0) {
    return Status::Internal(std::string("hub: eventfd failed: ") +
                            std::strerror(errno));
  }
  {
    MutexLock l(hub->hub_mu_);
    hub->status_.resize(options.k);
    hub->reset_requests_.assign(options.k, 0);
  }
  hub->thread_ = std::thread([h = hub.get()] { h->ThreadMain(); });
  return hub;
}

SocketHub::~SocketHub() { Stop(); }

Status SocketHub::Bind() {
  if (options_.backend == Backend::kUnix) {
    unix_path_ = options_.dir + "/hub.sock";
    if (storage::FileExists(unix_path_)) {
      // Stale socket from a dead run; bind() below reports real trouble.
      (void)storage::RemoveFile(  // rnt-lint: allow(status-must-use)
          unix_path_);
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path_.size() + 1 > sizeof(addr.sun_path)) {
      return Status::InvalidArgument("hub: unix socket path too long: " +
                                     unix_path_);
    }
    std::memcpy(addr.sun_path, unix_path_.c_str(), unix_path_.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0 || !SetNonBlocking(listen_fd_)) {
      return Status::Internal("hub: cannot listen on unix socket " +
                              unix_path_ + ": " + std::strerror(errno));
    }
    endpoint_ = "unix:" + unix_path_;
    return Status::Ok();
  }
  // TCP on loopback with an ephemeral port; getsockname discovers it.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0 || !SetNonBlocking(listen_fd_)) {
    return Status::Internal(std::string("hub: cannot listen on tcp: ") +
                            std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::Internal("hub: getsockname failed");
  }
  endpoint_ = "tcp:127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
  return Status::Ok();
}

std::vector<SocketHub::NodeStatus> SocketHub::Snapshot() const {
  MutexLock l(hub_mu_);
  return status_;
}

SocketHub::HubStats SocketHub::Stats() const {
  MutexLock l(hub_mu_);
  return stats_;
}

std::uint64_t SocketHub::AwaitProgress(std::uint64_t seen,
                                       int timeout_ms) const {
  // Capped wall-clock wait: the caller's deadline and schedule checks
  // run at least this often; hub events end it early.
  // rnt-lint: allow(wall-clock-wait)
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
  MutexLock l(hub_mu_);
  while (progress_ == seen) {
    if (progress_cv_.WaitUntil(hub_mu_, until) == std::cv_status::timeout) {
      break;
    }
  }
  return progress_;
}

void SocketHub::Wake() {
  const std::uint64_t one = 1;
  // A full counter (never reached) is still readable, so a failed write
  // cannot lose the wake-up.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void SocketHub::BroadcastAllDone() {
  {
    MutexLock l(hub_mu_);
    broadcast_all_done_ = true;
  }
  Wake();
}

void SocketHub::ResetNode(NodeId node) {
  {
    MutexLock l(hub_mu_);
    if (node < reset_requests_.size()) reset_requests_[node] = 1;
  }
  Wake();
}

void SocketHub::ClearNodeProgress(NodeId node) {
  MutexLock l(hub_mu_);
  if (node < status_.size()) {
    status_[node].done = false;
    status_[node].gave_up = false;
    status_[node].connected = false;
  }
}

void SocketHub::Stop() {
  {
    MutexLock l(hub_mu_);
    if (stop_) return;
    stop_ = true;
  }
  if (wake_fd_ >= 0) Wake();
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    (void)::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    (void)::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (!unix_path_.empty() && storage::FileExists(unix_path_)) {
    // Shutdown tidy-up of the socket node; nothing depends on it.
    (void)storage::RemoveFile(  // rnt-lint: allow(status-must-use)
        unix_path_);
  }
}

void SocketHub::ThreadMain() {
  // All socket state (conns, the interposer) is owned by this thread;
  // hub_mu_ guards only the status/control table shared with the
  // supervisor, and is never held across a syscall.
  faults::LinkInterposer interposer(options_.plan);
  std::vector<Conn> conns;
  std::vector<std::uint32_t> hellos(options_.k, 0);
  // Frames for nodes that have not said their first hello yet.
  std::vector<std::string> held(options_.k);
  // Each node's retry count as its current incarnation last reported.
  std::vector<std::uint64_t> retries_seen(options_.k, 0);
  bool all_done_sent = false;

  auto conn_of = [&](NodeId node) -> Conn* {
    for (Conn& c : conns) {
      if (c.fd >= 0 && c.node == static_cast<int>(node)) return &c;
    }
    return nullptr;
  };

  auto handle_frame = [&](Conn& c, Frame&& f) {
    std::uint64_t frame_clock = 0;
    switch (f.type) {
      case FrameType::kHello: {
        const HelloFrame& h = f.hello;
        if (h.node >= options_.k) break;  // malformed peer; ignore
        // A node's latest connection wins: drop any stale one (e.g. a
        // killed process whose fd has not reached EOF yet).
        for (Conn& other : conns) {
          if (&other != &c && other.fd >= 0 &&
              other.node == static_cast<int>(h.node)) {
            (void)::close(other.fd);
            other.fd = -1;
          }
        }
        c.node = static_cast<int>(h.node);
        frame_clock = h.clock;
        if (hellos[h.node] == 0) {
          c.outbuf += held[h.node];  // ahead of anything routed later
          std::string().swap(held[h.node]);
        }
        MutexLock l(hub_mu_);
        NodeStatus& s = status_[h.node];
        if (s.incarnation != h.incarnation) retries_seen[h.node] = 0;
        s.connected = true;
        s.incarnation = h.incarnation;
        s.clock = std::max(s.clock, h.clock);
        if (h.recovered) {
          s.ever_recovered = true;
          s.recovered_scalar = std::max(s.recovered_scalar,
                                        h.recovered_scalar);
        }
        if (hellos[h.node]++ > 0) ++stats_.reconnects;
        NoteProgress();
        break;
      }
      case FrameType::kSummary: {
        if (c.node < 0 || f.summary.from != static_cast<NodeId>(c.node) ||
            f.summary.to >= options_.k) {
          break;  // unhandshaked or spoofed frame; ignore
        }
        frame_clock = f.summary.clock;
        std::uint64_t observed = 0;
        {
          MutexLock l(hub_mu_);
          ++stats_.frames;
          NodeStatus& s = status_[f.summary.from];
          s.clock = std::max(s.clock, f.summary.clock);
          for (const NodeStatus& st : status_) {
            observed = std::max(observed, st.clock);
          }
        }
        const auto verdict = interposer.OnFrame(
            f.summary.from, f.summary.to,
            static_cast<std::int64_t>(observed));
        if (verdict.reset) {
          // The partition window just opened: sever the physical link
          // once, forcing both endpoints through their reconnect path.
          Conn* a = conn_of(f.summary.from);
          Conn* b = conn_of(f.summary.to);
          if (a != nullptr) CloseConn(*a);
          if (b != nullptr && b != a) CloseConn(*b);
          MutexLock l(hub_mu_);
          ++stats_.resets;
        }
        if (verdict.drop) {
          MutexLock l(hub_mu_);
          if (verdict.partitioned) {
            ++stats_.partitioned;
          } else {
            ++stats_.dropped;
          }
          break;
        }
        const NodeId to = f.summary.to;
        Conn* dst = conn_of(to);
        std::string* sink = dst != nullptr  ? &dst->outbuf
                            : hellos[to] == 0 ? &held[to]
                                              : nullptr;
        if (sink == nullptr) {
          // Target down after its first hello: the network ate it.
          if (!all_done_sent) {
            MutexLock l(hub_mu_);
            ++stats_.unrouted;
          }
          break;
        }
        SummaryFrame out = std::move(f.summary);
        out.delay = static_cast<std::uint32_t>(verdict.delay);
        *sink += EncodeSummaryFrame(out);
        if (verdict.delay > 0 || verdict.duplicate_delay >= 0) {
          MutexLock l(hub_mu_);
          if (verdict.delay > 0) ++stats_.delayed;
          if (verdict.duplicate_delay >= 0) ++stats_.duplicated;
        }
        if (verdict.duplicate_delay >= 0) {
          out.delay = static_cast<std::uint32_t>(verdict.duplicate_delay);
          *sink += EncodeSummaryFrame(out);
        }
        break;
      }
      case FrameType::kHeartbeat: {
        const HeartbeatFrame& h = f.heartbeat;
        if (c.node < 0 || h.node != static_cast<NodeId>(c.node)) break;
        frame_clock = h.clock;
        MutexLock l(hub_mu_);
        NodeStatus& s = status_[h.node];
        s.clock = std::max(s.clock, h.clock);
        s.done = h.done;
        s.gave_up = h.gave_up;
        s.acked_scalar = std::max(s.acked_scalar, h.acked_scalar);
        if (h.retries > retries_seen[h.node]) {
          s.retries += h.retries - retries_seen[h.node];
          retries_seen[h.node] = h.retries;
        }
        NoteProgress();
        break;
      }
      case FrameType::kAllDone:
        break;  // node → hub never sends this
    }
    (void)frame_clock;
  };

  for (;;) {
    // Control actions from the supervisor.
    bool broadcast = false;
    std::vector<NodeId> resets;
    {
      MutexLock l(hub_mu_);
      if (stop_) break;
      if (broadcast_all_done_) {
        broadcast = true;
        broadcast_all_done_ = false;
      }
      for (NodeId n = 0; n < reset_requests_.size(); ++n) {
        if (reset_requests_[n] != 0) {
          resets.push_back(n);
          reset_requests_[n] = 0;
        }
      }
    }
    for (NodeId n : resets) {
      Conn* c = conn_of(n);
      if (c != nullptr) CloseConn(*c);
    }
    if (broadcast) {
      all_done_sent = true;
      const std::string frame = EncodeAllDone();
      for (Conn& c : conns) {
        if (c.fd >= 0 && c.node >= 0) c.outbuf += frame;
      }
    }

    // Poll the listener and every live connection.
    std::vector<pollfd> pfds;
    std::vector<std::size_t> idx;  // pfds[i+2] -> conns[idx[i]]
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    pfds.push_back(pollfd{wake_fd_, POLLIN, 0});
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].fd < 0) continue;
      short events = POLLIN;
      if (!conns[i].outbuf.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{conns[i].fd, events, 0});
      idx.push_back(i);
    }
    // No timeout: every control action comes with a Wake().
    const int ready = ::poll(pfds.data(), pfds.size(), -1);
    if (ready < 0 && errno != EINTR) break;  // unrecoverable
    if (pfds[1].revents & POLLIN) {
      std::uint64_t count = 0;
      (void)!::read(wake_fd_, &count, sizeof(count));  // rearm
    }

    if (pfds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd)) {
          (void)::close(fd);
          continue;
        }
        int one = 1;
        (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Conn* slot = nullptr;
        for (Conn& c : conns) {
          if (c.fd < 0) {
            slot = &c;
            break;
          }
        }
        if (slot == nullptr) {
          conns.emplace_back();
          slot = &conns.back();
        }
        *slot = Conn{};
        slot->fd = fd;
      }
    }

    for (std::size_t p = 2; p < pfds.size(); ++p) {
      Conn& c = conns[idx[p - 2]];
      if (c.fd < 0) continue;  // closed by an earlier frame this round
      if (pfds[p].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConn(c);
        continue;
      }
      if (pfds[p].revents & POLLIN) {
        char chunk[16384];
        bool dead = false;
        for (;;) {
          const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
          if (n > 0) {
            c.inbuf.append(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) {
            dead = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          dead = true;
          break;
        }
        std::vector<Frame> frames;
        if (!DrainFrames(c.inbuf, frames).ok()) dead = true;
        for (Frame& f : frames) {
          if (c.fd < 0) break;  // a reset verdict closed us mid-batch
          handle_frame(c, std::move(f));
        }
        if (dead && c.fd >= 0) CloseConn(c);
        if (c.fd < 0) continue;
      }
      if ((pfds[p].revents & POLLOUT) && !c.outbuf.empty()) {
        FlushOutbound(c);
      }
    }
    // Writes may have become possible for conns that were not polled for
    // POLLOUT this round (new frames were queued while handling reads).
    for (Conn& c : conns) {
      if (c.fd >= 0 && !c.outbuf.empty()) FlushOutbound(c);
    }
  }

  for (Conn& c : conns) {
    if (c.fd >= 0) (void)::close(c.fd);
  }
}

void SocketHub::FlushOutbound(Conn& c) {
  std::size_t off = 0;
  while (off < c.outbuf.size()) {
    const ssize_t n = ::send(c.fd, c.outbuf.data() + off,
                             c.outbuf.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(c);  // peer gone
    c.outbuf.clear();
    return;
  }
  c.outbuf.erase(0, off);
}

void SocketHub::CloseConn(Conn& c) {
  if (c.fd >= 0) {
    (void)::close(c.fd);
    c.fd = -1;
  }
  if (c.node >= 0 && static_cast<NodeId>(c.node) < options_.k) {
    MutexLock l(hub_mu_);
    status_[static_cast<NodeId>(c.node)].connected = false;
    NoteProgress();
  }
}

void SocketHub::NoteProgress() {
  ++progress_;
  progress_cv_.NotifyAll();
}

}  // namespace rnt::sim
