#include "sim/socket_transport.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace rnt::sim {

namespace {

/// Liveness-only wall-clock pause between reconnect attempts. ::poll
/// with no fds is the portable millisecond sleep that cannot change any
/// recorded outcome — the schedule of retries is not part of the model.
void PauseMs(int ms) {
  (void)::poll(nullptr, 0, ms);  // rnt-lint: allow(wall-clock-wait)
}

/// Parses "unix:<path>" or "tcp:<host>:<port>" and dials it.
int DialEndpoint(const std::string& endpoint) {
  if (endpoint.rfind("unix:", 0) == 0) {
    const std::string path = endpoint.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path)) return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      (void)::close(fd);
      return -1;
    }
    return fd;
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) return -1;
    const std::string host = rest.substr(0, colon);
    const int port = std::atoi(rest.c_str() + colon + 1);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      (void)::close(fd);
      return -1;
    }
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
  return -1;
}

}  // namespace

StatusOr<std::unique_ptr<SocketTransport>> SocketTransport::Connect(
    const Options& options, const HelloFrame& hello) {
  std::unique_ptr<SocketTransport> t(new SocketTransport(options, hello));
  if (!t->Reconnect()) {
    return Status::Internal("socket transport: cannot reach hub at " +
                            options.endpoint);
  }
  t->reconnects_ = 0;  // the first dial is not a *re*connect
  return t;
}

SocketTransport::~SocketTransport() { CloseFd(); }

void SocketTransport::CloseFd() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
  buf_.clear();  // a reconnect starts at a frame boundary
}

Status SocketTransport::Dial() {
  CloseFd();
  fd_ = DialEndpoint(options_.endpoint);
  if (fd_ < 0) {
    return Status::Internal("socket transport: dial failed for " +
                            options_.endpoint);
  }
  return Status::Ok();
}

bool SocketTransport::Reconnect() {
  int backoff = options_.backoff_initial_ms;
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    if (Dial().ok() && WriteFrame(EncodeHello(hello_))) {
      ++reconnects_;
      return true;
    }
    PauseMs(backoff);
    backoff = std::min(backoff * 2, options_.backoff_max_ms);
  }
  CloseFd();
  return false;
}

bool SocketTransport::WriteFrame(const std::string& frame) {
  if (fd_ < 0) return false;
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Blocking socket: only reachable under pathological buffer
      // pressure; wait until the hub drains some, then retry.
      pollfd p{fd_, POLLOUT, 0};
      (void)::poll(&p, 1, -1);
      continue;
    }
    CloseFd();
    return false;
  }
  return true;
}

bool SocketTransport::ReadPending() {
  if (fd_ < 0) return false;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {  // orderly EOF — the hub reset us
      CloseFd();
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseFd();  // ECONNRESET etc.
    return false;
  }
  std::vector<Frame> frames;
  if (!DrainFrames(buf_, frames).ok()) {
    // A malformed stream is unrecoverable in place; reconnect clean.
    CloseFd();
    return false;
  }
  for (Frame& f : frames) {
    switch (f.type) {
      case FrameType::kSummary:
        pending_.push_back(TransportMessage{
            f.summary.from, std::move(f.summary.summary),
            static_cast<int>(f.summary.delay), f.summary.clock});
        break;
      case FrameType::kAllDone:
        all_done_ = true;
        break;
      default:
        break;  // hub → node sends only summaries and kAllDone
    }
  }
  return true;
}

bool SocketTransport::Send(NodeId to, TransportMessage msg) {
  SummaryFrame f;
  f.from = options_.self;
  f.to = to;
  f.clock = msg.clock;
  f.delay = static_cast<std::uint32_t>(msg.delay < 0 ? 0 : msg.delay);
  f.summary = std::move(msg.summary);
  if (WriteFrame(EncodeSummaryFrame(f))) return true;
  // Link down: one reconnect round, then retry once. Still down —
  // the network ate the transmission; anti-entropy will recover it.
  if (Reconnect() && WriteFrame(EncodeSummaryFrame(f))) return true;
  return false;
}

std::vector<TransportMessage> SocketTransport::Poll(NodeId /*self*/) {
  if (!ReadPending() && fd_ < 0) {
    // Missed traffic is re-sent by peers' watchdogs; a failed attempt
    // is retried on the next Poll with backoff inside Reconnect.
    (void)Reconnect();  // rnt-lint: allow(status-must-use)
  }
  std::vector<TransportMessage> out;
  out.swap(pending_);
  return out;
}

bool SocketTransport::Wait(int timeout_ms) {
  if (!pending_.empty() || all_done_) return true;
  if (fd_ < 0) {
    PauseMs(timeout_ms);
    return false;
  }
  pollfd p{fd_, POLLIN, 0};
  // Capped: the caller's watchdog counts idle passes, so each idle pass
  // must still end within timeout_ms when nothing arrives.
  return ::poll(&p, 1, timeout_ms) > 0;  // rnt-lint: allow(wall-clock-wait)
}

bool SocketTransport::SendHeartbeat(const HeartbeatFrame& f) {
  if (WriteFrame(EncodeHeartbeat(f))) return true;
  return Reconnect() && WriteFrame(EncodeHeartbeat(f));
}

}  // namespace rnt::sim
