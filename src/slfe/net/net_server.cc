#include "slfe/net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "slfe/service/command_session.h"
#include "slfe/service/line_protocol.h"

namespace slfe::net {

namespace {

// epoll user-data ids for the two non-connection fds; connection ids
// start above them (next_conn_id_ begins at 2).
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

/// A line (or un-newlined prefix) longer than this drops the connection —
/// bounded memory per peer, the same contract as the bounded queue.
constexpr size_t kMaxLineBytes = 1 << 20;
/// Pending unread output beyond this drops the connection (a peer that
/// stopped reading must not grow the daemon's heap unboundedly).
constexpr size_t kMaxOutbufBytes = 8u << 20;

}  // namespace

/// Everything the loop knows about one peer. Owned by the connections_
/// map; only the loop thread touches it (workers reach the loop through
/// the CompletionHub, never the connection).
struct NetServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  /// Null until the handshake establishes the session (with auth
  /// configured, until a valid `auth` line arrives).
  std::unique_ptr<service::CommandSession> session;
  std::string inbuf;
  std::string outbuf;
  size_t out_off = 0;  ///< flushed prefix of outbuf (compacted lazily)
  /// Streamed submissions not yet completed on this connection.
  uint64_t outstanding = 0;
  /// Barrier active: buffered lines are NOT dispatched until outstanding
  /// drains to zero (pipelining stops at `wait`, exactly as a script
  /// expects).
  bool waiting = false;
  /// After the current barrier drains, close instead of resuming.
  bool quit_after_drain = false;
  /// No further dispatch; close once outstanding == 0 and outbuf flushed.
  bool closing = false;
  /// Close unconditionally at the end of the current pump (overflow), set
  /// from inside dispatch where an immediate close would free the running
  /// session.
  bool force_close = false;
  bool drop_on_close = false;  ///< count the close as server-initiated
  bool in_pump = false;        ///< re-entrance guard for PumpConnection
  uint32_t epoll_mask = 0;
  /// Observability: lifetime start, first-request-to-first-byte timing,
  /// and the largest pending-output backlog this peer ever accumulated.
  std::chrono::steady_clock::time_point accepted_at;
  std::chrono::steady_clock::time_point first_request_at;
  bool has_first_request = false;
  bool first_byte_recorded = false;
  size_t outbuf_high_water = 0;
};

/// One finished job on its way from a worker thread to the event loop.
struct NetServerCompletion {
  uint64_t conn_id = 0;
  uint64_t req = 0;
  service::JobResult result;
};

/// The worker->loop handoff. Completion callbacks run on JobService worker
/// threads and may outlive the server (a dropped connection's jobs still
/// finish), so they hold this by shared_ptr and check `closed` under the
/// lock instead of touching the server.
struct NetServerCompletionHub {
  std::mutex mu;
  std::deque<NetServerCompletion> items;
  int wake_fd = -1;
  bool closed = false;
};

NetServer::NetServer(service::JobService& service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {
  lifetime_hist_ = service_.metrics().GetHistogram(
      "slfe_net_connection_lifetime_seconds",
      "Accept-to-close seconds per TCP connection", 1e-3);
  outbuf_hwm_hist_ = service_.metrics().GetHistogram(
      "slfe_net_outbuf_high_water_bytes",
      "Largest pending-output backlog per TCP connection", 64.0);
  ttfb_hist_ = service_.metrics().GetHistogram(
      "slfe_net_request_to_first_byte_seconds",
      "First request byte to first response byte per TCP connection");
}

NetServer::~NetServer() {
  if (hub_ != nullptr) {
    std::lock_guard<std::mutex> lock(hub_->mu);
    hub_->closed = true;
  }
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status NetServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal(std::string("bind ") + options_.bind_address +
                            ": " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  hub_ = std::make_shared<NetServerCompletionHub>();
  hub_->wake_fd = wake_fd_;
  started_ = true;
  return Status::OK();
}

int NetServer::Serve() {
  std::vector<epoll_event> events(64);
  while (true) {
    if (stop_requested_.load() && !shutting_down_) BeginShutdown();
    if (shutting_down_ && connections_.empty()) break;

    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      any_error_ = true;
      break;
    }
    for (int i = 0; i < n; ++i) {
      uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        HandleAccept();
      } else if (id == kWakeId) {
        uint64_t counter = 0;
        while (::read(wake_fd_, &counter, sizeof(counter)) > 0) {
        }
        DrainCompletions();
      } else {
        auto it = connections_.find(id);
        if (it == connections_.end()) continue;  // closed earlier this round
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConnection(id, /*dropped=*/false);
          continue;
        }
        if (events[i].events & EPOLLIN) HandleReadable(*it->second);
        // Readable handling may have closed the connection; re-check.
        auto again = connections_.find(id);
        if (again != connections_.end() && (events[i].events & EPOLLOUT)) {
          PumpConnection(id);  // flushes, may resume a paused close
        }
      }
    }
  }
  return any_error_ ? 1 : 0;
}

void NetServer::Stop() {
  stop_requested_.store(true);
  // Only the lock-free eventfd write: a signal handler may call this (the
  // kernel delivers process-directed signals to an arbitrary thread, so
  // the loop's epoll_wait usually does NOT get the EINTR — it must be
  // woken explicitly to see the stop).
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::HandleAccept() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a raced-away connection
    if (shutting_down_ || connections_.size() >= options_.max_connections) {
      // Turn the peer away with a terminated reject. Best-effort: the
      // socket buffer is empty, so the single line fits or the peer is
      // already gone.
      const char kFull[] = "reject: server full\n";
      (void)!::send(fd, kFull, sizeof(kFull) - 1, MSG_NOSIGNAL);
      ::close(fd);
      service_.RecordConnectionClosed(/*dropped=*/true);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->accepted_at = std::chrono::steady_clock::now();
    conn->epoll_mask = EPOLLIN;
    epoll_event ev{};
    ev.events = conn->epoll_mask;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    service_.RecordConnectionAccepted();
    // The session is created lazily on the connection's first line (the
    // auth handshake when tokens are configured).
    connections_.emplace(conn->id, std::move(conn));
  }
}

void NetServer::HandleReadable(Connection& conn) {
  uint64_t id = conn.id;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!conn.has_first_request) {
        conn.has_first_request = true;
        conn.first_request_at = std::chrono::steady_clock::now();
      }
      conn.inbuf.append(buf, static_cast<size_t>(n));
      // Flood guard: a peer must not grow the daemon's heap without bound
      // by writing faster than its barrier allows us to dispatch.
      if (conn.inbuf.size() > kMaxLineBytes * 4) {
        Output(conn, "reject: input buffer overflow\n");
        FlushWrites(conn);
        CloseConnection(id, /*dropped=*/true);
        return;
      }
      continue;
    }
    if (n == 0) {
      // Peer closed its end; nothing more can be delivered to it.
      CloseConnection(id, /*dropped=*/false);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(id, /*dropped=*/false);
    return;
  }
  PumpConnection(id);
}

void NetServer::PumpConnection(uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end() || it->second->in_pump) return;
  it->second->in_pump = true;

  while (true) {
    it = connections_.find(id);
    if (it == connections_.end()) return;  // closed mid-dispatch
    Connection& conn = *it->second;
    if (conn.closing || conn.force_close) break;
    if (conn.waiting) {
      if (conn.outstanding > 0) break;
      // Barrier released: every submission before the `wait` (or `quit`,
      // or daemon shutdown) has streamed its result.
      if (conn.quit_after_drain || shutting_down_) {
        conn.closing = true;
        break;
      }
      conn.waiting = false;
      uint64_t req = conn.session != nullptr ? conn.session->accepted() : 0;
      Output(conn, "done req=" + std::to_string(req) + "\n");
    }
    size_t pos = conn.inbuf.find('\n');
    if (pos == std::string::npos) {
      if (conn.inbuf.size() > kMaxLineBytes) {
        Output(conn, "reject: line too long\n");
        FlushWrites(conn);
        CloseConnection(id, /*dropped=*/true);
        return;
      }
      break;
    }
    std::string line = conn.inbuf.substr(0, pos + 1);
    conn.inbuf.erase(0, pos + 1);
    DispatchLine(conn, line);
  }

  it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  conn.in_pump = false;
  if (conn.force_close) {
    CloseConnection(id, conn.drop_on_close);
    return;
  }
  if (!FlushWrites(conn)) return;
  if (conn.closing && conn.outstanding == 0 &&
      conn.out_off == conn.outbuf.size()) {
    CloseConnection(id, conn.drop_on_close);
  }
}

void NetServer::DispatchLine(Connection& conn, const std::string& line) {
  if (conn.session == nullptr) {
    HandleHandshake(conn, line);
    return;
  }
  switch (conn.session->HandleLine(line)) {
    case service::CommandSession::Disposition::kContinue:
      break;
    case service::CommandSession::Disposition::kWaitBarrier:
      conn.waiting = true;
      break;
    case service::CommandSession::Disposition::kQuit:
      conn.waiting = true;
      conn.quit_after_drain = true;
      break;
    case service::CommandSession::Disposition::kShutdown:
      Output(conn, "shutdown: draining\n");
      BeginShutdown();
      break;
  }
}

bool NetServer::HandleHandshake(Connection& conn, const std::string& line) {
  service::ParsedCommand cmd = service::ParseCommandLine(line);
  if (cmd.kind == service::ParsedCommand::Kind::kEmpty) return true;

  const bool required = !options_.auth_tokens.empty();
  if (cmd.kind == service::ParsedCommand::Kind::kAuth) {
    if (required) {
      auto it = options_.auth_tokens.find(cmd.auth_tenant);
      if (it == options_.auth_tokens.end() || it->second != cmd.auth_token) {
        // One generic message for unknown tenant and wrong token alike —
        // no tenant-existence oracle for a guessing peer.
        service_.RecordAuthFailure();
        Output(conn, "reject: auth failed\n");
        FlushWrites(conn);
        CloseConnection(conn.id, /*dropped=*/true);
        return false;
      }
    }
    std::string tenant = cmd.auth_tenant;
    MakeSession(conn, tenant);
    Output(conn, "ok tenant=" + tenant + "\n");
    return true;
  }
  if (required) {
    service_.RecordAuthFailure();
    Output(conn, "reject: auth required\n");
    FlushWrites(conn);
    CloseConnection(conn.id, /*dropped=*/true);
    return false;
  }
  // No auth configured and the peer opened with a regular command: an
  // unbound session, free to name any tenant.
  MakeSession(conn, "");
  DispatchLine(conn, line);
  return true;
}

void NetServer::MakeSession(Connection& conn, const std::string& bound_tenant) {
  service::CommandSession::Options sopt;
  sopt.scale_divisor = options_.scale_divisor;
  sopt.allow_shutdown = options_.allow_shutdown;
  sopt.bound_tenant = bound_tenant;
  uint64_t id = conn.id;
  auto sink = [this, id](std::string line) {
    auto it = connections_.find(id);
    if (it != connections_.end()) Output(*it->second, std::move(line));
  };
  auto hub = hub_;
  auto on_submitted = [this, id, hub](const service::JobTicket& ticket,
                                      uint64_t req) {
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    ++it->second->outstanding;
    // The callback runs on a worker thread (or inline if the job already
    // finished): never touch the server directly, only the hub.
    ticket->OnComplete([hub, id, req](const service::JobResult& result) {
      std::lock_guard<std::mutex> lock(hub->mu);
      if (hub->closed) return;
      hub->items.push_back(NetServerCompletion{id, req, result});
      uint64_t one = 1;
      (void)!::write(hub->wake_fd, &one, sizeof(one));
    });
  };
  conn.session = std::make_unique<service::CommandSession>(
      service_, std::move(sopt), std::move(sink), std::move(on_submitted));
}

void NetServer::DrainCompletions() {
  std::deque<NetServerCompletion> batch;
  {
    std::lock_guard<std::mutex> lock(hub_->mu);
    batch.swap(hub_->items);
  }
  for (NetServerCompletion& done : batch) {
    if (!done.result.status.ok()) any_error_ = true;
    auto it = connections_.find(done.conn_id);
    if (it == connections_.end()) continue;  // peer gone; result discarded
    Connection& conn = *it->second;
    --conn.outstanding;
    Output(conn, service::FormatResult(done.result, done.req));
    service_.RecordResultStreamed();
    if (done.result.trace != nullptr) {
      // Completion-to-streamed latency: worker marked the trace complete,
      // the loop just handed the line to the socket path.
      double completed = done.result.trace->completed_at();
      if (completed >= 0.0) {
        done.result.trace->AddSpanSince("result_stream", completed);
      }
    }
    PumpConnection(done.conn_id);  // may release a barrier / finish a close
  }
}

void NetServer::Output(Connection& conn, std::string line) {
  if (conn.fd < 0 || conn.force_close) return;
  conn.outbuf.append(line);
  size_t pending = conn.outbuf.size() - conn.out_off;
  if (pending > conn.outbuf_high_water) conn.outbuf_high_water = pending;
  if (pending > kMaxOutbufBytes) {
    // A peer that stopped reading: drop it rather than buffer without
    // bound. Deferred to the end of the current pump — Output is called
    // from inside the session's dispatch, which must not free itself.
    conn.force_close = true;
    conn.drop_on_close = true;
  }
}

bool NetServer::FlushWrites(Connection& conn) {
  uint64_t id = conn.id;
  while (conn.out_off < conn.outbuf.size()) {
    ssize_t n = ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                       conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      if (!conn.first_byte_recorded && conn.has_first_request) {
        conn.first_byte_recorded = true;
        ttfb_hist_->Observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                conn.first_request_at)
                                .count());
      }
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpoll(conn, EPOLLIN | EPOLLOUT);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(id, /*dropped=*/false);
    return false;
  }
  if (conn.out_off > 0) {
    conn.outbuf.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  UpdateEpoll(conn, EPOLLIN);
  return true;
}

void NetServer::UpdateEpoll(Connection& conn, uint32_t mask) {
  if (conn.epoll_mask == mask || conn.fd < 0) return;
  conn.epoll_mask = mask;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void NetServer::CloseConnection(uint64_t id, bool dropped) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (conn.session != nullptr && conn.session->any_error()) any_error_ = true;
  if (conn.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
  }
  lifetime_hist_->Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              conn.accepted_at)
                              .count());
  outbuf_hwm_hist_->Observe(static_cast<double>(conn.outbuf_high_water));
  service_.RecordConnectionClosed(dropped);
  connections_.erase(it);
}

void NetServer::BeginShutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Every connection drains its outstanding jobs, then closes. Snapshot
  // the ids first: pumping may erase entries.
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    it->second->waiting = true;
    PumpConnection(id);
  }
}

}  // namespace slfe::net
