#ifndef SLFE_NET_NET_SERVER_H_
#define SLFE_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "slfe/common/status.h"
#include "slfe/service/job_service.h"

namespace slfe::net {

/// Worker->loop completion handoff state; defined in net_server.cc.
struct NetServerCompletionHub;

struct NetServerOptions {
  /// Bind address. The default keeps a development daemon off the open
  /// network; deployments opt into 0.0.0.0 explicitly.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (read the chosen port back via port() after Start —
  /// the test harness's path).
  uint16_t port = 0;
  /// tenant -> token. Non-empty: every connection must open with a valid
  /// `auth <tenant> <token>` line, and is then bound to that tenant —
  /// its submits/mutations may name no other. Empty: no handshake
  /// required; a leading `auth <tenant>` line still binds voluntarily.
  std::map<std::string, std::string> auth_tokens;
  /// Connections admitted concurrently; excess accepts are turned away
  /// with a terminated reject line and counted as dropped.
  size_t max_connections = 256;
  /// `shutdown` from a connection stops the whole daemon (drain first).
  /// Off by default: a tenant must not be able to stop the service.
  bool allow_shutdown = false;
  /// Shrink divisor for dataset aliases registered lazily on first use.
  uint32_t scale_divisor = 4;
};

/// The TCP front end: one epoll event loop accepting many concurrent
/// connections, each speaking the newline job protocol through its own
/// CommandSession. Requests pipeline — a submit never blocks the
/// connection — and completion lines are streamed back as workers finish
/// jobs (tagged `req=K` in this connection's submission order), not only
/// at `wait`. `wait` is a barrier: dispatch of the lines behind it pauses
/// until every prior submission on that connection has streamed its
/// result, then `done ...` is emitted — so a batch script's `stats` still
/// reads in the state it expects. Job execution stays on the JobService
/// worker pool; workers hand completions back to the loop through an
/// eventfd, so the loop thread is the only one touching sockets.
///
/// Lifecycle: Start() binds + listens (port() is then valid); Serve()
/// runs the loop until Stop() (any thread) or an authorized `shutdown`
/// command; both drain outstanding jobs on live connections before
/// closing them. The destructor closes every fd.
class NetServer {
 public:
  NetServer(service::JobService& service, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Socket/bind/listen/epoll setup. On OK, port() returns the bound
  /// (possibly ephemeral) port and Serve() may be called.
  Status Start();

  uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread. Returns 0 on a clean stop,
  /// 1 when any connection saw a rejected line or failed job — the
  /// daemon's exit code, so a misbehaving batch fails loudly.
  int Serve();

  /// Thread-safe and async-signal-safe (an atomic store plus an eventfd
  /// write): wakes the loop and stops it after draining outstanding jobs
  /// on live connections.
  void Stop();

 private:
  struct Connection;

  void HandleAccept();
  void HandleReadable(Connection& conn);
  /// The per-connection state machine: releases drained barriers (`done`),
  /// dispatches buffered lines until the next barrier, flushes writes,
  /// and finishes a pending close. Safe against re-entry and against the
  /// connection disappearing mid-dispatch (looked up by id each step).
  void PumpConnection(uint64_t id);
  void DispatchLine(Connection& conn, const std::string& line);
  /// First-line handling while the session is null: validates `auth`
  /// against the token map (binding the tenant) or, with no auth
  /// configured, creates an unbound session. Returns false when the
  /// handshake dropped the connection.
  bool HandleHandshake(Connection& conn, const std::string& line);
  void MakeSession(Connection& conn, const std::string& bound_tenant);
  /// Returns false when the connection was closed by a write error.
  bool FlushWrites(Connection& conn);
  void Output(Connection& conn, std::string line);
  void UpdateEpoll(Connection& conn, uint32_t mask);
  void CloseConnection(uint64_t id, bool dropped);
  void BeginShutdown();
  /// Loop-thread side of the worker handoff: drains the hub and streams
  /// each completion to its connection.
  void DrainCompletions();

  service::JobService& service_;
  NetServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool started_ = false;
  bool shutting_down_ = false;
  bool any_error_ = false;
  std::atomic<bool> stop_requested_{false};

  uint64_t next_conn_id_ = 2;  // 0/1 are the listen/wake epoll ids
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  std::shared_ptr<NetServerCompletionHub> hub_;

  /// Connection-level histograms in the service's registry.
  obs::Histogram* lifetime_hist_ = nullptr;
  obs::Histogram* outbuf_hwm_hist_ = nullptr;
  obs::Histogram* ttfb_hist_ = nullptr;
};

}  // namespace slfe::net

#endif  // SLFE_NET_NET_SERVER_H_
