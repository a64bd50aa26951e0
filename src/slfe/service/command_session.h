#ifndef SLFE_SERVICE_COMMAND_SESSION_H_
#define SLFE_SERVICE_COMMAND_SESSION_H_

#include <cstdint>
#include <functional>
#include <string>

#include "slfe/service/job_service.h"
#include "slfe/service/line_protocol.h"

namespace slfe::service {

/// Executes parsed protocol commands against a JobService, writing every
/// protocol reply through a sink — the dispatcher behind each TCP
/// connection (net/net_server.h), kept out of the event loop so command
/// semantics (validation, rejection wording, echo format, graph
/// lazy-registration) live in one place.
///
/// Each accepted submission is handed to the SubmitHook with its
/// per-session request number; the transport registers an async
/// completion callback and streams results as they finish. HandleLine
/// never blocks, so submissions pipeline.
class CommandSession {
 public:
  /// Receives one complete, '\n'-terminated protocol line.
  using Sink = std::function<void(std::string line)>;
  /// Called once per accepted submission (query or mutation) with the
  /// completion ticket and the request number echoed in the `queued
  /// req=K` acknowledgement.
  using SubmitHook = std::function<void(const JobTicket& ticket, uint64_t req)>;

  struct Options {
    /// Shrink divisor for dataset aliases registered lazily on first use.
    uint32_t scale_divisor = 4;
    /// `shutdown` stops the daemon instead of being rejected.
    bool allow_shutdown = false;
    /// Non-empty: the authenticated tenant — submissions and mutations
    /// naming any other tenant are rejected (the auth handshake's scope).
    std::string bound_tenant;
  };

  /// What the transport should do after a line: keep going, honor a wait
  /// barrier (pause dispatch until the outstanding count drains), close
  /// this connection, or stop the whole daemon.
  enum class Disposition { kContinue, kWaitBarrier, kQuit, kShutdown };

  CommandSession(JobService& service, Options options, Sink sink,
                 SubmitHook on_submitted);

  Disposition HandleLine(const std::string& line);

  /// Any rejected line so far — part of the batch's health signal (the
  /// daemon's exit code).
  bool any_error() const { return any_error_; }

  /// Requests accepted on this session (the last `req=` echoed).
  uint64_t accepted() const { return accepted_; }

 private:
  void HandleSubmit(JobRequest request);
  void HandleMutate(const MutationRequest& request);
  /// True when the request's tenant is permitted on this session; emits
  /// the rejection itself otherwise.
  bool CheckTenant(const std::string& tenant);
  void Accepted(JobTicket ticket, const std::string& tenant,
                const std::string& app, const std::string& graph);
  void Reject(const std::string& message);

  JobService& service_;
  Options options_;
  Sink sink_;
  SubmitHook on_submitted_;
  uint64_t accepted_ = 0;
  bool any_error_ = false;
};

}  // namespace slfe::service

#endif  // SLFE_SERVICE_COMMAND_SESSION_H_
