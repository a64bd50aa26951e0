#ifndef SLFE_SERVICE_LINE_PROTOCOL_H_
#define SLFE_SERVICE_LINE_PROTOCOL_H_

#include <string>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/service/job_service.h"

namespace slfe::service {

/// The newline-delimited job protocol every slfe_server connection speaks
/// (net/net_server.h carries it; command_session.h executes it):
///
///   auth <tenant> [token]   # first line; binds the connection to tenant
///   submit <tenant> <app> <graph> [root] [dist|shm|gas|ooc] [norr]
///   mutate <tenant> <graph> [ins <src> <dst> <w>]... [del <src> <dst>]...
///                 # <w> finite and >= 0
///   wait          # barrier: stream every prior result, then `done req=N`
///   sweep         # run a maintenance sweep now, print what it did
///   stats         # print the service + net + per-tenant counters
///   metrics [json]                # Prometheus text (ends "# EOF") or JSON
///   trace [recent|slow|<job-id>]  # flight-recorder span breakdowns
///   hot [k]       # print the top-k heavy-hitter graphs (default 10)
///   quit          # drain this connection's jobs, then close it
///   shutdown      # drain every connection, then stop the daemon (gated)
///   # comment     # ignored, as are blank lines
///
/// Each accepted submit/mutate is acknowledged with `queued req=K ...`
/// and its result streams back as it finishes, tagged ` req=K`.
/// `<graph>` is a registered graph name; unknown names are resolved as
/// dataset aliases (PK/OK/LJ/...) and registered on first use.

/// One parsed line of the job protocol. Parsing is pure — no I/O, no
/// service access — so the TCP connection sessions and the unit tests
/// share exactly one grammar.
struct ParsedCommand {
  enum class Kind {
    kEmpty,     ///< blank line or `# comment`
    kQuit,      ///< close this connection (drain first)
    kWait,      ///< barrier: results of prior submissions before new lines
    kStats,     ///< print service + tenant + connection counters
    kSweep,     ///< run a maintenance sweep now
    kSubmit,    ///< payload in `submit`
    kMutate,    ///< payload in `mutate`
    kAuth,      ///< connection handshake: payload in auth_tenant/auth_token
    kShutdown,  ///< stop the whole daemon (gated by an option at dispatch)
    kMetrics,   ///< metrics exposition; `metrics_json` selects the format
    kTrace,     ///< flight-recorder dump; selector in `trace_arg`
    kHot,       ///< top-k heavy-hitter graphs; k in `hot_k`
    kError,     ///< malformed; `error` holds the full reject line
  };
  Kind kind = Kind::kEmpty;
  JobRequest submit;
  MutationRequest mutate;
  std::string auth_tenant;
  std::string auth_token;
  /// For kMetrics: true = the JSON renderer (`metrics json`), false = the
  /// Prometheus text exposition (bare `metrics`).
  bool metrics_json = false;
  /// For kTrace: "" (= recent), "recent", "slow", or a job id.
  std::string trace_arg;
  /// For kHot: requested list length; bare `hot` leaves the default.
  size_t hot_k = 10;
  /// For kError: a complete, '\n'-terminated "reject: ..." line. Always
  /// terminated even when the offending input line was not — an
  /// unterminated reject would glue onto the next output line.
  std::string error;
};

/// Splits on ASCII whitespace; never throws.
std::vector<std::string> TokenizeLine(const std::string& line);

/// Strict vertex-id parse: pure digits only (no sign, no '.', no
/// exponent — `del 1.5 2` must reject, not truncate to src=1), and the
/// value must fit VertexId (an out-of-range token would otherwise wrap
/// through the narrowing cast into a bogus but in-range id).
Result<VertexId> ParseVertexId(const std::string& token);

/// Parses one protocol line into a command (grammar at the top of this
/// file).
ParsedCommand ParseCommandLine(const std::string& line);

/// One '\n'-terminated result line. The served= tag precedence is part of
/// the protocol: cache > coalesced > repaired > generate ("none" when no
/// guidance was acquired).
std::string FormatResult(const JobResult& result);

/// FormatResult with a per-connection request tag appended (` req=K`), so
/// a pipelining client can correlate streamed completions — which arrive
/// in completion order, not submission order — back to its own submits.
std::string FormatResult(const JobResult& result, uint64_t req);

/// The multi-line stats block: service, net front end, guidance, and one
/// line per tenant.
std::string FormatStats(const JobServiceStats& stats);

std::string FormatSweep(const GuidanceStoreSweepStats& sweep);

}  // namespace slfe::service

#endif  // SLFE_SERVICE_LINE_PROTOCOL_H_
