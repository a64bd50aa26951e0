#ifndef SLFE_SERVICE_LINE_DRIVER_H_
#define SLFE_SERVICE_LINE_DRIVER_H_

#include <cstdio>
#include <cstdint>

#include "slfe/service/job_service.h"

namespace slfe::service {

/// Configuration for the stdin line-protocol front end of the
/// `slfe_server` daemon.
struct LineDriverOptions {
  /// Shrink divisor for dataset aliases registered lazily on first use.
  uint32_t scale_divisor = 4;
  /// Echo an acknowledgement line for every accepted command.
  bool echo = true;
};

/// Drives `service` with the newline-delimited job protocol from `in`
/// until EOF or `quit`, writing acknowledgements and results to `out`:
///
///   submit <tenant> <app> <graph> [root] [dist|shm|gas|ooc] [norr]
///   mutate <tenant> <graph> [ins <src> <dst> <w>]... [del <src> <dst>]...
///   wait          # block until all submitted jobs finish, print results
///   sweep         # run a maintenance sweep now, print what it did
///   stats         # print the service + per-tenant counters
///   hot [k]       # print the top-k heavy-hitter graphs (default 10)
///   quit          # wait, then exit the loop (`shutdown` is equivalent)
///   # comment     # ignored, as are blank lines
///
/// Parsing, dispatch, and reply formatting live in line_protocol.h /
/// command_session.h, shared with the TCP front end (net/net_server.h);
/// this function only supplies the FILE* transport with blocking waits.
///
/// `<graph>` is a registered graph name; unknown names are resolved as
/// dataset aliases (PK/OK/LJ/...) and registered on first use. Returns 0,
/// or 1 when any submitted job failed or any line was rejected — the
/// daemon's exit code is the batch's health signal.
int RunLineDriver(JobService& service, std::FILE* in, std::FILE* out,
                  const LineDriverOptions& options = {});

}  // namespace slfe::service

#endif  // SLFE_SERVICE_LINE_DRIVER_H_
