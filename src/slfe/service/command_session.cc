#include "slfe/service/command_session.h"

#include <utility>

#include "slfe/graph/generators.h"

namespace slfe::service {

namespace {

/// Registers `name` as a dataset alias on first use, so a job file can
/// reference the paper suite without a registration preamble. With an
/// arena_dir configured, a previously saved `<name>.s<scale>.sga` arena
/// is mapped instead of regenerating + re-partitioning the dataset (the
/// scale divisor is part of the file name, so a restart with a different
/// --scale can never serve stale topology), and a fresh generation is
/// written back for the next start. Arena failures — missing file,
/// corruption, a newer codec — degrade to the generate path: warm restart
/// is an optimization, never a correctness dependency.
Status EnsureGraph(JobService& service, const std::string& name,
                   uint32_t scale_divisor) {
  if (service.HasGraph(name)) return Status::OK();
  std::string arena_path =
      service.ArenaPathFor(name + ".s" + std::to_string(scale_divisor));
  if (!arena_path.empty() &&
      service.RegisterGraphFromArena(name, arena_path).ok()) {
    return Status::OK();
  }
  Result<DatasetSpec> spec = FindDataset(name);
  if (!spec.ok()) return spec.status();
  EdgeList edges = MakeDataset(spec.value(), scale_divisor);
  SLFE_RETURN_IF_ERROR(service.RegisterGraph(name, Graph::FromEdges(edges)));
  if (!arena_path.empty()) {
    // Best-effort write-back; a full disk costs the next start its warm
    // path, not this run its registration.
    (void)service.SaveGraphArena(name, arena_path);
  }
  return Status::OK();
}

}  // namespace

CommandSession::CommandSession(JobService& service, Options options, Sink sink,
                               SubmitHook on_submitted)
    : service_(service),
      options_(std::move(options)),
      sink_(std::move(sink)),
      on_submitted_(std::move(on_submitted)) {}

CommandSession::Disposition CommandSession::HandleLine(
    const std::string& line) {
  ParsedCommand cmd = ParseCommandLine(line);
  switch (cmd.kind) {
    case ParsedCommand::Kind::kEmpty:
      return Disposition::kContinue;
    case ParsedCommand::Kind::kQuit:
      return Disposition::kQuit;
    case ParsedCommand::Kind::kWait:
      return Disposition::kWaitBarrier;
    case ParsedCommand::Kind::kStats:
      sink_(FormatStats(service_.Stats()));
      return Disposition::kContinue;
    case ParsedCommand::Kind::kSweep:
      sink_(FormatSweep(service_.SweepNow()));
      return Disposition::kContinue;
    case ParsedCommand::Kind::kMetrics:
      // The Prometheus text already ends in "# EOF\n"; the one-line JSON
      // needs its terminator added here.
      sink_(cmd.metrics_json ? service_.RenderMetricsJson() + "\n"
                             : service_.RenderMetricsText());
      return Disposition::kContinue;
    case ParsedCommand::Kind::kTrace:
      sink_(service_.RenderTraceJson(cmd.trace_arg) + "\n");
      return Disposition::kContinue;
    case ParsedCommand::Kind::kHot:
      sink_(service_.RenderHot(cmd.hot_k));
      return Disposition::kContinue;
    case ParsedCommand::Kind::kShutdown:
      if (!options_.allow_shutdown) {
        Reject("shutdown not permitted");
        return Disposition::kContinue;
      }
      return Disposition::kShutdown;
    case ParsedCommand::Kind::kAuth:
      // The transport consumes auth during its handshake; reaching the
      // dispatcher means the stream is already established.
      Reject("already authenticated");
      return Disposition::kContinue;
    case ParsedCommand::Kind::kError:
      sink_(cmd.error);
      any_error_ = true;
      return Disposition::kContinue;
    case ParsedCommand::Kind::kSubmit:
      HandleSubmit(std::move(cmd.submit));
      return Disposition::kContinue;
    case ParsedCommand::Kind::kMutate:
      HandleMutate(cmd.mutate);
      return Disposition::kContinue;
  }
  return Disposition::kContinue;
}

void CommandSession::HandleSubmit(JobRequest request) {
  if (!CheckTenant(request.tenant)) return;
  Status registered =
      EnsureGraph(service_, request.graph, options_.scale_divisor);
  if (!registered.ok()) {
    Reject(registered.ToString());
    return;
  }
  Result<JobTicket> ticket = service_.Submit(request);
  if (!ticket.ok()) {
    Reject(ticket.status().ToString());
    return;
  }
  Accepted(std::move(ticket).value(), request.tenant, request.app,
           request.graph);
}

void CommandSession::HandleMutate(const MutationRequest& request) {
  if (!CheckTenant(request.tenant)) return;
  Status registered =
      EnsureGraph(service_, request.graph, options_.scale_divisor);
  if (!registered.ok()) {
    Reject(registered.ToString());
    return;
  }
  Result<JobTicket> ticket = service_.SubmitMutation(request);
  if (!ticket.ok()) {
    Reject(ticket.status().ToString());
    return;
  }
  Accepted(std::move(ticket).value(), request.tenant, "mutate", request.graph);
}

bool CommandSession::CheckTenant(const std::string& tenant) {
  if (options_.bound_tenant.empty() || tenant == options_.bound_tenant) {
    return true;
  }
  Reject("tenant '" + tenant + "' not authorized on this connection");
  return false;
}

void CommandSession::Accepted(JobTicket ticket, const std::string& tenant,
                              const std::string& app,
                              const std::string& graph) {
  uint64_t req = ++accepted_;
  if (options_.echo) {
    std::string line = "queued req=" + std::to_string(req) + " tenant=" +
                       tenant + " app=" + app + " graph=" + graph +
                       " (depth=" + std::to_string(service_.queued()) + ")\n";
    sink_(std::move(line));
  }
  if (options_.streaming) {
    if (on_submitted_) on_submitted_(ticket, req);
  } else {
    outstanding_.push_back(std::move(ticket));
  }
}

void CommandSession::Reject(const std::string& message) {
  sink_("reject: " + message + "\n");
  any_error_ = true;
}

void CommandSession::DrainOutstanding() {
  for (const JobTicket& ticket : outstanding_) {
    JobResult result = ticket->Wait();
    if (!result.status.ok()) any_error_ = true;
    sink_(FormatResult(result));
  }
  outstanding_.clear();
}

}  // namespace slfe::service
