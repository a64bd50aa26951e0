// slfe_server — the long-lived multi-tenant guidance job daemon: a
// JobService behind the epoll TCP front end (net/net_server.h), with the
// guidance store, its GC budgets (global and per tenant), and the
// maintenance sweep cadence configured from the shell.
//
//   slfe_server --listen=7070 --workers=4 --store-dir=/var/cache/slfe
//   slfe_server --store-dir=/var/cache/slfe --maintenance-interval=30
//   slfe_server --store-dir=/var/cache/slfe --tenant-budget=acme:1048576:8
//   printf 'submit t1 sssp PK 0\nwait\nstats\nquit\n' | nc 127.0.0.1 7070
//
// The daemon announces its bound address on stdout (`listening on
// ADDR:PORT`) and speaks the line protocol (service/line_protocol.h) on
// every connection; `metrics`, `trace` and `stats` are its telemetry.
// tools/tcp_batch.py drives a multi-tenant batch script over it.
//
// Exit code: 0 when every job ran clean, non-zero otherwise — so a hung or
// misbehaving batch fails loudly under `timeout` in CI.

#include <csignal>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "flag_parse.h"
#include "slfe/api/app_registry.h"
#include "slfe/net/net_server.h"
#include "slfe/service/job_service.h"
#include "slfe/service/line_protocol.h"

namespace {

using slfe::flags::kMaxThreads;
using slfe::flags::kU64Max;
using slfe::flags::ParseFlag;
using slfe::flags::ParseNonNegative;
using slfe::flags::ParseUnsigned;

// Upper bound for flags that size allocations up front, so a typo cannot
// ask the daemon for billions of slots.
constexpr uint64_t kMaxSlots = 1u << 20;

struct ServerOptions {
  size_t workers = 2;
  size_t queue_cap = 64;
  int nodes = 2;
  int threads = 1;
  uint32_t scale_divisor = 4;
  std::string store_dir;
  std::string arena_dir;
  uint64_t store_max_entries = 0;
  uint64_t store_max_bytes = 0;
  double store_ttl = 0;
  double maintenance_interval = 0;
  // Observability (obs/): slow-job capture threshold and the
  // flight-recorder ring size. 0 slow-job-ms = off.
  double slow_job_ms = 0;
  size_t trace_ring = 64;
  // Demand sketch (sketch/hotness.h): 0 width/depth = sized from the
  // defaults (epsilon, delta); threshold 0 = admit every store write.
  size_t sketch_width = 0;
  size_t sketch_depth = 0;
  uint64_t hot_admit_threshold = 0;
  size_t max_tracked_tenants = 256;
  std::map<std::string, slfe::GuidanceTenantBudget> tenant_budgets;
  // TCP front end (net/net_server.h).
  uint16_t listen_port = 0;  // 0 = ephemeral, announced on stdout
  std::string bind_address = "127.0.0.1";
  std::map<std::string, std::string> auth_tokens;
  size_t max_connections = 256;
  bool allow_shutdown = false;
};

void PrintUsage() {
  // The submittable app and engine vocabularies come from the registry —
  // the same source Submit validates against, so this text cannot drift.
  std::fprintf(
      stderr,
      "usage: slfe_server [options]\n"
      "protocol: submit <tenant> <app> <graph> [root] [engine] [norr]\n"
      "  apps:    %s\n"
      "  engines: %s (default dist; see --list-apps for the pairs)\n"
      "options:\n",
      slfe::api::AppRegistry::Global().UsageList().c_str(),
      slfe::api::AllEngineNames().c_str());
  std::fprintf(
      stderr,
      "  --workers=N          job worker threads (default 2)\n"
      "  --queue-cap=N        bounded queue depth; beyond it submissions "
      "are rejected (default 64)\n"
      "  --nodes=N            simulated cluster nodes per job (default 2)\n"
      "  --threads=N          threads per node (default 1)\n"
      "  --scale=N            dataset shrink divisor for lazily registered "
      "aliases (default 4)\n"
      "  --store-dir=PATH     persistent guidance store directory\n"
      "  --arena-dir=PATH     graph arena directory: lazily registered "
      "aliases map a saved\n"
      "                       *.sga arena instead of regenerating + "
      "re-partitioning, and\n"
      "                       write one back after a cold registration "
      "(warm restarts)\n"
      "  --store-max-entries=N / --store-max-bytes=N / --store-ttl=SECS\n"
      "                       global store GC budgets\n"
      "  --tenant-budget=T:BYTES:ENTRIES\n"
      "                       per-tenant store budget (repeatable; 0 = "
      "unlimited)\n"
      "  --maintenance-interval=SECS\n"
      "                       sweep the store every SECS from the "
      "maintenance loop\n"
      "  --slow-job-ms=N      capture + WARN jobs slower than N ms "
      "end-to-end\n"
      "  --trace-ring=N       flight-recorder capacity: last N completed "
      "job traces\n"
      "                       (default 64; 'trace recent' reads this "
      "ring)\n"
      "  --sketch-width=N / --sketch-depth=N\n"
      "                       count-min demand sketch geometry (default: "
      "sized from\n"
      "                       epsilon=1/1024, delta=0.01; 'hot [k]' reads "
      "it)\n"
      "  --hot-admit-threshold=N\n"
      "                       persist guidance to the store only once a "
      "graph's\n"
      "                       estimated demand reaches N requests (0 = "
      "always)\n"
      "  --max-tracked-tenants=N\n"
      "                       exact per-tenant stat rows; the tail "
      "aggregates into\n"
      "                       one sketched row (default 256, 0 = "
      "unlimited)\n"
      "  --listen[=PORT]      TCP port for the job protocol (0 or no "
      "value = ephemeral,\n"
      "                       the default); the bound address is "
      "announced on stdout\n"
      "                       as 'listening on ADDR:PORT'\n"
      "  --bind=ADDR          TCP bind address (default 127.0.0.1)\n"
      "  --auth-token=T:SECRET\n"
      "                       require connections to open with 'auth T "
      "SECRET' and bind\n"
      "                       them to tenant T (repeatable; none = auth "
      "optional)\n"
      "  --max-connections=N  concurrent TCP connections admitted "
      "(default 256)\n"
      "  --allow-shutdown     let a TCP client's 'shutdown' stop the "
      "daemon\n"
      "  --list-apps          print the application registry and exit\n");
}

bool ParseTenantBudget(const std::string& value, ServerOptions* opt) {
  size_t c1 = value.find(':');
  if (c1 == std::string::npos) return false;
  size_t c2 = value.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  std::string tenant = value.substr(0, c1);
  if (tenant.empty()) return false;
  slfe::GuidanceTenantBudget budget;
  if (!ParseUnsigned("--tenant-budget BYTES", value.substr(c1 + 1, c2 - c1 - 1),
                     0, kU64Max, &budget.max_bytes) ||
      !ParseUnsigned("--tenant-budget ENTRIES", value.substr(c2 + 1), 0,
                     kU64Max, &budget.max_entries)) {
    return false;
  }
  opt->tenant_budgets[tenant] = budget;
  return true;
}

slfe::service::JobServiceOptions ServiceOptions(const ServerOptions& opt) {
  slfe::service::JobServiceOptions sopt;
  sopt.workers = opt.workers;
  sopt.queue_capacity = opt.queue_cap;
  sopt.job_nodes = opt.nodes;
  sopt.job_threads = opt.threads;
  sopt.provider.store_dir = opt.store_dir;
  sopt.provider.store_gc.max_entries = opt.store_max_entries;
  sopt.provider.store_gc.max_bytes = opt.store_max_bytes;
  sopt.provider.store_gc.ttl_seconds = opt.store_ttl;
  sopt.tenant_budgets = opt.tenant_budgets;
  sopt.maintenance_interval_seconds = opt.maintenance_interval;
  sopt.arena_dir = opt.arena_dir;
  sopt.slow_job_ms = opt.slow_job_ms;
  sopt.trace_ring_capacity = opt.trace_ring;
  sopt.hotness.sketch.width = opt.sketch_width;
  sopt.hotness.sketch.depth = opt.sketch_depth;
  sopt.hot_admit_threshold = opt.hot_admit_threshold;
  sopt.max_tracked_tenants = opt.max_tracked_tenants;
  return sopt;
}

slfe::net::NetServer* g_net_server = nullptr;

void HandleStopSignal(int) {
  if (g_net_server != nullptr) g_net_server->Stop();
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (ParseFlag(argv[i], "--workers", &value)) {
      ok = ParseUnsigned("--workers", value, 1, kMaxThreads, &opt.workers);
    } else if (ParseFlag(argv[i], "--queue-cap", &value)) {
      ok = ParseUnsigned("--queue-cap", value, 1, kMaxSlots, &opt.queue_cap);
    } else if (ParseFlag(argv[i], "--nodes", &value)) {
      ok = ParseUnsigned("--nodes", value, 1, kMaxThreads, &opt.nodes);
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      ok = ParseUnsigned("--threads", value, 1, kMaxThreads, &opt.threads);
    } else if (ParseFlag(argv[i], "--scale", &value)) {
      // A zero scale divisor would otherwise SIGABRT the daemon inside
      // MakeDataset at the first lazily registered submit, mid-batch.
      ok = ParseUnsigned("--scale", value, 1,
                         std::numeric_limits<uint32_t>::max(),
                         &opt.scale_divisor);
    } else if (ParseFlag(argv[i], "--store-dir", &value)) {
      opt.store_dir = value;
    } else if (ParseFlag(argv[i], "--arena-dir", &value)) {
      opt.arena_dir = value;
    } else if (ParseFlag(argv[i], "--store-max-entries", &value)) {
      ok = ParseUnsigned("--store-max-entries", value, 0, kU64Max,
                         &opt.store_max_entries);
    } else if (ParseFlag(argv[i], "--store-max-bytes", &value)) {
      ok = ParseUnsigned("--store-max-bytes", value, 0, kU64Max,
                         &opt.store_max_bytes);
    } else if (ParseFlag(argv[i], "--store-ttl", &value)) {
      ok = ParseNonNegative("--store-ttl", value, &opt.store_ttl);
    } else if (ParseFlag(argv[i], "--maintenance-interval", &value)) {
      ok = ParseNonNegative("--maintenance-interval", value,
                            &opt.maintenance_interval);
    } else if (ParseFlag(argv[i], "--slow-job-ms", &value)) {
      ok = ParseNonNegative("--slow-job-ms", value, &opt.slow_job_ms);
    } else if (ParseFlag(argv[i], "--trace-ring", &value)) {
      ok = ParseUnsigned("--trace-ring", value, 0, kMaxSlots, &opt.trace_ring);
    } else if (ParseFlag(argv[i], "--sketch-width", &value)) {
      ok = ParseUnsigned("--sketch-width", value, 0, kMaxSlots,
                         &opt.sketch_width);
    } else if (ParseFlag(argv[i], "--sketch-depth", &value)) {
      ok = ParseUnsigned("--sketch-depth", value, 0, 16, &opt.sketch_depth);
    } else if (ParseFlag(argv[i], "--hot-admit-threshold", &value)) {
      ok = ParseUnsigned("--hot-admit-threshold", value, 0, kU64Max,
                         &opt.hot_admit_threshold);
    } else if (ParseFlag(argv[i], "--max-tracked-tenants", &value)) {
      ok = ParseUnsigned("--max-tracked-tenants", value, 0, kU64Max,
                         &opt.max_tracked_tenants);
    } else if (ParseFlag(argv[i], "--tenant-budget", &value)) {
      if (!ParseTenantBudget(value, &opt)) {
        std::fprintf(stderr, "bad --tenant-budget (want T:BYTES:ENTRIES): %s\n",
                     value.c_str());
        ok = false;
      }
    } else if (ParseFlag(argv[i], "--listen", &value)) {
      ok = ParseUnsigned("--listen", value, 0, 65535, &opt.listen_port);
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      opt.listen_port = 0;  // ephemeral, the default
    } else if (ParseFlag(argv[i], "--bind", &value)) {
      opt.bind_address = value;
    } else if (ParseFlag(argv[i], "--auth-token", &value)) {
      size_t colon = value.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == value.size()) {
        std::fprintf(stderr, "bad --auth-token (want TENANT:SECRET): %s\n",
                     value.c_str());
        ok = false;
      } else {
        opt.auth_tokens[value.substr(0, colon)] = value.substr(colon + 1);
      }
    } else if (ParseFlag(argv[i], "--max-connections", &value)) {
      ok = ParseUnsigned("--max-connections", value, 1, kMaxSlots,
                         &opt.max_connections);
    } else if (std::strcmp(argv[i], "--allow-shutdown") == 0) {
      opt.allow_shutdown = true;
    } else if (std::strcmp(argv[i], "--list-apps") == 0) {
      std::fputs(slfe::api::AppRegistry::Global().ListApps().c_str(), stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      ok = false;
    }
    if (!ok) {
      PrintUsage();
      return 2;
    }
  }
  if ((!opt.tenant_budgets.empty() || opt.store_max_entries > 0 ||
       opt.store_max_bytes > 0 || opt.store_ttl > 0) &&
      opt.store_dir.empty()) {
    std::fprintf(stderr, "store budgets require --store-dir\n");
    return 2;
  }
  if (opt.maintenance_interval > 0 && opt.store_dir.empty()) {
    // The maintenance timer only has work when there is a store to sweep.
    std::fprintf(stderr, "--maintenance-interval requires --store-dir\n");
    return 2;
  }

  slfe::service::JobService service(ServiceOptions(opt));
  slfe::net::NetServerOptions nopt;
  nopt.bind_address = opt.bind_address;
  nopt.port = opt.listen_port;
  nopt.auth_tokens = opt.auth_tokens;
  nopt.max_connections = opt.max_connections;
  nopt.allow_shutdown = opt.allow_shutdown;
  nopt.scale_divisor = opt.scale_divisor;
  slfe::net::NetServer server(service, nopt);
  slfe::Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", s.ToString().c_str());
    return 2;
  }
  // SIGINT/SIGTERM stop the loop gracefully (drain, then exit); Stop()
  // is async-signal-safe (atomic store + eventfd write).
  g_net_server = &server;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // Announced on stdout so scripts using an ephemeral port can read the
  // bound address back; flushed before the loop blocks.
  std::printf("listening on %s:%u\n", nopt.bind_address.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  int rc = server.Serve();
  g_net_server = nullptr;
  service.Shutdown();
  std::fputs(slfe::service::FormatStats(service.Stats()).c_str(), stdout);
  return rc;
}
