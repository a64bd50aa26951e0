// slfe_cli — command-line driver for the SLFE library: run any registered
// application on any declared engine over a named synthetic dataset or an
// edge-list file, with the cluster shape and redundancy reduction
// configurable from the shell. The app catalog (names, engines, graph
// requirements, help text) comes from the AppRegistry, and execution goes
// through the same slfe::api::Session::Run path the daemon and the benches
// use — there is no CLI-private dispatch.
//
//   slfe_cli --app=sssp --dataset=PK --nodes=8 --rr
//   slfe_cli --app=sssp --engine=gas --dataset=PK --rr
//   slfe_cli --app=pr --engine=ooc --file=edges.txt --iters=100
//   slfe_cli --app=sssp --rr --store-dir=/var/cache/slfe --store-ttl=86400
//   slfe_cli --list-apps
//   slfe_cli --list
//
// Each invocation runs one job and exits; the multi-tenant job daemon is
// slfe_server.
//
// Exits non-zero with a usage message on bad arguments.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "flag_parse.h"
#include "slfe/api/app_registry.h"
#include "slfe/api/session.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/guidance_store.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/loader.h"

namespace {

using slfe::flags::kMaxThreads;
using slfe::flags::kU64Max;
using slfe::flags::ParseFlag;
using slfe::flags::ParseNonNegative;
using slfe::flags::ParseUnsigned;

constexpr uint64_t kU32Max = std::numeric_limits<uint32_t>::max();

struct CliOptions {
  std::string app = "sssp";
  std::string engine = "dist";
  std::string dataset = "PK";
  std::string file;
  int nodes = 1;
  int threads = 1;
  bool rr = false;
  bool no_stealing = false;
  uint32_t iters = 50;
  slfe::VertexId root = 0;
  uint32_t scale_divisor = 4;
  // Guidance subsystem knobs (only consulted with --rr): persistent store
  // directory + its GC policy.
  std::string store_dir;
  uint64_t store_max_entries = 0;
  uint64_t store_max_bytes = 0;
  double store_ttl = 0;
  std::string arena_dir;
};

void PrintUsage() {
  // The app and engine vocabularies come from the registry — this text
  // cannot drift from what actually runs.
  const slfe::api::AppRegistry& registry = slfe::api::AppRegistry::Global();
  std::fprintf(
      stderr,
      "usage: slfe_cli [options]\n"
      "  --app=NAME       %s\n"
      "                   (default sssp; see --list-apps)\n"
      "  --engine=NAME    %s (default dist)\n"
      "  --dataset=ALIAS  PK|OK|LJ|WK|DI|ST|FS|RMAT (default PK)\n"
      "  --file=PATH      load a graph file instead of a dataset (text or\n"
      "                   binary edge list, or a *.sga arena — sniffed)\n"
      "  --nodes=N        simulated cluster nodes (default 1)\n"
      "  --threads=N      threads per node (default 1)\n"
      "  --rr             enable SLFE redundancy reduction\n"
      "  --no-stealing    disable intra-node work stealing\n"
      "  --iters=N        iteration cap for the arithmetic apps "
      "(default 50)\n"
      "  --root=V         root vertex for single-source apps (default 0)\n"
      "  --scale=N        dataset shrink divisor (default 4)\n"
      "  --store-dir=PATH persist guidance to PATH (reused across runs)\n"
      "  --store-max-entries=N  guidance store GC: keep at most N entries\n"
      "  --store-max-bytes=N    guidance store GC: keep at most N bytes\n"
      "  --store-ttl=SECS       guidance store GC: drop entries older\n"
      "                         than SECS (swept when the store opens)\n"
      "  --arena-dir=PATH map the dataset's saved *.sga graph arena when\n"
      "                   present (skipping the synthesis + parse), and\n"
      "                   write one back after a cold load (warm restarts)\n"
      "  --list-apps      print the application registry and exit\n"
      "  --list           print the dataset suite and exit\n",
      registry.UsageList().c_str(), slfe::api::AllEngineNames().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (ParseFlag(argv[i], "--app", &value)) {
      opt.app = value;
    } else if (ParseFlag(argv[i], "--engine", &value)) {
      opt.engine = value;
    } else if (ParseFlag(argv[i], "--dataset", &value)) {
      opt.dataset = value;
    } else if (ParseFlag(argv[i], "--file", &value)) {
      opt.file = value;
    } else if (ParseFlag(argv[i], "--nodes", &value)) {
      ok = ParseUnsigned("--nodes", value, 1, kMaxThreads, &opt.nodes);
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      ok = ParseUnsigned("--threads", value, 1, kMaxThreads, &opt.threads);
    } else if (ParseFlag(argv[i], "--iters", &value)) {
      ok = ParseUnsigned("--iters", value, 0, kU32Max, &opt.iters);
    } else if (ParseFlag(argv[i], "--root", &value)) {
      ok = ParseUnsigned("--root", value, 0, kU32Max, &opt.root);
    } else if (ParseFlag(argv[i], "--scale", &value)) {
      ok = ParseUnsigned("--scale", value, 1, kU32Max, &opt.scale_divisor);
    } else if (ParseFlag(argv[i], "--store-dir", &value)) {
      opt.store_dir = value;
    } else if (ParseFlag(argv[i], "--store-max-entries", &value)) {
      ok = ParseUnsigned("--store-max-entries", value, 0, kU64Max,
                         &opt.store_max_entries);
    } else if (ParseFlag(argv[i], "--store-max-bytes", &value)) {
      ok = ParseUnsigned("--store-max-bytes", value, 0, kU64Max,
                         &opt.store_max_bytes);
    } else if (ParseFlag(argv[i], "--store-ttl", &value)) {
      ok = ParseNonNegative("--store-ttl", value, &opt.store_ttl);
    } else if (ParseFlag(argv[i], "--arena-dir", &value)) {
      opt.arena_dir = value;
    } else if (std::strcmp(argv[i], "--rr") == 0) {
      opt.rr = true;
    } else if (std::strcmp(argv[i], "--no-stealing") == 0) {
      opt.no_stealing = true;
    } else if (std::strcmp(argv[i], "--list-apps") == 0) {
      std::fputs(slfe::api::AppRegistry::Global().ListApps().c_str(), stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      std::printf("%-8s %-12s %-12s\n", "alias", "|V|", "|E|");
      for (const slfe::DatasetSpec& s : slfe::ScaledDatasets()) {
        std::printf("%-8s %-12u %-12llu\n", s.alias.c_str(), s.num_vertices,
                    static_cast<unsigned long long>(s.num_edges));
      }
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

  // Load or synthesize the graph; the session (not the CLI) derives the
  // undirected closure when the app requires one.
  slfe::api::SessionOptions sopt;
  sopt.num_nodes = opt.nodes;
  sopt.threads_per_node = opt.threads;
  if (!opt.store_dir.empty()) {
    sopt.provider.store_dir = opt.store_dir;
    sopt.provider.store_gc.max_entries = opt.store_max_entries;
    sopt.provider.store_gc.max_bytes = opt.store_max_bytes;
    sopt.provider.store_gc.ttl_seconds = opt.store_ttl;
  } else if (opt.store_max_entries > 0 || opt.store_max_bytes > 0 ||
             opt.store_ttl > 0) {
    // Silently ignoring a GC budget would let the user believe the
    // store is bounded when there is no store at all.
    std::fprintf(stderr,
                 "--store-max-entries/--store-max-bytes/--store-ttl "
                 "require --store-dir\n");
    PrintUsage();
    return 2;
  }
  sopt.arena_dir = opt.arena_dir;

  slfe::api::Session session(sopt);

  // Registration: a saved arena (dataset mode with --arena-dir) maps in
  // milliseconds; otherwise synthesize/parse, then write the arena back so
  // the NEXT invocation takes the warm path. --file goes through the
  // format-sniffing loader, so pointing it at a *.sga maps it directly.
  std::string arena_path;
  bool mapped = false;
  if (!opt.file.empty()) {
    auto loaded = slfe::LoadGraphAuto(opt.file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    slfe::Status added = session.AddGraph("cli", std::move(loaded).value());
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.ToString().c_str());
      return 1;
    }
  } else {
    arena_path = session.ArenaPath(opt.dataset + ".s" +
                                   std::to_string(opt.scale_divisor));
    mapped = !arena_path.empty() &&
             session.AddGraphFromArena("cli", arena_path).ok();
    if (!mapped) {
      auto spec = slfe::FindDataset(opt.dataset);
      if (!spec.ok()) {
        std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
        return 2;
      }
      slfe::EdgeList edges = slfe::MakeDataset(spec.value(), opt.scale_divisor);
      slfe::Status added =
          session.AddGraph("cli", slfe::Graph::FromEdges(edges));
      if (!added.ok()) {
        std::fprintf(stderr, "%s\n", added.ToString().c_str());
        return 1;
      }
      if (!arena_path.empty()) {
        // Best-effort: a failed write-back costs the next run its warm
        // path, nothing else.
        (void)session.SaveGraphArena("cli", arena_path);
      }
    }
  }

  std::shared_ptr<const slfe::Graph> graph = session.GetGraph("cli");
  std::printf("graph: %u vertices, %llu edges | app=%s engine=%s nodes=%d "
              "threads=%d rr=%d%s\n",
              graph->num_vertices(),
              static_cast<unsigned long long>(graph->num_edges()),
              opt.app.c_str(), opt.engine.c_str(), opt.nodes, opt.threads,
              opt.rr ? 1 : 0, mapped ? " (mapped from arena)" : "");

  slfe::api::AppRequest request;
  request.app = opt.app;
  request.engine = opt.engine;
  request.graph = "cli";
  request.root = opt.root;
  request.max_iters = opt.iters;
  request.enable_rr = opt.rr;
  request.enable_stealing = !opt.no_stealing;

  // THE execution path — registry dispatch, no app names in this file.
  slfe::api::AppOutcome outcome = session.Run(request);
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status.ToString().c_str());
    PrintUsage();
    return 2;
  }
  std::printf("%s\n", outcome.summary_text.c_str());
  std::printf("supersteps=%llu computations=%llu bypassed=%llu "
              "updates=%llu runtime=%.4fs guidance=%.4fs\n",
              static_cast<unsigned long long>(outcome.info.supersteps),
              static_cast<unsigned long long>(outcome.info.stats.computations),
              static_cast<unsigned long long>(outcome.info.stats.skipped),
              static_cast<unsigned long long>(outcome.info.stats.updates),
              outcome.info.stats.RuntimeSeconds(),
              outcome.info.guidance_seconds);

  if (session.provider().store() != nullptr) {
    // Surface the persistence counters so warm vs cold runs against the
    // same --store-dir are distinguishable from the shell.
    slfe::GuidanceStoreStats ss = session.provider().store()->stats();
    slfe::GuidanceCacheStats cs = session.provider().cache_stats();
    std::printf(
        "guidance store: saves=%llu loads=%llu store_hits=%llu "
        "gc_removed=%llu (dir=%s)\n",
        static_cast<unsigned long long>(ss.saves),
        static_cast<unsigned long long>(ss.loads),
        static_cast<unsigned long long>(cs.store_hits),
        static_cast<unsigned long long>(ss.gc_removed),
        session.provider().store()->dir().c_str());
  }
  return 0;
}
