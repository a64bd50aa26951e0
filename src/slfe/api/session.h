#ifndef SLFE_API_SESSION_H_
#define SLFE_API_SESSION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "slfe/api/app_registry.h"
#include "slfe/common/status.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/arena.h"
#include "slfe/graph/delta.h"
#include "slfe/graph/graph.h"
#include "slfe/obs/trace.h"

namespace slfe::api {

/// What the session knows about a registered graph beyond its topology —
/// the inputs to the registry's graph-requirement checks.
struct GraphTraits {
  /// Already holds the undirected closure (both directions of every
  /// edge). Declared by the caller; when false, needs_symmetric apps get
  /// the session's lazily built symmetrized variant (or a rejection, per
  /// SessionOptions::auto_symmetrize).
  bool symmetric = false;
  /// Carries at least one non-unit edge weight. Detected automatically by
  /// AddGraph unless declared.
  bool weighted = false;
};

/// What one MutateGraph call did. Versions are per-name and monotonically
/// increasing, starting at 1 for the graph as registered; a no-op delta
/// (every insert was a duplicate, every delete was already absent) leaves
/// the version — and the served Graph object — untouched.
struct GraphMutationResult {
  uint64_t version = 0;  ///< version now being served under the name
  uint64_t old_fingerprint = 0;
  uint64_t new_fingerprint = 0;  ///< == old_fingerprint on a no-op
  bool changed = false;
  GraphDeltaStats delta_stats;
  VertexId num_vertices = 0;  ///< of the served version
  EdgeId num_edges = 0;
};

/// One row of a graph's version history (GraphVersions).
struct GraphVersionInfo {
  uint64_t version = 0;
  uint64_t fingerprint = 0;
  /// Some reference (the session itself, an in-flight job, the provider's
  /// repair lineage) still holds this version's Graph alive.
  bool alive = false;
  /// This is the version new requests resolve to.
  bool current = false;
};

struct SessionOptions {
  /// Simulated cluster shape for dist-engine runs (and the gas node
  /// count); shm uses num_nodes * threads_per_node worker threads.
  int num_nodes = 1;
  int threads_per_node = 1;
  /// When a needs_symmetric app runs on a graph not registered as
  /// symmetric: true = lazily build (and cache) the undirected closure;
  /// false = reject the request up front.
  bool auto_symmetrize = true;
  /// Reject needs_weights apps on unit-weight graphs. The multi-tenant
  /// JobService runs strict (a meaningless job should bounce at submit,
  /// not burn a worker); the interactive CLI stays permissive (sssp on an
  /// unweighted graph is hop counts — odd, but the user asked).
  bool strict_weights = false;
  /// Configuration for the session-owned guidance provider.
  GuidanceProviderOptions provider;
  /// Scratch directory for engines with on-disk state (ooc shards).
  /// Empty = /tmp/slfe_session.<pid>.
  std::string scratch_dir;
  /// Directory of `*.sga` graph arenas for warm restarts. Empty =
  /// disabled. When set, the directory is created on construction and
  /// ArenaPath names where a graph's arena lives; callers decide when to
  /// map (AddGraphFromArena) and when to write back (SaveGraphArena).
  std::string arena_dir;
};

/// The one front door to running applications: a Session owns graph
/// handles (plus their requirement traits and derived symmetrized
/// variants), a GuidanceProvider (so every run amortizes guidance with
/// every other run in the session — the paper's §4.4 economics), and the
/// execution configuration. Session::Run(AppRequest) is the single
/// execution path every surface uses — the CLI, the JobService workers,
/// the benches, and the examples all converge here, so an (app, engine)
/// pair declared in the registry is reachable from all of them.
///
/// Thread-safe: concurrent Run calls are the JobService worker-pool case.
class Session {
 public:
  explicit Session(SessionOptions options = {});

  /// Makes `graph` runnable under `name`. Graphs are immutable and shared
  /// by reference across runs; duplicate names are rejected (replacing
  /// would swap data under concurrent runs). The overload without traits
  /// detects weights (O(|E|) scan) and assumes not-symmetric.
  Status AddGraph(const std::string& name, Graph graph);
  Status AddGraph(const std::string& name, Graph graph, GraphTraits traits);

  /// Warm-restart registration: maps the arena at `path` (read-only mmap,
  /// no parse) and registers its graph under `name` with
  /// the traits recorded in the arena header. The mapping is co-owned by
  /// the served Graph, so the arena file's pages stay valid for as long
  /// as any run references the graph. Counted in graphs_mapped().
  Status AddGraphFromArena(const std::string& name, const std::string& path);

  /// Serializes the registered graph `name` (topology + weights +
  /// fingerprint + this session's num_nodes partition) into an arena file
  /// at `path`, atomically. The codec trades adjacency bytes for decode
  /// work on the next Open (kRaw maps in place; kDeltaVarint decodes into
  /// heap vectors).
  Status SaveGraphArena(const std::string& name, const std::string& path,
                        ArenaCodec codec = ArenaCodec::kRaw);

  /// Where graph `stem` lives under options().arena_dir
  /// (`<arena_dir>/<stem>.sga`), or "" when no arena_dir is configured.
  std::string ArenaPath(const std::string& stem) const;

  /// Restart observability: how many graphs entered this session via the
  /// text/binary parse path vs. the arena mmap path. The service-smoke CI
  /// job asserts a second server start over a populated arena_dir shows
  /// mapped > 0, parsed == 0.
  uint64_t graphs_parsed() const { return graphs_parsed_.load(); }
  uint64_t graphs_mapped() const { return graphs_mapped_.load(); }
  /// Dist-engine partitions built: one per graph object a dist run has
  /// executed on (a registered graph, its symmetrized closure, each
  /// mutated version), however many jobs ran on it.
  uint64_t partitions_built() const { return partitions_built_.load(); }

  bool HasGraph(const std::string& name) const;
  /// nullptr when unknown.
  std::shared_ptr<const Graph> GetGraph(const std::string& name) const;

  /// Applies `delta` to the graph registered under `name`, atomically
  /// publishing the result as the next version served under that name.
  /// Graphs stay immutable: the old version's Graph object is untouched,
  /// so views held by in-flight jobs (JobService pins the resolved graph
  /// at submit time) keep executing on the version they were submitted
  /// against until they drain. The mutation is recorded with the guidance
  /// provider, so the next guidance miss on the new version can repair
  /// the old version's guidance instead of re-sweeping. Weight traits are
  /// re-detected; a symmetrized variant is dropped (rebuilt lazily);
  /// symmetric reverts to false — a delta on a symmetric graph is only
  /// symmetric if the caller mirrors every edge, which the session cannot
  /// assume. Concurrent mutations of one name serialize (optimistic
  /// retry: a lost race reapplies the delta on the winner's version).
  /// kNotFound for an unknown name; kInvalidArgument from ApplyDelta.
  Result<GraphMutationResult> MutateGraph(const std::string& name,
                                          const GraphDelta& delta);

  /// The version history of `name`, oldest first (always ends with the
  /// current version). Unknown name returns an empty vector.
  std::vector<GraphVersionInfo> GraphVersions(const std::string& name) const;

  /// Total successful non-no-op MutateGraph calls on this session.
  uint64_t graphs_mutated() const { return graphs_mutated_.load(); }

  /// Full up-front validation with registry-derived messages: unknown
  /// app/engine, an (app, engine) pair the descriptor does not declare,
  /// an unregistered graph, requirement violations (symmetric/weighted),
  /// and an out-of-range root for single-source apps. kInvalidArgument
  /// for all of those except the unregistered graph (kNotFound).
  Status Validate(const AppRequest& request) const;

  /// The exact graph Run(request) will execute on: the registered graph,
  /// or its (lazily built, cached) symmetrized variant when the app needs
  /// the undirected closure. Callers that meter or pin per-graph state
  /// (the JobService) must use this, not GetGraph.
  Result<std::shared_ptr<const Graph>> ResolveGraph(const AppRequest& request);

  /// THE execution path: validate, resolve the graph, dispatch to the
  /// registry's runner for (request.app, request.engine). Failures are
  /// reported in AppOutcome::status, never thrown.
  AppOutcome Run(const AppRequest& request);

  /// Run on an explicit, already-resolved graph instead of re-resolving
  /// request.graph by name. This is the version-pinned path: the
  /// JobService resolves at submit time and executes here, so a job
  /// submitted against version N runs on version N even if the name now
  /// serves N+1. Validates app/engine/root against `graph`; the caller
  /// vouches for graph-requirement traits (it validated at resolve time).
  /// A non-null `trace` collects guidance_acquire/engine_execute spans for
  /// this run (near-zero cost when null) and must outlive the call.
  AppOutcome RunOn(const AppRequest& request,
                   std::shared_ptr<const Graph> graph,
                   obs::JobTrace* trace = nullptr);

  GuidanceProvider& provider() { return provider_; }
  const SessionOptions& options() const { return options_; }

 private:
  /// One superseded-or-current version in a GraphEntry's history. The
  /// graph is held weakly: aliveness tracks whoever still pins it (the
  /// entry itself for the current version, in-flight jobs or the repair
  /// lineage for old ones) without the history extending any lifetime.
  struct VersionRecord {
    uint64_t version = 0;
    uint64_t fingerprint = 0;
    std::weak_ptr<const Graph> graph;
  };

  struct GraphEntry {
    std::shared_ptr<const Graph> graph;
    GraphTraits traits;
    /// Lazily built undirected closure for needs_symmetric apps.
    std::shared_ptr<const Graph> symmetrized;
    /// Serving version, starting at 1; bumped by every effective mutation.
    uint64_t version = 1;
    /// All versions ever served under this name (filled from the first
    /// mutation on; a never-mutated graph has an empty history).
    std::vector<VersionRecord> history;
  };

  /// Internal: descriptor lookup + requirement checks shared by
  /// Validate/Run (returns the descriptor and parsed engine on success).
  Status Check(const AppRequest& request, const AppDescriptor** descriptor,
               Engine* engine) const;

  /// Internal registration shared by the parse and arena paths (so each
  /// public entry point bumps exactly one provenance counter).
  Status AddGraphEntry(const std::string& name,
                       std::shared_ptr<const Graph> graph, GraphTraits traits);

  /// Internal resolution after a successful Check: the registered graph,
  /// or its symmetrized variant (built outside graphs_mu_ so a large
  /// closure rebuild cannot stall concurrent Validate/Run calls).
  std::shared_ptr<const Graph> ResolveChecked(const std::string& name,
                                              const AppDescriptor& app);

  /// One graph object's memoized partition. The graph is held weakly, so
  /// the memo never extends a version's lifetime; `once` makes concurrent
  /// first runs wait on a single build.
  struct PartitionMemo {
    std::weak_ptr<const Graph> graph;
    std::once_flag once;
    /// Written once, by the build; call_once orders it before every
    /// later read.
    std::shared_ptr<const DistGraph> dist_graph;
  };

  /// The options_.num_nodes partition of `graph`, built on its first dist
  /// run (outside partitions_mu_; counted in partitions_built_; recorded
  /// as a `partition` span on `trace`) and shared by every later one.
  std::shared_ptr<const DistGraph> PartitionOf(
      const std::shared_ptr<const Graph>& graph, obs::JobTrace* trace);

  /// Shared execution tail of Run/RunOn: scratch-dir setup for on-disk
  /// engines, the memoized partition for dist runs, AppConfig assembly,
  /// dispatch to the registry runner.
  AppOutcome RunWith(const AppRequest& request, const AppDescriptor& app,
                     Engine engine, std::shared_ptr<const Graph> graph,
                     obs::JobTrace* trace = nullptr);

  SessionOptions options_;
  GuidanceProvider provider_;

  mutable std::mutex graphs_mu_;
  std::map<std::string, GraphEntry> graphs_;

  /// Keyed by graph identity; expired entries are pruned on insert.
  std::mutex partitions_mu_;
  std::unordered_map<const Graph*, std::shared_ptr<PartitionMemo>>
      partitions_;

  std::atomic<uint64_t> graphs_parsed_{0};
  std::atomic<uint64_t> graphs_mapped_{0};
  std::atomic<uint64_t> graphs_mutated_{0};
  std::atomic<uint64_t> partitions_built_{0};
};

}  // namespace slfe::api

#endif  // SLFE_API_SESSION_H_
