#include "slfe/api/session.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "slfe/graph/edge_list.h"

namespace slfe::api {

namespace {

/// Unit weights carry no path-cost information; one non-unit weight makes
/// the graph "weighted" for the requirement checks.
bool HasNonUnitWeights(const Graph& graph) {
  for (Weight w : graph.out().weights()) {
    if (w != 1.0f) return true;
  }
  return false;
}

/// Rebuilds the undirected closure from the out-adjacency. Matches the
/// EdgeList::Symmetrize + Deduplicate preparation the CLI used to do by
/// hand: both directions of every edge, first-seen weight per (src, dst).
Graph Symmetrized(const Graph& graph) {
  EdgeList edges(graph.num_vertices());
  edges.Reserve(graph.num_edges());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    graph.out().ForEachNeighbor(
        v, [&](VertexId dst, Weight w) { edges.Add(v, dst, w); });
  }
  edges.Symmetrize();
  edges.Deduplicate();
  return Graph::FromEdges(edges);
}

}  // namespace

Session::Session(SessionOptions options)
    : options_(std::move(options)), provider_(options_.provider) {
  if (options_.num_nodes < 1) options_.num_nodes = 1;
  if (options_.threads_per_node < 1) options_.threads_per_node = 1;
  if (options_.scratch_dir.empty()) {
    options_.scratch_dir =
        "/tmp/slfe_session." + std::to_string(::getpid());
  }
  if (!options_.arena_dir.empty()) {
    ::mkdir(options_.arena_dir.c_str(), 0755);  // EEXIST is the happy path
  }
}

Status Session::AddGraph(const std::string& name, Graph graph) {
  GraphTraits traits;
  traits.weighted = HasNonUnitWeights(graph);
  return AddGraph(name, std::move(graph), traits);
}

Status Session::AddGraph(const std::string& name, Graph graph,
                         GraphTraits traits) {
  SLFE_RETURN_IF_ERROR(AddGraphEntry(
      name, std::make_shared<const Graph>(std::move(graph)), traits));
  ++graphs_parsed_;
  return Status::OK();
}

Status Session::AddGraphFromArena(const std::string& name,
                                  const std::string& path) {
  Result<std::shared_ptr<GraphArena>> arena = GraphArena::Open(path);
  if (!arena.ok()) return arena.status();
  GraphTraits traits;
  traits.symmetric = arena.value()->symmetric();
  traits.weighted = arena.value()->weighted();
  // graph() co-owns the arena, so the shared_ptr<GraphArena> going out of
  // scope here does not unmap anything while the entry lives.
  SLFE_RETURN_IF_ERROR(AddGraphEntry(
      name, std::make_shared<const Graph>(arena.value()->graph()), traits));
  ++graphs_mapped_;
  return Status::OK();
}

Status Session::SaveGraphArena(const std::string& name,
                               const std::string& path, ArenaCodec codec) {
  std::shared_ptr<const Graph> graph;
  GraphTraits traits;
  {
    std::lock_guard<std::mutex> lock(graphs_mu_);
    auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      return Status::NotFound("graph not registered: " + name);
    }
    graph = it->second.graph;
    traits = it->second.traits;
  }
  ArenaBuildOptions build;
  build.num_nodes = options_.num_nodes;
  build.codec = codec;
  build.symmetric = traits.symmetric;
  build.weighted = traits.weighted;
  return GraphArena::Build(*graph, path, build);
}

std::string Session::ArenaPath(const std::string& stem) const {
  if (options_.arena_dir.empty()) return std::string();
  return options_.arena_dir + "/" + stem + ".sga";
}

Status Session::AddGraphEntry(const std::string& name,
                              std::shared_ptr<const Graph> graph,
                              GraphTraits traits) {
  if (name.empty()) return Status::InvalidArgument("graph name is empty");
  std::lock_guard<std::mutex> lock(graphs_mu_);
  if (graphs_.find(name) != graphs_.end()) {
    return Status::FailedPrecondition("graph already registered: " + name);
  }
  graphs_.emplace(name, GraphEntry{std::move(graph), traits, nullptr, 1, {}});
  return Status::OK();
}

bool Session::HasGraph(const std::string& name) const {
  std::lock_guard<std::mutex> lock(graphs_mu_);
  return graphs_.find(name) != graphs_.end();
}

std::shared_ptr<const Graph> Session::GetGraph(const std::string& name) const {
  std::lock_guard<std::mutex> lock(graphs_mu_);
  auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second.graph;
}

Result<GraphMutationResult> Session::MutateGraph(const std::string& name,
                                                 const GraphDelta& delta) {
  // The delta outlives this call inside the provider's repair lineage.
  auto delta_ptr = std::make_shared<const GraphDelta>(delta);
  for (;;) {
    std::shared_ptr<const Graph> base;
    uint64_t base_version = 0;
    {
      std::lock_guard<std::mutex> lock(graphs_mu_);
      auto it = graphs_.find(name);
      if (it == graphs_.end()) {
        return Status::NotFound("graph not registered: " + name);
      }
      base = it->second.graph;
      base_version = it->second.version;
    }

    GraphMutationResult result;
    result.old_fingerprint = base->fingerprint();
    Result<Graph> next = ApplyDelta(*base, *delta_ptr, &result.delta_stats);
    if (!next.ok()) return next.status();

    if (result.delta_stats.edges_inserted == 0 &&
        result.delta_stats.edges_deleted == 0) {
      // Every insert was a duplicate and every delete was absent: the
      // topology is unchanged, so keep serving the SAME Graph object
      // (same fingerprint, same cached guidance) under the same version.
      result.version = base_version;
      result.new_fingerprint = result.old_fingerprint;
      result.changed = false;
      result.num_vertices = base->num_vertices();
      result.num_edges = base->num_edges();
      return result;
    }

    auto fresh = std::make_shared<const Graph>(std::move(next).value());
    GraphTraits traits;
    traits.weighted = HasNonUnitWeights(*fresh);
    // A delta on a symmetric graph only preserves symmetry if the caller
    // mirrored every edge; the session cannot assume that.
    traits.symmetric = false;
    // Force both fingerprints outside graphs_mu_ (lazy O(V+E) memo).
    result.new_fingerprint = fresh->fingerprint();

    {
      std::lock_guard<std::mutex> lock(graphs_mu_);
      auto it = graphs_.find(name);
      if (it == graphs_.end()) {
        return Status::NotFound("graph not registered: " + name);
      }
      GraphEntry& entry = it->second;
      if (entry.graph != base) continue;  // lost the race: reapply on winner
      if (entry.history.empty()) {
        entry.history.push_back(
            {entry.version, result.old_fingerprint, entry.graph});
      }
      entry.graph = fresh;
      entry.traits = traits;
      entry.symmetrized.reset();
      ++entry.version;
      entry.history.push_back({entry.version, result.new_fingerprint, fresh});
      result.version = entry.version;
    }
    provider_.RecordMutation(std::move(base), *fresh, std::move(delta_ptr));
    ++graphs_mutated_;
    result.changed = true;
    result.num_vertices = fresh->num_vertices();
    result.num_edges = fresh->num_edges();
    return result;
  }
}

std::vector<GraphVersionInfo> Session::GraphVersions(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(graphs_mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) return {};
  const GraphEntry& entry = it->second;
  std::vector<GraphVersionInfo> out;
  if (entry.history.empty()) {
    // Never mutated: one synthetic row for the graph as registered.
    out.push_back({entry.version, entry.graph->fingerprint(), true, true});
    return out;
  }
  for (const VersionRecord& record : entry.history) {
    out.push_back({record.version, record.fingerprint,
                   !record.graph.expired(), record.version == entry.version});
  }
  return out;
}

Status Session::Check(const AppRequest& request,
                      const AppDescriptor** descriptor, Engine* engine) const {
  const AppRegistry& registry = AppRegistry::Global();
  const AppDescriptor* app = registry.Find(request.app);
  if (app == nullptr) {
    return Status::InvalidArgument("unknown app: " + request.app +
                                   " (one of: " + registry.UsageList() + ")");
  }
  Result<Engine> parsed = ParseEngine(request.engine);
  if (!parsed.ok()) return parsed.status();
  if (!app->Supports(parsed.value())) {
    return Status::InvalidArgument(
        "app " + app->name + " not available on engine " + request.engine +
        " (declared: " + app->EngineList() + ")");
  }

  GraphTraits traits;
  VertexId num_vertices = 0;
  {
    std::lock_guard<std::mutex> lock(graphs_mu_);
    auto it = graphs_.find(request.graph);
    if (it == graphs_.end()) {
      return Status::NotFound("graph not registered: " + request.graph);
    }
    traits = it->second.traits;
    num_vertices = it->second.graph->num_vertices();
  }
  if (app->needs_symmetric && !traits.symmetric && !options_.auto_symmetrize) {
    return Status::InvalidArgument(
        "app " + app->name + " requires a symmetric graph; '" +
        request.graph +
        "' is not registered as symmetric (and auto-symmetrize is off)");
  }
  if (app->needs_weights && !traits.weighted && options_.strict_weights) {
    return Status::InvalidArgument(
        "app " + app->name + " requires weighted edges; graph '" +
        request.graph + "' has unit weights only");
  }
  if (app->single_source && request.root >= num_vertices) {
    return Status::InvalidArgument(
        "root " + std::to_string(request.root) + " out of range for graph " +
        request.graph + " (|V|=" + std::to_string(num_vertices) + ")");
  }
  if (descriptor != nullptr) *descriptor = app;
  if (engine != nullptr) *engine = parsed.value();
  return Status::OK();
}

Status Session::Validate(const AppRequest& request) const {
  return Check(request, nullptr, nullptr);
}

std::shared_ptr<const Graph> Session::ResolveChecked(
    const std::string& name, const AppDescriptor& app) {
  std::shared_ptr<const Graph> base;
  {
    std::lock_guard<std::mutex> lock(graphs_mu_);
    GraphEntry& entry = graphs_.at(name);
    if (!app.needs_symmetric || entry.traits.symmetric) return entry.graph;
    if (entry.symmetrized != nullptr) return entry.symmetrized;
    base = entry.graph;
  }
  // Build the O(V+E) closure OUTSIDE graphs_mu_: a multi-tenant service
  // validates submissions under that mutex, and a seconds-long rebuild of
  // a large graph must not stall every other tenant's Submit. Racing
  // first resolvers may build duplicates; the first to publish wins and
  // the rest are dropped (rare one-off cost, bounded by the race width).
  auto built = std::make_shared<const Graph>(Symmetrized(*base));
  std::lock_guard<std::mutex> lock(graphs_mu_);
  GraphEntry& entry = graphs_.at(name);
  if (entry.symmetrized == nullptr) entry.symmetrized = std::move(built);
  return entry.symmetrized;
}

Result<std::shared_ptr<const Graph>> Session::ResolveGraph(
    const AppRequest& request) {
  const AppDescriptor* app = nullptr;
  Status status = Check(request, &app, nullptr);
  if (!status.ok()) return status;
  return ResolveChecked(request.graph, *app);
}

AppOutcome Session::Run(const AppRequest& request) {
  AppOutcome outcome;
  const AppDescriptor* app = nullptr;
  Engine engine;
  outcome.status = Check(request, &app, &engine);
  if (!outcome.status.ok()) return outcome;
  return RunWith(request, *app, engine,
                 ResolveChecked(request.graph, *app));
}

AppOutcome Session::RunOn(const AppRequest& request,
                          std::shared_ptr<const Graph> graph,
                          obs::JobTrace* trace) {
  AppOutcome outcome;
  if (graph == nullptr) {
    outcome.status = Status::InvalidArgument("RunOn: null graph");
    return outcome;
  }
  // Registry checks repeat (they are cheap and request-local); the
  // by-name graph lookup and trait checks do NOT — the pinned graph is
  // the resolution, validated when the caller resolved it.
  const AppRegistry& registry = AppRegistry::Global();
  const AppDescriptor* app = registry.Find(request.app);
  if (app == nullptr) {
    outcome.status =
        Status::InvalidArgument("unknown app: " + request.app + " (one of: " +
                                registry.UsageList() + ")");
    return outcome;
  }
  Result<Engine> engine = ParseEngine(request.engine);
  if (!engine.ok()) {
    outcome.status = engine.status();
    return outcome;
  }
  if (!app->Supports(engine.value())) {
    outcome.status = Status::InvalidArgument(
        "app " + app->name + " not available on engine " + request.engine +
        " (declared: " + app->EngineList() + ")");
    return outcome;
  }
  if (app->single_source && request.root >= graph->num_vertices()) {
    outcome.status = Status::InvalidArgument(
        "root " + std::to_string(request.root) +
        " out of range for the pinned graph (|V|=" +
        std::to_string(graph->num_vertices()) + ")");
    return outcome;
  }
  return RunWith(request, *app, engine.value(), std::move(graph), trace);
}

std::shared_ptr<const DistGraph> Session::PartitionOf(
    const std::shared_ptr<const Graph>& graph, obs::JobTrace* trace) {
  std::shared_ptr<PartitionMemo> memo;
  {
    std::lock_guard<std::mutex> lock(partitions_mu_);
    auto it = partitions_.find(graph.get());
    // The identity check keeps a dead version's entry from matching a new
    // graph allocated at the same address.
    if (it != partitions_.end() && it->second->graph.lock() == graph) {
      memo = it->second;
    } else {
      std::erase_if(partitions_, [](const auto& entry) {
        return entry.second->graph.expired();
      });
      memo = std::make_shared<PartitionMemo>();
      memo->graph = graph;
      partitions_[graph.get()] = memo;
    }
  }
  std::call_once(memo->once, [&] {
    double start = trace != nullptr ? trace->Now() : 0.0;
    memo->dist_graph = std::make_shared<const DistGraph>(
        DistGraph::Build(*graph, options_.num_nodes));
    ++partitions_built_;
    if (trace != nullptr) trace->AddSpanSince("partition", start);
  });
  return memo->dist_graph;
}

AppOutcome Session::RunWith(const AppRequest& request, const AppDescriptor& app,
                            Engine engine,
                            std::shared_ptr<const Graph> graph,
                            obs::JobTrace* trace) {
  AppOutcome outcome;
  if (engine == Engine::kOoc) {
    // Lazily create the scratch root only when an engine with on-disk
    // state runs (OocEngine::Build mkdirs just the leaf under it), and
    // fail HERE with a clear message instead of a confusing shard error.
    if (::mkdir(options_.scratch_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      outcome.status = Status::IOError("cannot create session scratch dir " +
                                       options_.scratch_dir);
      return outcome;
    }
  }

  // Held for the whole run: config.dist_graph does not own it.
  std::shared_ptr<const DistGraph> partition;
  if (engine == Engine::kDist) partition = PartitionOf(graph, trace);

  AppConfig config;
  config.num_nodes = options_.num_nodes;
  config.threads_per_node = options_.threads_per_node;
  config.enable_rr = request.enable_rr;
  config.enable_stealing = request.enable_stealing;
  config.max_iters = request.max_iters;
  config.epsilon = request.epsilon;
  config.root = request.root;
  config.guidance_provider = &provider_;
  config.trace = trace;
  config.dist_graph = partition.get();

  RunContext context{*graph, request, std::move(config),
                     options_.scratch_dir};
  if (trace == nullptr) return app.runners.at(engine)(context);

  // Report the runner's wall time minus whatever guidance_acquire spans it
  // recorded as engine_execute, so a trace's spans tile the job's timeline
  // instead of double-counting the acquisition.
  double runner_start = trace->Now();
  AppOutcome run_outcome = app.runners.at(engine)(context);
  double wall = trace->Now() - runner_start;
  double guidance = trace->SpanSecondsWithPrefix("guidance_acquire");
  double engine_seconds = wall - guidance;
  if (engine_seconds < 0.0) engine_seconds = 0.0;
  trace->AddSpan("engine_execute", runner_start + guidance, engine_seconds);
  return run_outcome;
}

}  // namespace slfe::api
