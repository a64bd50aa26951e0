#include "slfe/core/guidance_provider.h"

#include <utility>

#include "slfe/common/timer.h"
#include "slfe/core/roots.h"
#include "slfe/graph/delta.h"

namespace slfe {

namespace {

/// Remembered unproducible requests (see the negative cache note on
/// GuidanceProvider), FIFO evicted.
constexpr size_t kNegativeCacheCapacity = 64;
/// Remembered mutations (new-fingerprint -> predecessor lineage), FIFO
/// evicted; a mutation evicted from here regenerates instead of repairing.
constexpr size_t kLineageCapacity = 32;

}  // namespace

GuidanceProvider::GuidanceProvider(GuidanceProviderOptions options)
    : options_(std::move(options)), cache_(options_.cache_capacity) {
  if (!options_.store_dir.empty()) {
    store_ = std::make_shared<GuidanceStore>(options_.store_dir,
                                             options_.store_gc);
    cache_.AttachStore(store_);
    if (options_.store_admission != nullptr) {
      cache_.SetStoreAdmission(options_.store_admission);
    }
  }
  if (options_.metrics != nullptr) {
    generation_hist_ = options_.metrics->GetHistogram(
        "slfe_guidance_generation_seconds",
        "Wall seconds per full RR-guidance sweep");
    repair_hist_ = options_.metrics->GetHistogram(
        "slfe_guidance_repair_seconds",
        "Wall seconds per successful incremental guidance repair");
    store_load_hist_ = options_.metrics->GetHistogram(
        "slfe_guidance_store_load_seconds",
        "Wall seconds per guidance load from the persistent store");
  }
}

GuidanceProvider& GuidanceProvider::Global() {
  static GuidanceProvider* provider = new GuidanceProvider();
  return *provider;
}

GuidanceProvider& ResolveProvider(GuidanceProvider* provider) {
  return provider != nullptr ? *provider : GuidanceProvider::Global();
}

std::vector<VertexId> GuidanceProvider::SelectRoots(
    const Graph& graph, const GuidanceRequest& request) {
  switch (request.policy) {
    case GuidanceRootPolicy::kSingleSource:
      return {request.root};
    case GuidanceRootPolicy::kSourceVertices:
      return SelectSourceRoots(graph);
    case GuidanceRootPolicy::kLocalMinima:
      return SelectLocalMinimaRoots(graph);
  }
  return {};
}

GuidanceAcquisition GuidanceProvider::Acquire(const Graph& graph,
                                              const GuidanceRequest& request) {
  Timer timer;
  GuidanceAcquisition result;

  NegativeKey neg_key{graph.fingerprint(), request.policy,
                      request.policy == GuidanceRootPolicy::kSingleSource
                          ? request.root
                          : 0};
  if (NegativeLookup(neg_key)) {
    // Remembered as unproducible: return baseline mode without repeating
    // the root-selection scan.
    result.acquire_seconds = timer.Seconds();
    return result;
  }

  // Root selection is an O(V..V+E) scan for the non-single-source policies
  // and repeats on every job, so it belongs in the reported acquisition
  // cost — even on the cache-hit path.
  std::vector<VertexId> roots = SelectRoots(graph, request);
  if (roots.empty()) {
    // Unproducible (empty graph, or a policy that found no propagation
    // sources): remember it so repeats skip the selection scan too.
    NegativeInsert(neg_key);
    result.acquire_seconds = timer.Seconds();
    return result;
  }
  result = AcquireInternal(graph, roots, request.use_cache, &request);
  result.acquire_seconds = timer.Seconds();
  return result;
}

GuidanceAcquisition GuidanceProvider::AcquireForRoots(
    const Graph& graph, const std::vector<VertexId>& roots, bool use_cache) {
  return AcquireInternal(graph, roots, use_cache, nullptr);
}

GuidanceAcquisition GuidanceProvider::AcquireInternal(
    const Graph& graph, const std::vector<VertexId>& roots, bool use_cache,
    const GuidanceRequest* request) {
  Timer timer;
  GuidanceAcquisition result;
  if (roots.empty()) {
    // An empty root set makes the sweep a no-op that disables all
    // redundancy reduction; hand back baseline mode instead of warning
    // and generating useless all-zero guidance.
    result.acquire_seconds = timer.Seconds();
    return result;
  }
  GuidanceKey key = GuidanceCache::MakeKey(graph.fingerprint(), roots);
  if (use_cache) {
    bool from_store = false;
    double lookup_start = timer.Seconds();
    result.guidance = cache_.Lookup(key, &from_store);
    if (result.guidance != nullptr) {
      result.cache_hit = true;
      result.store_hit = from_store;
      if (from_store && store_load_hist_ != nullptr) {
        store_load_hist_->Observe(timer.Seconds() - lookup_start);
      }
      result.acquire_seconds = timer.Seconds();
      return result;
    }
  }

  if (!use_cache) {
    // Bypass path (benches measuring per-job sweep cost): no coalescing,
    // no insertion — every call pays a full generation by design.
    result.guidance = GenerateNow(graph, roots);
    result.acquire_seconds = timer.Seconds();
    return result;
  }

  // Singleflight: exactly one generation per key, no matter how many
  // threads miss on it concurrently. The first to register the flight
  // becomes the leader; everyone else blocks on the flight and shares the
  // leader's result.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      // A flight for this key may have just completed: its leader inserted
      // into the cache and erased the flight between our cache miss and
      // this registration. Re-probe (memory-only, side-effect-free) before
      // committing to a fresh sweep.
      result.guidance = cache_.Peek(key);
      if (result.guidance != nullptr) {
        result.cache_hit = true;
        result.acquire_seconds = timer.Seconds();
        return result;
      }
      flight = std::make_shared<Flight>();
      flights_[key] = flight;
      leader = true;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    result.guidance = flight->result;
    result.coalesced = true;
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.coalesced;
    }
    result.acquire_seconds = timer.Seconds();
    return result;
  }

  // Leader. The completer publishes whatever result is set (null on an
  // unwind — e.g. bad_alloc out of the sweep) and unregisters the flight
  // from its destructor, so followers can never deadlock on a flight
  // whose leader died. Publication happens before unregistration, so a
  // thread that finds no flight is guaranteed to find the cache entry
  // (the Peek above closes the other ordering).
  struct FlightCompleter {
    GuidanceProvider* provider;
    const GuidanceKey& key;
    const std::shared_ptr<Flight>& flight;
    std::shared_ptr<const RRGuidance> result;
    ~FlightCompleter() {
      {
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->result = result;
        flight->done = true;
      }
      flight->cv.notify_all();
      std::lock_guard<std::mutex> lock(provider->flights_mu_);
      provider->flights_.erase(key);
    }
  } completer{this, key, flight, nullptr};

  // Repair first: a miss immediately after a recorded mutation can patch
  // the predecessor version's guidance in time proportional to the damage
  // instead of re-sweeping O(|E|). Any failed precondition falls back to
  // the full sweep — correctness never depends on the repair succeeding.
  result.guidance = TryRepair(graph, roots, request);
  if (result.guidance != nullptr) {
    result.repaired = true;
  } else {
    result.guidance = GenerateNow(graph, roots);
  }
  cache_.Insert(key, result.guidance);
  completer.result = result.guidance;
  result.acquire_seconds = timer.Seconds();
  return result;
}

void GuidanceProvider::RecordMutation(std::shared_ptr<const Graph> old_graph,
                                      const Graph& new_graph,
                                      std::shared_ptr<const GraphDelta> delta) {
  if (old_graph == nullptr || delta == nullptr) return;
  uint64_t new_fp = new_graph.fingerprint();
  std::lock_guard<std::mutex> lock(lineage_mu_);
  if (lineage_.emplace(new_fp, Lineage{std::move(old_graph),
                                       std::move(delta)}).second) {
    lineage_fifo_.push_back(new_fp);
    while (lineage_fifo_.size() > kLineageCapacity) {
      lineage_.erase(lineage_fifo_.front());
      lineage_fifo_.pop_front();
    }
  }
}

std::shared_ptr<const RRGuidance> GuidanceProvider::TryRepair(
    const Graph& graph, const std::vector<VertexId>& roots,
    const GuidanceRequest* request) {
  Lineage lineage;
  {
    std::lock_guard<std::mutex> lock(lineage_mu_);
    auto it = lineage_.find(graph.fingerprint());
    if (it == lineage_.end()) return nullptr;  // unknown graph: no fallback
    lineage = it->second;
  }
  auto fall_back = [&]() -> std::shared_ptr<const RRGuidance> {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.repair_fallbacks;
    return nullptr;
  };

  const Graph& old_graph = *lineage.old_graph;
  // Heuristic: a delta touching a large fraction of the old edge set
  // damages too much for patching to beat the sweep it replaces.
  if (static_cast<double>(lineage.delta->size()) >
      options_.repair.max_delta_fraction *
          static_cast<double>(old_graph.num_edges())) {
    return fall_back();
  }

  // The old guidance lives under the OLD graph's key, which needs the old
  // root set. With policy context we re-derive it (policies are pure
  // functions of the topology); with explicit roots, the caller's roots
  // must already exist in the old version or the keys cannot correspond.
  std::vector<VertexId> old_roots;
  if (request != nullptr) {
    old_roots = SelectRoots(old_graph, *request);
    if (old_roots.empty()) return fall_back();
    if (request->policy == GuidanceRootPolicy::kSingleSource &&
        request->root >= old_graph.num_vertices()) {
      return fall_back();  // querying a vertex the old version lacked
    }
  } else {
    for (VertexId r : roots) {
      if (r >= old_graph.num_vertices()) return fall_back();
    }
    old_roots = roots;
  }

  // Lookup (not Peek): the store fallback makes warm-restart repair work —
  // the predecessor entry may only exist on disk.
  GuidanceKey old_key =
      GuidanceCache::MakeKey(old_graph.fingerprint(), old_roots);
  std::shared_ptr<const RRGuidance> old_guidance = cache_.Lookup(old_key);
  if (old_guidance == nullptr) return fall_back();
  if (!old_guidance->has_levels()) {
    return fall_back();  // pre-levels store entry: not repairable
  }

  Timer repair_timer;
  Result<RRGuidance> repaired = RRGuidance::Repair(
      graph, *lineage.delta, *old_guidance, old_roots, roots,
      options_.repair.max_affected_fraction);
  if (!repaired.ok()) return fall_back();  // e.g. the cascade blew its bound
  if (repair_hist_ != nullptr) repair_hist_->Observe(repair_timer.Seconds());
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.repairs;
  }
  return std::make_shared<const RRGuidance>(std::move(repaired).value());
}

std::shared_ptr<const RRGuidance> GuidanceProvider::GenerateNow(
    const Graph& graph, const std::vector<VertexId>& roots) {
  // Singleflight sends each key here once; misses on different keys sweep
  // concurrently, each on its own caller's thread. AcquireInternal has
  // already rejected empty root sets, so Generate's empty-roots warning
  // never fires on this path.
  Timer generation_timer;
  auto guidance =
      std::make_shared<const RRGuidance>(RRGuidance::Generate(graph, roots));
  if (generation_hist_ != nullptr) {
    generation_hist_->Observe(generation_timer.Seconds());
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.generations;
  }
  return guidance;
}

bool GuidanceProvider::NegativeLookup(const NegativeKey& key) {
  std::lock_guard<std::mutex> lock(negative_mu_);
  if (negative_.find(key) == negative_.end()) return false;
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.negative_hits;
  }
  return true;
}

void GuidanceProvider::NegativeInsert(const NegativeKey& key) {
  std::lock_guard<std::mutex> lock(negative_mu_);
  if (!negative_.insert(key).second) return;
  negative_fifo_.push_back(key);
  while (negative_fifo_.size() > kNegativeCacheCapacity) {
    negative_.erase(negative_fifo_.front());
    negative_fifo_.pop_front();
  }
}

void GuidanceProvider::ClearNegativeCache() {
  std::lock_guard<std::mutex> lock(negative_mu_);
  negative_.clear();
  negative_fifo_.clear();
}

GuidanceProviderStats GuidanceProvider::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace slfe
