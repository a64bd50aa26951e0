#ifndef SLFE_SERVICE_JOB_SERVICE_H_
#define SLFE_SERVICE_JOB_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "slfe/api/session.h"
#include "slfe/common/status.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/guidance_store.h"
#include "slfe/graph/graph.h"
#include "slfe/graph/types.h"
#include "slfe/obs/flight_recorder.h"
#include "slfe/obs/metrics.h"
#include "slfe/obs/trace.h"
#include "slfe/service/job_queue.h"
#include "slfe/sketch/hotness.h"

namespace slfe::service {

/// One graph-analytics job as a tenant submits it: which application, on
/// which engine, over which registered graph, for whom. The service — not
/// the request — decides the cluster shape and the guidance plumbing, so
/// every job on one graph shares the provider's cache/singleflight and the
/// paper's §4.4 multi-job amortization happens inside the process.
struct JobRequest {
  std::string tenant = "default";
  /// Any application the AppRegistry declares for `engine` — the service
  /// carries no app list of its own (`slfe_cli --list-apps` prints the
  /// authoritative set).
  std::string app = "sssp";
  /// Any engine name the registry knows: dist|shm|gas|ooc.
  std::string engine = "dist";
  /// Name previously passed to JobService::RegisterGraph.
  std::string graph;
  /// Query root for the single-source apps (sssp/bfs/wp/numpaths).
  VertexId root = 0;
  /// Iteration cap for the arithmetic apps (pr/tr/...).
  uint32_t max_iters = 50;
  /// false = baseline run (no guidance acquisition, no RR).
  bool enable_rr = true;
};

/// One batched graph mutation as a tenant submits it. Mutations ride the
/// same tenant-fair queue as query jobs — a tenant's mutation burst
/// cannot head-of-line-block another tenant — and execute on the worker
/// pool via Session::MutateGraph: jobs already in flight keep running on
/// the version they were submitted against; jobs submitted after the
/// mutation completes resolve to the new version.
struct MutationRequest {
  std::string tenant = "default";
  /// Name previously passed to JobService::RegisterGraph.
  std::string graph;
  GraphDelta delta;
};

/// What a completed (or failed) job reports back to its submitter.
struct JobResult {
  Status status;  ///< OK, or why the job could not run
  uint64_t job_id = 0;
  std::string tenant;
  std::string app;
  std::string engine;
  std::string graph;
  uint64_t supersteps = 0;
  uint64_t computations = 0;
  uint64_t skipped = 0;  ///< evaluations bypassed by redundancy reduction
  uint64_t updates = 0;
  double runtime_seconds = 0;
  /// Guidance acquisition cost actually paid by THIS job (near-zero on a
  /// cache hit — the amortization signal).
  double guidance_seconds = 0;
  bool guidance_acquired = false;
  bool guidance_cache_hit = false;
  bool guidance_coalesced = false;
  /// Guidance was produced by patching the previous graph version's
  /// guidance (incremental repair) instead of a full sweep.
  bool guidance_repaired = false;
  /// App-specific scalar (AppOutcome::summary): reached vertices
  /// (sssp/wp), max level (bfs), distinct components (cc),
  /// early-converged vertices (pr/tr), ...; for mutation jobs, the graph
  /// version now being served.
  uint64_t summary = 0;
  /// Service-wide completion order (1 = first job finished). Exposes the
  /// fair scheduler's interleaving to callers and tests.
  uint64_t sequence = 0;
  /// The job's span trace (null when tracing is disabled). Completed by
  /// the worker before the handle fires; the TCP front end appends its
  /// result_stream span afterwards.
  std::shared_ptr<obs::JobTrace> trace;
};

/// Completion handle for one submitted job. Wait() blocks until a worker
/// finishes the job; handles stay valid after the service shuts down.
class JobHandle {
 public:
  /// Returns a copy, so the result outlives the handle: callers may write
  /// `service.Submit(q).value()->Wait()` on a temporary ticket.
  JobResult Wait() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_; });
    return result_;
  }

  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  /// Registers the completion callback (one per handle — the streaming
  /// front end's contract). Invoked exactly once with the final result:
  /// immediately on the calling thread when the job has already finished,
  /// otherwise on the worker thread that completes it — so callbacks must
  /// be cheap and thread-safe (the TCP front end just posts to its event
  /// loop). Wait() stays usable alongside.
  void OnComplete(std::function<void(const JobResult&)> callback) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!done_) {
        callback_ = std::move(callback);
        return;
      }
    }
    callback(result_);  // result_ is immutable once done_
  }

 private:
  friend class JobService;

  void Complete(JobResult result) {
    std::function<void(const JobResult&)> callback;
    {
      std::lock_guard<std::mutex> lock(mu_);
      result_ = std::move(result);
      done_ = true;
      callback = std::move(callback_);
      callback_ = nullptr;
    }
    cv_.notify_all();
    if (callback) callback(result_);
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  JobResult result_;
  std::function<void(const JobResult&)> callback_;
};

using JobTicket = std::shared_ptr<JobHandle>;

/// Per-tenant accounting. `guidance_hits` counts jobs served from the
/// provider's cache OR coalesced onto another job's in-flight sweep (both
/// are amortized acquisitions that paid no own O(|E|) sweep);
/// `guidance_misses` counts jobs that paid a generation. `guidance_bytes`
/// is the guidance payload volume the tenant's jobs acquired (5 bytes per
/// vertex per acquisition — the same size the store budgets meter).
struct TenantStats {
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;
  uint64_t jobs_rejected = 0;
  uint64_t guidance_hits = 0;
  uint64_t guidance_misses = 0;
  /// Of the misses, how many were served by incremental repair (patched
  /// predecessor-version guidance) instead of a full sweep.
  uint64_t guidance_repaired = 0;
  uint64_t guidance_bytes = 0;
  double guidance_seconds = 0;
  /// Effective (non-no-op) graph mutations this tenant completed. Also
  /// counted in jobs_completed — a mutation is a job.
  uint64_t mutations = 0;
};

/// Network front-end accounting. The epoll listener (net/net_server.h)
/// reports into the service so one `stats` command shows connection
/// health next to job health — a daemon serving sockets is judged by both.
struct NetFrontEndStats {
  uint64_t accepted = 0;       ///< connections admitted past accept()
  uint64_t closed = 0;         ///< peer-initiated or clean `quit` closes
  uint64_t dropped = 0;        ///< server-initiated for cause (auth failure,
                               ///< buffer flood, connection cap)
  uint64_t auth_failures = 0;  ///< handshakes with a bad tenant/token
  uint64_t results_streamed = 0;  ///< completion lines pushed to peers
};

/// A consistent snapshot of the service's counters plus the shared
/// provider/cache counters (one lock acquisition for the service part, so
/// tenant rows always sum to the totals).
struct JobServiceStats {
  /// Daemon identity header: seconds since the service was constructed,
  /// the serving process, and the build (slfe/common/version.h).
  double uptime_seconds = 0;
  int pid = 0;
  std::string version;
  uint64_t submitted = 0;
  uint64_t rejected = 0;  ///< queue-full / validation rejections
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// Effective graph mutations executed (sum of the tenant rows').
  uint64_t mutations = 0;
  uint64_t maintenance_sweeps = 0;  ///< sweeps run by the timer + SweepNow
  uint64_t sweep_removed = 0;       ///< entries GC'd by those sweeps
  uint64_t sweep_pinned_spared = 0;  ///< victims spared by in-flight pins
  /// Graph provenance (from the session): registered via the parse path
  /// vs. mapped from an arena file. A warm restart over a populated
  /// arena_dir shows mapped == graph count, parsed == 0.
  uint64_t graphs_parsed = 0;
  uint64_t graphs_mapped = 0;
  /// Dist-engine partitions the session built: one per graph version run
  /// on, not one per job (Session::partitions_built).
  uint64_t partitions_built = 0;
  /// Connection-level accounting (all zero when no TCP front end drives
  /// the service).
  NetFrontEndStats net;
  std::map<std::string, TenantStats> tenants;
  GuidanceProviderStats provider;
  GuidanceCacheStats cache;
  /// Sketch plane: requests streamed through the HotnessTracker.
  uint64_t sketch_observations = 0;
  /// Exact per-tenant rows kept (== tenants.size()) vs. distinct tenants
  /// spilled past the max_tracked_tenants cap into sketch-only
  /// accounting. The spill count leans on count-min's never-underestimate
  /// property for first-seen detection, so it is exact until a collision
  /// makes a new tenant look already-seen.
  uint64_t tenants_tracked = 0;
  uint64_t tenants_sketched = 0;
  /// Aggregate accounting for the spilled tail — tracked rows plus this
  /// row still sum to the service totals, the per-tenant split within the
  /// tail lives only in the sketch (EstimateTenant).
  TenantStats sketched_tail;
};

struct JobServiceOptions {
  /// Worker threads executing jobs (>= 1).
  size_t workers = 2;
  /// Bounded queue depth (total across all tenant lanes); submissions
  /// beyond it are rejected, not queued.
  size_t queue_capacity = 64;
  /// Simulated cluster shape each job runs on (dist engine), the GAS
  /// engine's node count, and (nodes x threads) the shm thread count.
  int job_nodes = 2;
  int job_threads = 1;
  /// The shared guidance provider's configuration — store_dir + store_gc
  /// here give the service its persistence and GC policy.
  GuidanceProviderOptions provider;
  /// needs_symmetric apps (cc/mst) on a graph not registered as
  /// symmetric: true = the session lazily derives (and caches) the
  /// undirected closure; false = Submit rejects such jobs up front.
  bool auto_symmetrize = true;
  /// Per-tenant store budgets, merged into provider.store_gc (convenience
  /// so callers configure the service in one place).
  std::map<std::string, GuidanceTenantBudget> tenant_budgets;
  /// > 0 starts the maintenance timer thread: every interval it drives
  /// GuidanceStore::Sweep() (TTL + tenant + global budgets, pin-aware).
  /// 0 = no timer; SweepNow() remains available.
  double maintenance_interval_seconds = 0;
  /// Directory of `*.sga` graph arenas (passed through to the session).
  /// Empty = warm-restart registration disabled.
  std::string arena_dir;
  /// Allocate a JobTrace per submitted job (queue_wait / guidance_acquire
  /// / engine_execute / result_stream spans) and feed the flight recorder.
  /// Disabled, jobs carry a null trace pointer end to end — the only cost
  /// is that null check.
  bool tracing = true;
  /// Jobs slower than this (submit to complete) are captured in the slow
  /// ring and emit one rate-limited WARN line. 0 disables both.
  double slow_job_ms = 0;
  /// Completed traces retained by the flight recorder's recent ring (the
  /// slow ring keeps half as many, minimum 8).
  size_t trace_ring_capacity = 64;
  /// Sketch plane sizing (src/slfe/sketch/): every submission — query,
  /// mutation, or rejected request — is streamed through a HotnessTracker
  /// keyed by (tenant, graph fingerprint, app). The tracker also feeds
  /// the store GC's coldest-first eviction order.
  HotnessOptions hotness;
  /// > 0 enables hotness-gated store admission: generated guidance is
  /// written to the .rrg store only once its graph's estimated request
  /// count reaches this threshold. Colder graphs keep their guidance in
  /// memory (and are promoted to disk by the first hit after the graph
  /// turns hot). 0 = admit everything, the historic behavior.
  uint64_t hot_admit_threshold = 0;
  /// Exact per-tenant stat rows kept in Stats(). Tenants beyond the cap
  /// are accounted in one aggregate row (sketched_tail) plus the sketch,
  /// bounding the map at production tenant cardinality. 0 = unlimited.
  size_t max_tracked_tenants = 256;
};

/// The long-lived multi-tenant daemon core: accepts job requests into a
/// tenant-fair bounded queue (per-tenant lanes, round-robin pop — one
/// tenant's burst cannot head-of-line-block another tenant's jobs),
/// executes them on a worker pool, and routes EVERY job through one
/// api::Session — Session::Run is the single execution path, so the set
/// of submittable (app, engine) pairs is exactly what the AppRegistry
/// declares (including gas and ooc apps), and requirement-violating jobs
/// (unweighted graph for sssp/wp/mst, asymmetric graph for cc/mst when
/// auto-symmetrize is off) bounce at Submit with a registry-derived
/// message instead of failing mid-run. All guidance flows through the
/// session's ONE shared GuidanceProvider — concurrent jobs on the same
/// graph coalesce into a single generation (singleflight), so provider
/// generations == distinct graphs no matter how many tenants pile on. A
/// maintenance timer thread sweeps the guidance store on a configurable
/// cadence, enforcing global AND per-tenant byte/entry budgets; graphs
/// with in-flight jobs are pinned, so a sweep can never evict guidance a
/// running job is using.
///
/// Lifecycle: construct -> RegisterGraph() -> Submit()/Wait() ->
/// Shutdown() (stop admissions, drain the queue, final sweep, join).
/// Thread-safe throughout; Submit never blocks (a full queue rejects).
class JobService {
 public:
  explicit JobService(JobServiceOptions options = {});
  /// Implies Shutdown() (graceful: drains accepted jobs first).
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Makes `graph` submittable under `name`. Graphs are immutable and
  /// shared by reference across all jobs; a duplicate name is rejected
  /// (re-registering would silently change running jobs' data). The
  /// traits overload lets callers declare an already-symmetric (or
  /// known-weighted) graph, so needs_symmetric jobs skip the session's
  /// derived-closure copy.
  Status RegisterGraph(const std::string& name, Graph graph);
  Status RegisterGraph(const std::string& name, Graph graph,
                       api::GraphTraits traits);

  /// Warm-restart registration: maps the arena at `path` instead of
  /// parsing + partitioning. Traits come from the arena header.
  Status RegisterGraphFromArena(const std::string& name,
                                const std::string& path);
  /// Writes graph `name`'s arena to `path` (atomic temp + rename), so the
  /// NEXT service start can map it.
  Status SaveGraphArena(const std::string& name, const std::string& path,
                        ArenaCodec codec = ArenaCodec::kRaw);
  /// `<arena_dir>/<stem>.sga`, or "" when no arena_dir is configured.
  std::string ArenaPathFor(const std::string& stem) const;

  bool HasGraph(const std::string& name) const;

  /// Validates and enqueues one job. Returns the completion ticket, or:
  /// kFailedPrecondition when the service is shutting down or the queue
  /// is full (retryable backpressure), kNotFound for an unregistered
  /// graph, kInvalidArgument for an app/engine pair the registry does not
  /// declare, a graph-requirement violation, or an out-of-range root.
  Result<JobTicket> Submit(const JobRequest& request);

  /// Validates and enqueues one graph mutation into the tenant's lane.
  /// The completed JobResult carries app == "mutate" and the served graph
  /// version in `summary`. Rejections mirror Submit's: kFailedPrecondition
  /// for shutdown/backpressure, kNotFound for an unregistered graph.
  /// (The delta itself is validated at execution time — kInvalidArgument
  /// from ApplyDelta surfaces in the result's status, as a failed job.)
  Result<JobTicket> SubmitMutation(const MutationRequest& request);

  JobServiceStats Stats() const;

  /// Net front-end reporting hooks (see NetFrontEndStats). Kept on the
  /// service — not the listener — so `stats` renders one coherent
  /// snapshot and the accounting survives listener restarts.
  void RecordConnectionAccepted();
  /// `dropped` = server-initiated for cause; false = peer close / quit.
  void RecordConnectionClosed(bool dropped);
  void RecordAuthFailure();
  void RecordResultStreamed();

  /// The session every job executes through (and with it the shared
  /// provider all jobs acquire guidance from).
  api::Session& session() { return *session_; }
  GuidanceProvider& provider() { return session_->provider(); }

  /// Runs one maintenance sweep immediately (independent of the timer).
  /// No-op zero stats when the provider has no store.
  GuidanceStoreSweepStats SweepNow();

  /// The service-owned metrics registry (histograms recorded live by the
  /// workers, provider, and net listener; counters mirrored from Stats()
  /// at render time) and trace flight recorder.
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::FlightRecorder& flight_recorder() { return recorder_; }

  /// Prometheus text exposition (ends with "# EOF\n") / one-line JSON —
  /// the payloads behind the `metrics` line-protocol command.
  std::string RenderMetricsText();
  std::string RenderMetricsJson();
  /// JSON for the `trace` command: "" or "recent" = the recent ring,
  /// "slow" = the slow ring, a job id = that job's trace (or an error
  /// object if the ring has evicted it). Always a single line.
  std::string RenderTraceJson(const std::string& selector) const;

  /// The `hot [k]` command payload: a `hot:` header (k, sketch
  /// observations) followed by one `hot <rank> graph=<name>
  /// fp=<hex> est=<n>` line per tracked heavy-hitter graph, hottest
  /// first. Graphs whose fingerprint has no registered name (e.g. a
  /// pre-restart mutation lineage) render as graph=?.
  std::string RenderHot(size_t k) const;

  /// The request-stream sketch (tests cross-check estimates through it).
  const HotnessTracker& hotness() const { return tracker_; }

  /// Graceful shutdown: reject new submissions, drain every already
  /// accepted job, stop the maintenance loop, run the final sweep.
  /// Idempotent; blocks until the workers have exited.
  void Shutdown();

  bool accepting() const { return accepting_.load(); }
  size_t queued() const { return queue_.size(); }

 private:
  struct QueuedJob {
    JobRequest request;
    /// The exact graph the job runs on (Session::ResolveGraph — the
    /// symmetrized variant for needs_symmetric apps), for pinning, byte
    /// metering, AND version pinning: the worker executes on THIS graph
    /// (Session::RunOn), so a mutation landing between submit and
    /// execution cannot change what the job computes on. Null for
    /// mutation jobs.
    std::shared_ptr<const Graph> graph;
    /// Non-null = this queued item is a mutation, not a query job.
    std::shared_ptr<const GraphDelta> mutation;
    JobTicket ticket;
    uint64_t id = 0;
    /// Span trace (null when tracing is off); epoch == submit time.
    std::shared_ptr<obs::JobTrace> trace;
    /// Submit timestamp for the latency histograms, independent of the
    /// trace so they record even with tracing disabled.
    std::chrono::steady_clock::time_point submitted_at;
  };

  void WorkerLoop();
  void MaintenanceLoop();
  JobResult Execute(const QueuedJob& job);
  void RecordSweep(const GuidanceStoreSweepStats& sweep);
  static api::AppRequest ToAppRequest(const JobRequest& request);
  /// Stamps submit-time metadata (id, timestamps, trace) onto a queued job.
  void PrepareQueuedJob(QueuedJob* job);
  /// Completion-side observability: latency histograms, flight-recorder
  /// push, rate-limited slow-job WARN.
  void ObserveCompletion(const QueuedJob& job, JobResult* result);
  /// Mirrors Stats() counters into the registry before rendering.
  void CollectMetrics();
  /// Streams one request through the sketch plane and (under stats_mu_)
  /// maintains the fingerprint->name map for `hot` rendering plus the
  /// distinct-spilled-tenant count. fingerprint == 0 = unresolved.
  void RecordDemand(const std::string& tenant, uint64_t fingerprint,
                    const std::string& app, const std::string& graph_name);
  /// The tenant's exact stats row, or the sketched_tail aggregate once
  /// the max_tracked_tenants cap is reached. Caller holds stats_mu_.
  TenantStats& TenantRowLocked(const std::string& tenant);

  JobServiceOptions options_;
  /// Declared before session_: the session's provider keeps histogram
  /// pointers into this registry for its whole lifetime.
  obs::MetricsRegistry metrics_;
  obs::FlightRecorder recorder_;
  /// Declared before session_: the session's provider holds admission /
  /// eviction-oracle lambdas that read the tracker, so the tracker must
  /// outlive the session.
  HotnessTracker tracker_;
  std::unique_ptr<api::Session> session_;
  JobQueue<QueuedJob> queue_;

  std::chrono::steady_clock::time_point started_at_;
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* job_latency_hist_ = nullptr;
  obs::Counter* slow_jobs_counter_ = nullptr;
  /// Milliseconds (since started_at_) of the last slow-job WARN actually
  /// emitted — the 1/sec rate limiter.
  std::atomic<int64_t> last_slow_warn_ms_{-1000000};

  mutable std::mutex stats_mu_;
  JobServiceStats stats_;
  /// Graph fingerprint -> registered name for `hot` rendering (guarded by
  /// stats_mu_; bounded by the registered-graph count, first name wins).
  std::unordered_map<uint64_t, std::string> fingerprint_names_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_job_id_{1};
  std::atomic<uint64_t> completion_seq_{0};

  std::mutex maintenance_mu_;
  std::condition_variable maintenance_cv_;

  std::vector<std::thread> workers_;
  std::thread maintenance_;
  std::mutex shutdown_mu_;  // serializes Shutdown callers
  bool shut_down_ = false;
};

}  // namespace slfe::service

#endif  // SLFE_SERVICE_JOB_SERVICE_H_
