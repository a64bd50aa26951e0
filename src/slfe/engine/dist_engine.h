#ifndef SLFE_ENGINE_DIST_ENGINE_H_
#define SLFE_ENGINE_DIST_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "slfe/common/bitmap.h"
#include "slfe/common/direction.h"
#include "slfe/common/logging.h"
#include "slfe/common/timer.h"
#include "slfe/common/work_stealing.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/sim/cluster.h"

namespace slfe {

/// Which propagation direction a superstep ran in (paper §3.3).
enum class Mode { kPush, kPull };

/// Per-destination decision returned by a pull filter (the RR hook).
enum class PullAction {
  kSkip,          ///< bypass this vertex entirely ("start late" delay)
  kGatherActive,  ///< aggregate contributions of active in-neighbors only
  kGatherAll,     ///< aggregate ALL in-neighbors (first unlocked iteration,
                  ///< arithmetic apps, safety sweep)
};

/// Pull filter taking the same action for every destination: what runs
/// without RR guidance pass (kGatherActive for min/max apps, kGatherAll for
/// arithmetic apps).
template <PullAction kAction>
struct ConstantFilter {
  PullAction operator()(VertexId) const { return kAction; }
};

/// How ProcessEdges chooses the direction each superstep.
enum class ModePolicy {
  kAdaptive,    ///< Gemini rule: pull (dense) when active out-edges > |E|*f
  kAlwaysPull,  ///< arithmetic apps always pull (paper footnote 2)
  kAlwaysPush,
};

/// What to reactivate when the engine transitions pull -> push. RR may
/// deactivate vertices whose latest value was never observed by skipped
/// successors, so the transition push must re-deliver values (paper
/// Algorithm 3's activateAllVertices). `kDirty` is the precise variant:
/// only vertices whose value changed since their last push are revived —
/// it produces the "small amount of immediate computations" bump the paper
/// circles in Fig. 9a. `kAll` is the paper's literal (conservative) rule.
enum class TransitionReactivation { kNone, kDirty, kAll };

struct EngineOptions {
  ModePolicy mode_policy = ModePolicy::kAdaptive;
  /// Active-out-edge fraction above which the engine runs dense/pull
  /// (Gemini uses |E|/20).
  double dense_fraction = 0.05;
  /// Mini-chunk work stealing inside a node (paper §3.6). Disable for the
  /// Fig. 10a ablation.
  bool enable_work_stealing = true;
  /// Pull->push correctness rule; kNone for the non-RR baseline.
  TransitionReactivation reactivation = TransitionReactivation::kNone;
  /// Virtual network cost model for the simulated cluster.
  sim::CostModel cost_model;
  /// RR guidance for this engine's runs, typically acquired through the
  /// GuidanceProvider (apps thread it here via RunMinMaxApp/RunArithApp).
  /// Runners constructed without explicit guidance read it off the engine;
  /// null = the Gemini baseline. Shared ownership keeps the guidance alive even
  /// if the provider's cache evicts it mid-run.
  std::shared_ptr<const RRGuidance> guidance;
};

/// Aggregate statistics of one engine run. Counter definitions follow the
/// paper: `computations` = edge aggregation evaluations (Fig. 9),
/// `updates` = vertex property overwrites (Table 2), `skipped` =
/// evaluations bypassed by redundancy reduction.
struct EngineStats {
  uint64_t iterations = 0;
  double pull_seconds = 0;
  double push_seconds = 0;
  /// vertexUpdate phases (ProcessVertices), through their reduction.
  double vertex_seconds = 0;
  double comm_seconds = 0;  ///< simulated network time (BSP max per step)
  uint64_t computations = 0;
  uint64_t updates = 0;
  uint64_t skipped = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::vector<uint64_t> per_iter_computations;  ///< Fig. 9 series
  std::vector<Mode> per_iter_mode;
  std::vector<double> node_compute_seconds;   ///< per-rank wall time
  std::vector<uint64_t> node_computations;    ///< per-rank work, Fig. 10b
  std::vector<uint64_t> per_thread_chunks;    ///< stealing diag, Fig. 10a

  /// Wall compute time plus simulated communication time — the quantity
  /// reported as "runtime" in the distributed benchmarks.
  double RuntimeSeconds() const {
    return pull_seconds + push_seconds + vertex_seconds + comm_seconds;
  }
  /// (max - min) / max of per-node computation counts (Fig. 10b y-axis).
  /// Work-based rather than wall-clock: simulated ranks timeshare the
  /// host's cores, so per-rank wall time does not reflect node balance.
  double InterNodeImbalance() const {
    if (node_computations.empty()) return 0;
    uint64_t lo = node_computations[0], hi = node_computations[0];
    for (uint64_t c : node_computations) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return hi > 0 ? static_cast<double>(hi - lo) / static_cast<double>(hi)
                  : 0;
  }
};

/// Vertex-centric BSP engine over a DistGraph: the reproduction of Gemini's
/// push/pull dual-mode runtime that SLFE builds on. All methods marked
/// *collective* must be called by every rank of the cluster in the same
/// order (SPMD style); they contain the necessary barriers.
///
/// The accumulator type V parameterizes pull-mode gathering. Vertex
/// property arrays are owned by the application and captured in the
/// gather/apply/scatter callables; cross-node writes (push mode) must go
/// through the AtomicMin/AtomicMax/AtomicAdd helpers. The callables are
/// template parameters of ProcessEdges, so they inline into the edge loops.
///
/// A steady superstep costs two barriers: one after the compute phase, and
/// one inside the fused end-of-step reduction (see ProcessEdges). Each rank
/// keeps its own bookkeeping (RankState); rank 0 writes `stats_` only after
/// a barrier, and other ranks read it only through FinishRun.
template <typename V>
class DistEngine {
 public:
  DistEngine(const DistGraph& dist_graph, EngineOptions options)
      : dg_(dist_graph),
        options_(options),
        scheduler_(options.enable_work_stealing),
        ranks_(dist_graph.num_nodes()) {
    VertexId n = dg_.graph().num_vertices();
    active_[0].Resize(n);
    active_[1].Resize(n);
    dirty_.Resize(n);
  }

  const DistGraph& dist_graph() const { return dg_; }
  const EngineOptions& options() const { return options_; }
  EngineOptions& mutable_options() { return options_; }

  /// Guidance threaded in through EngineOptions (nullptr = baseline mode).
  const RRGuidance* guidance() const { return options_.guidance.get(); }

  /// Collective: clears all run state (active sets, counters, timers).
  void BeginRun(sim::NodeContext& ctx) {
    RankState& rs = ranks_[ctx.rank];
    rs = RankState{};
    rs.chunks.assign(ctx.pool->num_threads(), 0);
    if (ctx.rank == 0) {
      active_[0].Clear();
      active_[1].Clear();
      dirty_.Clear();
    }
    ctx.world->Barrier();
    // Reset stats_ only now: other ranks may copy the previous run's stats
    // until they reach the barrier, and none reads them again before the
    // next FinishRun.
    if (ctx.rank == 0) {
      stats_ = EngineStats{};
      stats_.node_compute_seconds.assign(dg_.num_nodes(), 0.0);
      stats_.node_computations.assign(dg_.num_nodes(), 0);
      stats_.per_thread_chunks.assign(
          static_cast<size_t>(dg_.num_nodes()) * ctx.pool->num_threads(), 0);
    }
  }

  /// Collective: activates `seeds` (any order; duplicates and seeds owned
  /// by other ranks allowed). Each rank sets the seeds it owns, then one
  /// barrier. Seeds carry initial values nobody has observed yet, so they
  /// start dirty for the transition-reactivation bookkeeping.
  void ActivateSeeds(sim::NodeContext& ctx,
                     const std::vector<VertexId>& seeds) {
    const VertexRange& r = dg_.range(ctx.rank);
    Bitmap& next = Next(ctx.rank);
    const bool track_dirty = TracksDirty();
    for (VertexId v : seeds) {
      if (r.Contains(v)) {
        next.SetBit(v);
        if (track_dirty) MarkDirty(v);
      }
    }
    ctx.world->Barrier();
  }

  /// Collective: activates every vertex (all initial values unobserved).
  void ActivateAll(sim::NodeContext& ctx) {
    const VertexRange& r = dg_.range(ctx.rank);
    Bitmap& next = Next(ctx.rank);
    const bool track_dirty = TracksDirty();
    for (VertexId v = r.begin; v < r.end; ++v) {
      next.SetBit(v);
      if (track_dirty) MarkDirty(v);
    }
    ctx.world->Barrier();
  }

  /// Installs the predicate deciding whether an updated vertex becomes
  /// "dirty" (its new value may go unseen by a delayed successor, so the
  /// next pull->push transition must re-deliver it). Without a policy every
  /// update is dirty — the conservative rule. The RR runner installs
  /// `iter + 1 < max(lastIter of out-neighbors)` each superstep: if all
  /// successors are already unlocked they gather the value next iteration
  /// and nothing is unseen. Consulted only under kDirty reactivation. Call
  /// before seeding and per superstep; not thread-safe against a running
  /// ProcessEdges.
  void SetDirtyPolicy(std::function<bool(VertexId)> policy) {
    dirty_policy_ = std::move(policy);
  }

  /// Collective, two barriers: promotes the "next" active set to "current"
  /// and returns the global number of active vertices. Runners call this
  /// once after seeding; ProcessEdges does the same at the end of each
  /// superstep.
  uint64_t PromoteActiveSet(sim::NodeContext& ctx) {
    ctx.world->Barrier();
    return Promote(ctx, StepTotals{}).active;
  }

  /// Collective: one superstep. Picks push or pull per the mode policy,
  /// runs the app's callables over the graph, applies RR filtering in pull
  /// mode, charges simulated communication, then promotes the active set
  /// and returns the number of globally active vertices for the next
  /// superstep. The callables:
  ///
  ///   gather(acc, src, weight) -> V       pull: fold one in-edge into acc
  ///   apply(dst, acc) -> bool             pull: commit; true iff dst changed
  ///   scatter(src, dst, weight) -> bool   push: true iff dst changed
  ///   pull_filter(dst) -> PullAction      pull: what to do with dst (RR hook)
  ///
  /// pull_filter is called exactly once per destination per pull superstep,
  /// from the one worker thread owning dst's mini-chunk, so it may update
  /// per-vertex bookkeeping without synchronization. kGatherAll aggregates
  /// over ALL in-neighbors rather than only active ones: "start late" needs
  /// it (a delayed vertex must see every predecessor, paper §3.2), and so
  /// do arithmetic apps (no meaningful active sources). Runs without
  /// guidance pass a ConstantFilter.
  /// `forced_mode` overrides the mode policy for this superstep (the RR
  /// verification sweep must pull even with an empty active set).
  ///
  /// Barriers: one after the compute phase and one in the fused reduction
  /// of {comm cost, computations, active vertices, active out-edges}; a
  /// pull->push transition with reactivation adds one more.
  template <typename Gather, typename Apply, typename Scatter,
            typename Filter>
  uint64_t ProcessEdges(sim::NodeContext& ctx, V identity,
                        const Gather& gather, const Apply& apply,
                        const Scatter& scatter, const Filter& pull_filter,
                        const Mode* forced_mode = nullptr) {
    RankState& rs = ranks_[ctx.rank];
    Mode mode = forced_mode != nullptr ? *forced_mode : DecideMode(rs);

    // Pull->push transition: RR may have deactivated vertices whose values
    // were never observed by their successors; reactivate them so push
    // delivers the "unseen" updates (paper Algorithm 3, lines 2-4). kDirty
    // revives only vertices whose value changed since their last push. The
    // barrier keeps other ranks' pushes from marking dirty bits while this
    // rank still reads them.
    if (options_.reactivation != TransitionReactivation::kNone &&
        mode == Mode::kPush && rs.last_mode == Mode::kPull) {
      const VertexRange& r = dg_.range(ctx.rank);
      Bitmap& cur = Cur(ctx.rank);
      for (VertexId v = r.begin; v < r.end; ++v) {
        if (options_.reactivation == TransitionReactivation::kAll ||
            dirty_.TestBit(v)) {
          cur.SetBit(v);
        }
      }
      ctx.world->Barrier();
    }

    Timer step_timer;
    uint64_t local_comp = 0, local_upd = 0, local_skip = 0;
    uint64_t local_msgs = 0, local_bytes = 0;

    if (mode == Mode::kPull) {
      RunPull(ctx, identity, gather, apply, pull_filter, &local_comp,
              &local_upd, &local_skip, &local_msgs, &local_bytes);
    } else {
      RunPush(ctx, scatter, &local_comp, &local_upd, &local_msgs,
              &local_bytes);
    }
    rs.compute_seconds += step_timer.Seconds();
    rs.computations += local_comp;
    rs.updates += local_upd;
    rs.skipped += local_skip;
    rs.messages += local_msgs;
    rs.bytes += local_bytes;
    rs.last_mode = mode;

    ctx.world->Barrier();  // every rank's reads of cur / writes of next done
    StepTotals mine;
    mine.comm_seconds = options_.cost_model.Cost(local_msgs, local_bytes);
    mine.computations = local_comp;
    StepTotals total = Promote(ctx, mine);

    if (ctx.rank == 0) {
      ++stats_.iterations;
      stats_.comm_seconds += total.comm_seconds;
      stats_.per_iter_computations.push_back(total.computations);
      stats_.per_iter_mode.push_back(mode);
      double wall = step_timer.Seconds();
      if (mode == Mode::kPull) {
        stats_.pull_seconds += wall;
      } else {
        stats_.push_seconds += wall;
      }
    }
    return total.active;
  }

  /// Collective, one barrier: applies fn to every master vertex and returns
  /// the all-reduced sum of its return values (e.g., rank delta in
  /// PageRank). The result type T needs `+=` and a zero default value; a
  /// small struct lets one reduction carry several sums. Rank 0 adds the
  /// phase's wall time, reduction included, to stats_.vertex_seconds.
  template <typename Fn>
  auto ProcessVertices(sim::NodeContext& ctx, const Fn& fn) {
    using T = std::invoke_result_t<const Fn&, VertexId>;
    Timer phase_timer;
    const VertexRange& r = dg_.range(ctx.rank);
    std::vector<T> partial(ctx.pool->num_threads(), T{});
    scheduler_.Run(*ctx.pool, r.begin, r.end,
                   [&](size_t worker, size_t lo, size_t hi) {
                     T acc{};
                     for (size_t v = lo; v < hi; ++v) {
                       acc += fn(static_cast<VertexId>(v));
                     }
                     partial[worker] += acc;
                   });
    T local{};
    for (const T& p : partial) local += p;
    T total{};
    ctx.world->Exchange(ctx.rank, local,
                        [&total](int, const T& t) { total += t; });
    if (ctx.rank == 0) stats_.vertex_seconds += phase_timer.Seconds();
    return total;
  }

  /// Collective: finalizes per-run stats. Call once after the loop; the
  /// returned reference is valid until the next BeginRun.
  const EngineStats& FinishRun(sim::NodeContext& ctx) {
    ctx.world->Barrier();
    if (ctx.rank == 0) {
      stats_.computations = stats_.updates = stats_.skipped = 0;
      stats_.messages = stats_.bytes = 0;
      for (int p = 0; p < dg_.num_nodes(); ++p) {
        const RankState& rs = ranks_[p];
        stats_.computations += rs.computations;
        stats_.updates += rs.updates;
        stats_.skipped += rs.skipped;
        stats_.messages += rs.messages;
        stats_.bytes += rs.bytes;
        stats_.node_compute_seconds[p] = rs.compute_seconds;
        stats_.node_computations[p] = rs.computations;
        std::copy(rs.chunks.begin(), rs.chunks.end(),
                  stats_.per_thread_chunks.begin() + p * rs.chunks.size());
      }
    }
    ctx.world->Barrier();
    return stats_;
  }

  const EngineStats& stats() const { return stats_; }

 private:
  /// Bookkeeping one rank owns: only that rank's thread writes it; rank 0
  /// reads it in FinishRun between two barriers.
  struct alignas(64) RankState {
    unsigned cur = 0;  ///< index into active_ of the current active set
    Mode last_mode = Mode::kPull;  ///< first push after a pull reactivates
    uint64_t active_edges = 0;     ///< global out-edges of the current set
    uint64_t computations = 0;
    uint64_t updates = 0;
    uint64_t skipped = 0;
    uint64_t messages = 0;
    uint64_t bytes = 0;
    double compute_seconds = 0;
    std::vector<uint64_t> chunks;  ///< mini-chunks run per worker thread
  };

  /// The fused end-of-superstep reduction record.
  struct StepTotals {
    double comm_seconds = 0;  ///< max-reduced (BSP h-relation cost)
    uint64_t computations = 0;
    uint64_t active = 0;
    uint64_t active_edges = 0;
  };

  Bitmap& Cur(int rank) { return active_[ranks_[rank].cur]; }
  Bitmap& Next(int rank) { return active_[ranks_[rank].cur ^ 1]; }

  /// Call after a barrier that ends all writes to next and reads of cur.
  /// Counts this rank's range of next, clears its range of the retiring
  /// cur, then reduces (one barrier) and swaps cur/next locally — every
  /// rank flips the same parity, so no shared pointer swap is needed.
  StepTotals Promote(sim::NodeContext& ctx, StepTotals mine) {
    RankState& rs = ranks_[ctx.rank];
    const VertexRange& r = dg_.range(ctx.rank);
    const Bitmap& next = Next(ctx.rank);
    const Graph& g = dg_.graph();
    next.ForEachSetBit(r.begin, r.end, [&](size_t v) {
      ++mine.active;
      mine.active_edges += g.out_degree(static_cast<VertexId>(v));
    });
    Cur(ctx.rank).Clear(r.begin, r.end);
    StepTotals total;
    ctx.world->Exchange(ctx.rank, mine, [&total](int, const StepTotals& s) {
      total.comm_seconds = std::max(total.comm_seconds, s.comm_seconds);
      total.computations += s.computations;
      total.active += s.active;
      total.active_edges += s.active_edges;
    });
    rs.cur ^= 1;
    rs.active_edges = total.active_edges;
    return total;
  }

  /// Dirty bits are read only by kDirty reactivation; every other mode
  /// skips their atomic updates.
  bool TracksDirty() const {
    return options_.reactivation == TransitionReactivation::kDirty;
  }

  /// Call only when TracksDirty().
  void MarkDirty(VertexId v) {
    if (!dirty_policy_ || dirty_policy_(v)) dirty_.SetBit(v);
  }

  /// Gemini's rule on the active out-edge total the last Promote reduced.
  Mode DecideMode(const RankState& rs) const {
    switch (options_.mode_policy) {
      case ModePolicy::kAlwaysPull:
        return Mode::kPull;
      case ModePolicy::kAlwaysPush:
        return Mode::kPush;
      case ModePolicy::kAdaptive:
        break;
    }
    return ChooseDense(rs.active_edges, dg_.graph().num_edges(),
                       options_.dense_fraction)
               ? Mode::kPull
               : Mode::kPush;
  }

  template <typename Gather, typename Apply, typename Filter>
  void RunPull(sim::NodeContext& ctx, V identity, const Gather& gather,
               const Apply& apply, const Filter& pull_filter, uint64_t* comp,
               uint64_t* upd, uint64_t* skip, uint64_t* msgs,
               uint64_t* bytes) {
    const Csr& in = dg_.graph().in();
    const VertexRange& r = dg_.range(ctx.rank);
    const Bitmap& cur = Cur(ctx.rank);
    Bitmap& next = Next(ctx.rank);
    size_t nthreads = ctx.pool->num_threads();
    struct ThreadCounters {
      uint64_t comp = 0, upd = 0, skip = 0;
    };
    std::vector<ThreadCounters> tc(nthreads);
    const bool track_dirty = TracksDirty();

    // kGatherActive compacts each block of in-edges before gathering it:
    // every edge index is stored and the cursor advances by the source's
    // active bit. With 30-90% of sources active a branch on that bit
    // mispredicts often enough to cost more than the gather itself.
    constexpr EdgeId kBlock = 64;
    auto chunks = scheduler_.Run(
        *ctx.pool, r.begin, r.end, [&](size_t worker, size_t lo, size_t hi) {
          uint64_t comp = 0, upd = 0, skip = 0;
          EdgeId block[kBlock] = {};
          for (size_t dv = lo; dv < hi; ++dv) {
            VertexId dst = static_cast<VertexId>(dv);
            PullAction action = pull_filter(dst);
            if (action == PullAction::kSkip) {
              skip += in.degree(dst);
              continue;
            }
            V acc = identity;
            uint64_t gathered = 0;
            if (action == PullAction::kGatherAll) {
              for (EdgeId e = in.begin(dst); e < in.end(dst); ++e) {
                acc = gather(acc, in.neighbor(e), in.weight(e));
              }
              gathered = in.degree(dst);
            } else {
              for (EdgeId b = in.begin(dst); b < in.end(dst); b += kBlock) {
                EdgeId end = std::min(b + kBlock, in.end(dst));
                size_t k = 0;
                for (EdgeId e = b; e < end; ++e) {
                  block[k] = e;
                  k += cur.TestBit(in.neighbor(e));
                }
                for (size_t i = 0; i < k; ++i) {
                  acc = gather(acc, in.neighbor(block[i]), in.weight(block[i]));
                }
                gathered += k;
              }
            }
            comp += gathered;
            if (gathered > 0 && apply(dst, acc)) {
              next.SetBit(dst);
              if (track_dirty) MarkDirty(dst);
              ++upd;
            }
          }
          ThreadCounters& c = tc[worker];
          c.comp += comp;
          c.upd += upd;
          c.skip += skip;
        });
    std::vector<uint64_t>& rank_chunks = ranks_[ctx.rank].chunks;
    for (size_t w = 0; w < nthreads; ++w) {
      *comp += tc[w].comp;
      *upd += tc[w].upd;
      *skip += tc[w].skip;
      rank_chunks[w] += chunks[w];
    }
    // Mirror refresh traffic: every master whose value changed last step
    // (i.e., is active now) must ship its value to each node holding a
    // mirror, so that remote pull-mode gathers see it.
    uint64_t refresh_values = 0;
    cur.ForEachSetBit(r.begin, r.end, [&](size_t v) {
      refresh_values += dg_.MirrorNodeCount(static_cast<VertexId>(v));
    });
    *bytes += refresh_values * (sizeof(VertexId) + sizeof(V));
    if (refresh_values > 0) {
      *msgs += static_cast<uint64_t>(dg_.num_nodes() - 1);  // batched
    }
  }

  template <typename Scatter>
  void RunPush(sim::NodeContext& ctx, const Scatter& scatter, uint64_t* comp,
               uint64_t* upd, uint64_t* msgs, uint64_t* bytes) {
    const Csr& out = dg_.graph().out();
    const VertexRange& r = dg_.range(ctx.rank);
    const Bitmap& cur = Cur(ctx.rank);
    Bitmap& next = Next(ctx.rank);
    size_t nthreads = ctx.pool->num_threads();
    struct ThreadCounters {
      uint64_t comp = 0, upd = 0, vals = 0;
    };
    std::vector<ThreadCounters> tc(nthreads);
    const bool track_dirty = TracksDirty();

    auto chunks = scheduler_.Run(
        *ctx.pool, r.begin, r.end, [&](size_t worker, size_t lo, size_t hi) {
          ThreadCounters& c = tc[worker];
          for (size_t sv = lo; sv < hi; ++sv) {
            VertexId src = static_cast<VertexId>(sv);
            if (!cur.TestBit(src)) continue;
            // Pushing delivers src's current value to every out-neighbor,
            // so src is no longer "dirty" (unseen) afterwards.
            if (track_dirty) dirty_.ResetBit(src);
            if (out.degree(src) == 0) continue;
            c.vals += dg_.MirrorNodeCount(src);
            for (EdgeId e = out.begin(src); e < out.end(src); ++e) {
              VertexId dst = out.neighbor(e);
              ++c.comp;
              if (scatter(src, dst, out.weight(e))) {
                next.SetBit(dst);
                if (track_dirty) MarkDirty(dst);
                ++c.upd;
              }
            }
          }
        });
    std::vector<uint64_t>& rank_chunks = ranks_[ctx.rank].chunks;
    uint64_t vals = 0;
    for (size_t w = 0; w < nthreads; ++w) {
      *comp += tc[w].comp;
      *upd += tc[w].upd;
      vals += tc[w].vals;
      rank_chunks[w] += chunks[w];
    }
    *bytes += vals * (sizeof(VertexId) + sizeof(V));
    if (vals > 0) {
      // Gemini batches sparse updates into one MPI message per node pair
      // per superstep (unlike PowerGraph's fine-grained signals, which the
      // GAS baseline models as per-mirror messages).
      *msgs += static_cast<uint64_t>(dg_.num_nodes() - 1);
    }
  }

  const DistGraph& dg_;
  EngineOptions options_;
  WorkStealingScheduler scheduler_;

  Bitmap active_[2];  ///< current / next active sets, indexed by parity
  Bitmap dirty_;      ///< value changed since last pushed (unseen by some)
  std::function<bool(VertexId)> dirty_policy_;
  std::vector<RankState> ranks_;
  EngineStats stats_;
};

}  // namespace slfe

#endif  // SLFE_ENGINE_DIST_ENGINE_H_
