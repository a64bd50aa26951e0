#ifndef SLFE_COMMON_WORK_STEALING_H_
#define SLFE_COMMON_WORK_STEALING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "slfe/common/thread_pool.h"

namespace slfe {

/// Fine-grained work-stealing scheduler over a vertex range, following the
/// paper's scheme (Section 3.6): the range is split into mini-chunks of 256
/// vertices; each thread first drains its originally assigned slice, then
/// steals remaining mini-chunks from busy threads. Shared offsets are
/// advanced with atomic fetch-add (the paper's __sync_fetch_and_* idiom).
class WorkStealingScheduler {
 public:
  static constexpr size_t kMiniChunk = 256;

  /// `enable_stealing=false` degrades to a static partition — used by the
  /// Fig. 10a ablation ("w/o Stealing" bar).
  explicit WorkStealingScheduler(bool enable_stealing = true)
      : enable_stealing_(enable_stealing) {}

  /// Band-partitioned variant for work that lives in per-owner buffers
  /// (the partition-aware guidance sweep's per-partition frontiers): band b
  /// holds `sizes[b]` items; worker w first drains band w (its own
  /// partition, the NUMA-local work), then — stealing enabled — drains the
  /// remaining bands' leftover mini-chunks. `fn(worker, band, lo, hi)`
  /// processes items [lo, hi) of band `band`; every item is processed
  /// exactly once. Returns per-worker processed-chunk counts.
  std::vector<uint64_t> RunBands(
      ThreadPool& pool, const std::vector<size_t>& sizes,
      const std::function<void(size_t, size_t, size_t, size_t)>& fn) const {
    size_t nthreads = pool.num_threads();
    size_t bands = sizes.size();
    std::vector<uint64_t> processed(nthreads, 0);
    if (bands == 0) return processed;

    // One shared cursor per band, in mini-chunk units; thieves and the
    // band's owner advance it with fetch-add so no chunk runs twice.
    std::vector<std::atomic<size_t>> next(bands);
    std::vector<size_t> chunks(bands);
    for (size_t b = 0; b < bands; ++b) {
      next[b].store(0, std::memory_order_relaxed);
      chunks[b] = (sizes[b] + kMiniChunk - 1) / kMiniChunk;
    }

    pool.ParallelRun([&](size_t w) {
      uint64_t done = 0;
      auto drain = [&](size_t band) {
        while (true) {
          size_t c = next[band].fetch_add(1, std::memory_order_relaxed);
          if (c >= chunks[band]) break;
          size_t lo = c * kMiniChunk;
          size_t hi =
              lo + kMiniChunk < sizes[band] ? lo + kMiniChunk : sizes[band];
          fn(w, band, lo, hi);
          ++done;
        }
      };
      if (enable_stealing_) {
        // Own band first (w mod bands keeps surplus workers useful), then
        // sweep the others for leftovers.
        for (size_t i = 0; i < bands; ++i) drain((w + i) % bands);
      } else {
        // Static partition: strided ownership so every band is covered
        // even when there are more bands than workers.
        for (size_t b = w; b < bands; b += nthreads) drain(b);
      }
      processed[w] = done;
    });
    return processed;
  }

  /// Processes every mini-chunk [lo, hi) of [begin, end) exactly once using
  /// the pool's workers. `fn(worker, lo, hi)` does the chunk's work.
  /// Returns per-worker counts of processed chunks (imbalance diagnostics).
  std::vector<uint64_t> Run(
      ThreadPool& pool, size_t begin, size_t end,
      const std::function<void(size_t, size_t, size_t)>& fn) const {
    size_t nthreads = pool.num_threads();
    size_t n = end > begin ? end - begin : 0;
    size_t num_chunks = (n + kMiniChunk - 1) / kMiniChunk;
    std::vector<uint64_t> processed(nthreads, 0);
    if (num_chunks == 0) return processed;

    // Each worker owns a contiguous band of mini-chunks; `next[w]` is the
    // shared cursor into that band, advanced atomically so thieves and the
    // owner never double-process a chunk.
    size_t per = (num_chunks + nthreads - 1) / nthreads;
    std::vector<std::atomic<size_t>> next(nthreads);
    std::vector<size_t> band_end(nthreads);
    for (size_t w = 0; w < nthreads; ++w) {
      size_t lo = w * per;
      next[w].store(lo < num_chunks ? lo : num_chunks,
                    std::memory_order_relaxed);
      band_end[w] = (w + 1) * per < num_chunks ? (w + 1) * per : num_chunks;
    }

    pool.ParallelRun([&](size_t w) {
      uint64_t done = 0;
      auto drain = [&](size_t victim) {
        while (true) {
          size_t c = next[victim].fetch_add(1, std::memory_order_relaxed);
          if (c >= band_end[victim]) break;
          size_t lo = begin + c * kMiniChunk;
          size_t hi = lo + kMiniChunk < end ? lo + kMiniChunk : end;
          fn(w, lo, hi);
          ++done;
        }
      };
      drain(w);
      if (enable_stealing_) {
        for (size_t i = 1; i < nthreads; ++i) drain((w + i) % nthreads);
      }
      processed[w] = done;
    });
    return processed;
  }

 private:
  bool enable_stealing_;
};

}  // namespace slfe

#endif  // SLFE_COMMON_WORK_STEALING_H_
