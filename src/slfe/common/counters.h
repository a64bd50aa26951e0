#ifndef SLFE_COMMON_COUNTERS_H_
#define SLFE_COMMON_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace slfe {

/// A relaxed-order atomic counter. Engines increment these on hot paths, so
/// the memory order is deliberately the weakest; totals are read only after
/// barriers.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }
  uint64_t Get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

}  // namespace slfe

#endif  // SLFE_COMMON_COUNTERS_H_
