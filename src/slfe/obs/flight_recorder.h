#pragma once

// Bounded flight recorder: a fixed-capacity ring of the most recently
// completed job traces, plus a second ring that pins slow jobs so a burst
// of fast jobs cannot evict the interesting ones. Read over the daemon's
// line protocol (`trace recent` / `trace slow` / `trace <job-id>`).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "slfe/obs/trace.h"

namespace slfe {
namespace obs {

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 64, size_t slow_capacity = 32);

  void Record(std::shared_ptr<JobTrace> trace, bool slow);

  // Oldest-to-newest snapshots of the rings.
  std::vector<std::shared_ptr<JobTrace>> Recent() const;
  std::vector<std::shared_ptr<JobTrace>> Slow() const;
  // Searches both rings by job id; nullptr if evicted or never recorded.
  std::shared_ptr<JobTrace> Find(uint64_t job_id) const;

  uint64_t recorded() const;
  uint64_t slow_recorded() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Ring {
    std::vector<std::shared_ptr<JobTrace>> slots;
    size_t next = 0;
    uint64_t total = 0;

    void Push(std::shared_ptr<JobTrace> trace);
    std::vector<std::shared_ptr<JobTrace>> InOrder() const;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  Ring recent_;
  Ring slow_;
};

}  // namespace obs
}  // namespace slfe
