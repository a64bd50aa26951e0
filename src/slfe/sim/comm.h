#ifndef SLFE_SIM_COMM_H_
#define SLFE_SIM_COMM_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <type_traits>
#include <vector>

#include "slfe/common/counters.h"
#include "slfe/common/logging.h"

namespace slfe::sim {

/// Models the network of the paper's 8-node InfiniBand cluster. Virtual
/// communication time for a superstep is
///   latency_per_message * messages + bytes / bandwidth
/// evaluated per node and max-reduced, mirroring BSP h-relation cost.
/// Defaults approximate a 100 Gb/s fabric with ~2 us one-way latency.
struct CostModel {
  double latency_per_message = 2e-6;
  double bytes_per_second = 12.5e9;  // 100 Gb/s

  double Cost(uint64_t messages, uint64_t bytes) const {
    return latency_per_message * static_cast<double>(messages) +
           static_cast<double>(bytes) / bytes_per_second;
  }
};

/// One inter-node message: an opaque byte payload.
struct Message {
  int src_node = 0;
  std::vector<uint8_t> payload;
};

/// In-memory stand-in for MPI. N ranks (threads) share a World; each rank
/// interacts through its own Comm handle (rank id + mailboxes + barrier +
/// reduction scratch). All collective calls must be invoked by every rank.
class World {
 public:
  explicit World(int num_nodes);

  int num_nodes() const { return num_nodes_; }

  /// Delivers a message into `dst`'s mailbox. Thread-safe.
  void Send(int src, int dst, const void* data, size_t size);

  /// Drains and returns all messages queued for `rank`. Call after a
  /// barrier so that all sends for the superstep have landed.
  std::vector<Message> Recv(int rank);

  /// Sense-reversing barrier across all ranks.
  void Barrier();

  /// Barrier episodes completed so far (every rank arrived). Between two of
  /// a rank's collective calls the value is stable, so a rank can diff it
  /// around a call to count the barriers that call ran.
  uint64_t barriers_completed() const {
    return barriers_completed_.load(std::memory_order_relaxed);
  }

  /// Collective, one barrier: every rank contributes `mine`; afterwards each
  /// rank calls `visit(r, contribution of rank r)` for r = 0..n-1 in rank
  /// order, so folds are deterministic regardless of arrival order.
  ///
  /// Each rank writes only its own slot, alternating between two halves by
  /// a per-rank epoch. Reduction k+2 reuses reduction k's half, and rank r
  /// can only start reduction k+2 after passing reduction k+1's barrier,
  /// which every rank reaches only after it finished reading reduction k.
  template <typename T, typename Visit>
  void Exchange(int rank, const T& mine, Visit&& visit) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kSlotBytes,
                  "Exchange payloads are small trivially copyable records");
    ReduceSlot& own = slots_[rank];
    const unsigned half = own.epoch++ & 1u;
    std::memcpy(own.half[half], &mine, sizeof(T));
    Barrier();
    for (int r = 0; r < num_nodes_; ++r) {
      T theirs;
      std::memcpy(&theirs, slots_[r].half[half], sizeof(T));
      visit(r, theirs);
    }
  }

  /// All-reduce of one double using `op` (associative+commutative), folded
  /// in rank order. Every rank passes its local value; all receive the
  /// reduction.
  double AllReduce(int rank, double value,
                   const std::function<double(double, double)>& op);

  /// All-reduce specialization: sum of uint64 (active-vertex counts etc.).
  uint64_t AllReduceSum(int rank, uint64_t value);

  /// Traffic accounting for the current epoch (reset via ResetTraffic).
  uint64_t TotalMessages() const { return total_messages_.Get(); }
  uint64_t TotalBytes() const { return total_bytes_.Get(); }
  uint64_t NodeMessages(int rank) const {
    return per_node_[rank].messages.Get();
  }
  uint64_t NodeBytes(int rank) const { return per_node_[rank].bytes.Get(); }
  void ResetTraffic();

 private:
  struct Mailbox {
    std::mutex mu;
    std::vector<Message> queue;
  };
  struct NodeTraffic {
    Counter messages;
    Counter bytes;
  };

  int num_nodes_;
  std::vector<Mailbox> mailboxes_;
  std::vector<NodeTraffic> per_node_;  // outbound traffic per rank
  Counter total_messages_;
  Counter total_bytes_;

  // Barrier state (sense-reversing).
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  bool barrier_sense_ = false;
  std::atomic<uint64_t> barriers_completed_{0};

  // Exchange scratch: one slot per rank, written only by that rank.
  static constexpr size_t kSlotBytes = 64;
  struct ReduceSlot {
    alignas(64) unsigned char half[2][kSlotBytes];
    uint64_t epoch = 0;  ///< reductions this rank has entered
  };
  std::vector<ReduceSlot> slots_;
};

}  // namespace slfe::sim

#endif  // SLFE_SIM_COMM_H_
