#include "slfe/sim/comm.h"

namespace slfe::sim {

World::World(int num_nodes)
    : num_nodes_(num_nodes),
      mailboxes_(num_nodes),
      per_node_(num_nodes),
      slots_(num_nodes) {
  SLFE_CHECK_GE(num_nodes, 1);
}

void World::Send(int src, int dst, const void* data, size_t size) {
  SLFE_CHECK_LT(dst, num_nodes_);
  Message m;
  m.src_node = src;
  m.payload.resize(size);
  if (size > 0) std::memcpy(m.payload.data(), data, size);
  {
    std::lock_guard<std::mutex> lock(mailboxes_[dst].mu);
    mailboxes_[dst].queue.push_back(std::move(m));
  }
  if (src != dst) {
    // Loopback traffic is free: a real cluster node does not cross the
    // network to talk to itself.
    per_node_[src].messages.Add();
    per_node_[src].bytes.Add(size);
    total_messages_.Add();
    total_bytes_.Add(size);
  }
}

std::vector<Message> World::Recv(int rank) {
  std::lock_guard<std::mutex> lock(mailboxes_[rank].mu);
  std::vector<Message> out;
  out.swap(mailboxes_[rank].queue);
  return out;
}

void World::Barrier() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  bool my_sense = barrier_sense_;
  if (++barrier_waiting_ == num_nodes_) {
    barrier_waiting_ = 0;
    barrier_sense_ = !barrier_sense_;
    barriers_completed_.fetch_add(1, std::memory_order_relaxed);
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [&] { return barrier_sense_ != my_sense; });
  }
}

double World::AllReduce(int rank, double value,
                        const std::function<double(double, double)>& op) {
  double result = 0;
  Exchange(rank, value, [&](int r, double v) {
    result = r == 0 ? v : op(result, v);
  });
  return result;
}

uint64_t World::AllReduceSum(int rank, uint64_t value) {
  uint64_t result = 0;
  Exchange(rank, value, [&result](int, uint64_t v) { result += v; });
  return result;
}

void World::ResetTraffic() {
  total_messages_.Reset();
  total_bytes_.Reset();
  for (auto& t : per_node_) {
    t.messages.Reset();
    t.bytes.Reset();
  }
}

}  // namespace slfe::sim
