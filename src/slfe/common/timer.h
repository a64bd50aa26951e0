#ifndef SLFE_COMMON_TIMER_H_
#define SLFE_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace slfe {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }
  double Micros() const { return Seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace slfe

#endif  // SLFE_COMMON_TIMER_H_
