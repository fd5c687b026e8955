// Wall-clock stopwatch for the timing benchmarks (Table 7, Figure 15).
#pragma once

#include <chrono>
#include <string>

namespace dqn::util {

class stopwatch {
 public:
  stopwatch() noexcept : start_{clock::now()} {}

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// Render seconds as the paper's "XhYmZs" format used in Table 7.
[[nodiscard]] std::string format_duration(double seconds);

// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID). Used to
// attribute work to engine partitions independently of how the OS
// interleaves threads on shared cores.
[[nodiscard]] double thread_cpu_seconds();

}  // namespace dqn::util
