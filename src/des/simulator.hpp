// Discrete-event simulation kernel: a time-ordered event heap with
// deterministic FIFO tie-breaking. This is the substrate equivalent of the
// paper's ns.py (§4.2) — the ground-truth oracle for training data and the
// sequential-DES baseline of Table 7.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "obs/handles.hpp"

namespace dqn::des {

class simulator {
 public:
  [[nodiscard]] double now() const noexcept { return now_; }

  // Schedule `action` at absolute time `when` (>= now).
  void schedule_at(double when, std::function<void()> action);

  // Schedule `action` after `delay` seconds.
  void schedule_in(double delay, std::function<void()> action) {
    schedule_at(now_ + delay, std::move(action));
  }

  // Run until the event queue drains or simulated time exceeds `until`.
  void run(double until);

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

  // The deepest the event heap has ever been — the DES's working-set
  // indicator exported through obs ("des.max_heap_depth").
  [[nodiscard]] std::size_t max_queue_depth() const noexcept {
    return max_depth_;
  }

  // Live per-event counting through a pre-resolved obs handle: the event
  // loop increments it lock-free as it processes; a default (null) handle
  // costs one branch per event. des::network installs "des.events" here.
  void set_event_counter(obs::counter_handle handle) noexcept {
    event_counter_ = handle;
  }

 private:
  struct event {
    double time;
    std::uint64_t seq;  // FIFO among equal times, and determinism
    std::function<void()> action;
  };
  struct later {
    bool operator()(const event& a, const event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t max_depth_ = 0;
  obs::counter_handle event_counter_;
  std::priority_queue<event, std::vector<event>, later> queue_;
};

}  // namespace dqn::des
