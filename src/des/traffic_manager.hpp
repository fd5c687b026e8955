// Per-egress-port traffic management: the multi-queue packet schedulers the
// paper evaluates (FIFO, SP, WRR, DRR, WFQ; §2.3, §6.1) plus drop-tail
// buffer management. The scheduler logic is a standalone state machine so it
// can be unit- and property-tested without a simulator, and driven by both
// the DES switch and the queueing-theory comparisons.
//
// Class selection: a packet's scheduling class is its `priority` field
// (0 = highest for SP). Weighted disciplines take one weight per class from
// the configuration — the paper's flow-to-weight assignment (Eq. 9).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "traffic/packet.hpp"

namespace dqn::des {

enum class scheduler_kind : std::uint8_t { fifo, sp, wrr, drr, wfq };

[[nodiscard]] const char* to_string(scheduler_kind kind) noexcept;

struct tm_config {
  scheduler_kind kind = scheduler_kind::fifo;
  std::size_t classes = 1;            // number of scheduling classes
  std::vector<double> class_weights;  // per class; required for wrr/drr/wfq
  std::size_t buffer_packets = 4096;  // drop-tail limit across all queues
  std::uint64_t buffer_bytes = 0;     // additional byte limit; 0 = unlimited
  std::uint32_t drr_quantum_bytes = 1500;  // quantum per unit weight
};

class traffic_manager {
 public:
  explicit traffic_manager(tm_config config);

  // Returns false if the packet was dropped (buffer full or bad class).
  bool enqueue(const traffic::packet& pkt);

  // Pop the next packet according to the discipline; nullopt if empty.
  [[nodiscard]] std::optional<traffic::packet> dequeue();

  [[nodiscard]] std::size_t backlog_packets() const noexcept { return backlog_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] bool empty() const noexcept { return backlog_ == 0; }
  [[nodiscard]] const tm_config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t queue_length(std::size_t klass) const;

 private:
  [[nodiscard]] std::size_t class_of(const traffic::packet& pkt) const noexcept;
  [[nodiscard]] std::optional<traffic::packet> dequeue_sp();
  [[nodiscard]] std::optional<traffic::packet> dequeue_wrr();
  [[nodiscard]] std::optional<traffic::packet> dequeue_drr();
  [[nodiscard]] std::optional<traffic::packet> dequeue_wfq();

  struct wfq_entry {
    traffic::packet pkt;
    double finish_tag = 0;
  };

  tm_config config_;
  std::vector<std::deque<traffic::packet>> queues_;  // fifo/sp/wrr/drr
  std::vector<std::deque<wfq_entry>> wfq_queues_;
  std::vector<double> wfq_last_finish_;  // per class
  double wfq_virtual_time_ = 0;          // SCFQ virtual clock
  std::vector<double> drr_deficit_;
  bool drr_granted_ = false;  // quantum granted to the cursor queue this visit
  std::size_t rr_cursor_ = 0;        // round-robin position (wrr/drr)
  std::uint32_t wrr_served_in_turn_ = 0;
  std::size_t backlog_ = 0;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace dqn::des
