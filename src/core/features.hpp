// Pre-PTM data augmentation & feature engineering (§4.1).
//
// The PTM sees, for every packet in a sliding window over an egress queue's
// arrival series, the paper's augmented packet vector: length, inter-arrival
// time, scheduler one-hot, priority, weight, and a workload EMA (smoothing
// factor 0.95). We add a byte-rate EMA alongside the paper's byte EMA — the
// window alone carries rate information, the EMAs carry longer memory.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "des/traffic_manager.hpp"
#include "traffic/packet.hpp"

namespace dqn::core {

inline constexpr std::size_t feature_count = 17;
inline constexpr double workload_smoothing = 0.95;  // §4.1

// Feature indices within a packet's feature vector.
enum feature_index : std::size_t {
  f_len = 0,
  f_iat = 1,
  f_workload_bytes = 2,
  f_workload_rate = 3,
  f_sched_fifo = 4,
  f_sched_sp = 5,
  f_sched_wrr = 6,
  f_sched_drr = 7,
  f_sched_wfq = 8,
  f_priority = 9,
  f_weight = 10,
  f_protocol = 11,
  // Unfinished work (seconds) in the egress queue at this arrival, from the
  // Lindley recursion U_i = max(0, U_{i-1} + s_{i-1} - iat_i) with
  // s = len*8/C. For any work-conserving discipline this equals the total
  // backlog the packet finds — the queueing-theoretic prior the paper's
  // methodology asks us to express explicitly (§1: "express our prior
  // knowledge of the network as much as possible"). The DNN learns the
  // scheduler-specific deviation around it.
  f_unfinished_work = 12,
  // Class-resolved unfinished work (same Lindley machinery restricted to
  // sub-streams): the work contributed by strictly higher-priority classes,
  // and by the packet's own-or-higher classes. Under SP the former is the
  // dominant term of the packet's wait; under weighted schedulers the DNN
  // learns the interpolation. Both are 0/total under FIFO.
  f_higher_class_work = 13,
  f_own_class_work = 14,
  // Own-class-only unfinished work, and the GPS wait estimate derived from
  // it: under generalized processor sharing a backlogged class k drains at
  // share w_k / sum(w), so its arriving packet expects roughly
  // own_only_work / share of waiting. Exact under permanent backlog; the
  // DNN learns the deviation (idle classes donate their share).
  f_own_only_work = 15,
  f_gps_wait = 16,
};

// Heavy-tailed features (lengths, inter-arrival times, workload EMAs) span
// several decades; the PTM maps them through x -> log1p(x / scale) before
// min-max normalisation so the network sees the full dynamic range. A scale
// of 0 disables the transform for that feature (one-hots, priorities, ...).
inline constexpr double feature_log_scale[feature_count] = {
    1.0,   // len (bytes)
    1e-9,  // iat (seconds -> ~ns resolution)
    1.0,   // workload EMA (bytes)
    1.0,   // workload rate EMA (bytes/s)
    0, 0, 0, 0, 0,  // scheduler one-hot
    0,     // priority
    0,     // weight
    0,     // protocol
    1e-9,  // unfinished work (seconds)
    1e-9,  // higher-priority-class unfinished work
    1e-9,  // own-or-higher-class unfinished work
    1e-9,  // own-class-only unfinished work
    1e-9,  // GPS wait estimate
};

// The sojourn-time regression target gets the same treatment:
// y -> log1p(y / sojourn_log_scale).
inline constexpr double sojourn_log_scale = 1e-9;

// Scheduler context a device contributes to its packets' features: the
// discipline one-hot and the flow-class weight table (Eqs. 8-9).
struct scheduler_context {
  des::scheduler_kind kind = des::scheduler_kind::fifo;
  std::vector<double> class_weights;  // empty for fifo/sp
  double bandwidth_bps = 10e9;        // egress line rate, for unfinished work
  // Drop-tail buffer per egress queue in bytes; 0 disables drop modelling.
  // The device model drops a packet when the queue's exact byte backlog
  // (from the Lindley recursion — a deterministic function of the ingress
  // stream, like the PFM) would exceed this (§2.3's buffer management;
  // dropped packets have latency +inf per §1).
  std::uint64_t buffer_bytes = 0;

  [[nodiscard]] double weight_of(const traffic::packet& pkt) const;
};

// Compute the (n, feature_count) feature rows for the arrival series of one
// egress queue. `arrivals` must be time-ordered; the EMAs run across it.
[[nodiscard]] std::vector<double> compute_features(
    const traffic::packet_stream& arrivals, const scheduler_context& ctx);

// Assemble sliding windows of `time_steps` packets ending at every
// `stride`-th row (0, stride, 2*stride, ... < n): flattened (count,
// time_steps, feature_count). Windows whose history would precede the series
// start are front-padded with the first row. A strided window is byte-equal
// to the stride-1 window ending at the same row.
[[nodiscard]] std::vector<double> make_windows(std::span<const double> feature_rows,
                                               std::size_t time_steps,
                                               std::size_t stride = 1);

}  // namespace dqn::core
