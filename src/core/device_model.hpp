// The DeepQueueNet device model (Figure 4): PFM routes each ingress packet
// to its egress queue exactly; the PTM adds a predicted sojourn to every
// packet; the link model (Eq. 5) adds serialization + propagation. These are
// the "operators" the network model composes (§3.2.3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/delay_provider.hpp"
#include "core/features.hpp"
#include "core/pfm.hpp"
#include "core/ptm.hpp"
#include "traffic/packet.hpp"

namespace dqn::obs {
class journey_tracer;
class sink;
}  // namespace dqn::obs

namespace dqn::core {

// One packet's predicted passage through a device (the DQN analogue of a
// des::hop_record; gives the packet-level visibility of §1).
struct predicted_hop {
  std::uint64_t pid = 0;
  std::size_t out_port = 0;
  double arrival = 0;    // at the egress queue
  double departure = 0;  // arrival + predicted sojourn
};

// Optional per-packet journey capture for process(): when `tracer` is
// non-null, every sampled packet's hop through this device is recorded
// (upserted, so IRSA re-runs overwrite with the converged value) with its
// PFM queue choice, pre-SEC PTM sojourn, and final corrected delay.
struct journey_capture {
  obs::journey_tracer* tracer = nullptr;
  std::int64_t device = -1;  // topology node id recorded with each hop
};

class device_model {
 public:
  // The PTM is shared: one trained K-port model serves every device whose
  // degree is <= K (§6.1).
  device_model(std::shared_ptr<const ptm_model> ptm, scheduler_context ctx);

  // ingress[i]: time-ordered stream at ingress port i. Returns egress
  // streams ordered by predicted departure time. `hops`, if non-null,
  // receives the per-packet predictions; `dropped`, if non-null, receives
  // the packets the drop model discarded (scheduler_context::buffer_bytes).
  // `port_bandwidths`, when it has one entry per port, overrides the
  // context's uniform line rate for each egress port (heterogeneous links);
  // it feeds the unfinished-work feature, the drop replay, and the
  // feasibility projection. `journeys` opts sampled packets into per-hop
  // journey tracing (see journey_capture); `sink` records PFM/drop counters
  // through lock-free handles — both default to off and cost one branch.
  // `workspace`, if non-null, is the caller-owned inference arena handed to
  // every PTM predict call (one per worker thread; the engine reuses it
  // across devices and IRSA iterations so steady state allocates nothing).
  // Null gives each PTM predict call a fresh local workspace.
  //
  // `delay` selects the sojourn backend (delay_provider.hpp): the engine
  // passes its configured provider; null falls back to this model's own PTM
  // backend (the pre-redesign behaviour). `device_id`/`iteration` identify
  // the call for the provider's per-device tiering state (-1 = host NIC).
  [[nodiscard]] std::vector<traffic::packet_stream> process(
      const std::vector<traffic::packet_stream>& ingress, const forward_fn& forward,
      bool apply_sec = true, std::vector<predicted_hop>* hops = nullptr,
      std::vector<traffic::packet>* dropped = nullptr,
      std::span<const double> port_bandwidths = {},
      const journey_capture* journeys = nullptr,
      obs::sink* sink = nullptr,
      nn::workspace* workspace = nullptr,
      delay_provider* delay = nullptr,
      std::int64_t device_id = -1,
      std::size_t iteration = 0) const;

  [[nodiscard]] const scheduler_context& context() const noexcept { return ctx_; }

 private:
  // Fallback provider when process() receives none: the default policy (the
  // PTM backend) over the shared PTM. Providers carry per-call counters, so
  // the member is mutable; it is never prepared, so every call takes the
  // stateless tier decision and is thread-safe (the counters and handles
  // record through relaxed atomics).
  mutable delay_provider fallback_;
  scheduler_context ctx_;
};

// Link device (Eq. 5): tau_out = tau_in + len/C + l/c.
[[nodiscard]] traffic::packet_stream apply_link(const traffic::packet_stream& in,
                                                double bandwidth_bps,
                                                double propagation_delay);

}  // namespace dqn::core
