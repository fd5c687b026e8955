// Closed-form sojourn/wait estimates over the queueing substrate: the
// adapter surface core::delay_provider's analytical tier consumes (ROADMAP
// "tiered estimation"). Two tiers of fidelity:
//
//  * M/M/1 formulas — the textbook fast path for a single FIFO station fed
//    at rate lambda and drained at rate mu;
//  * stationary per-class means read off a solved ldqbd_scheduler_model —
//    the Appendix B machinery, valid for MAP arrivals and WFQ/SP schedulers.
//
// All rates are packets per second; all returned times are seconds. A
// station at or above capacity has infinite stationary wait — callers decide
// what "infinite" means for them (the tiered policy promotes such devices to
// the PTM long before this point).
#pragma once

#include <vector>

#include "queueing/ldqbd.hpp"

namespace dqn::queueing {

// Stationary M/M/1 mean waiting time (arrival -> start of service):
// W_q = rho / (mu - lambda). Infinity when lambda >= mu.
[[nodiscard]] double mm1_mean_wait(double lambda, double mu);

// Stationary M/M/1 mean sojourn (arrival -> departure): 1 / (mu - lambda).
// Infinity when lambda >= mu.
[[nodiscard]] double mm1_mean_sojourn(double lambda, double mu);

// Per-class stationary mean sojourns (time in system) of a solved LDQBD
// scheduler model, via Little's law. model.solve() must have been called.
[[nodiscard]] std::vector<double> stationary_mean_sojourns(
    const ldqbd_scheduler_model& model);

// Per-class stationary mean *waits* (sojourn minus one mean service time
// 1/service_rate, floored at zero) — the quantity the PTM regresses, so the
// analytical and learned backends are directly comparable.
[[nodiscard]] std::vector<double> stationary_mean_waits(
    const ldqbd_scheduler_model& model, double service_rate);

}  // namespace dqn::queueing
