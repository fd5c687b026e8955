// Evaluation metrics (§6, Appendix C). The paper reports, per scenario:
//   avgRTT / p99RTT / avgJitter / p99Jitter, each as
//   * a normalized Wasserstein distance w1 between the predicted and
//     ground-truth distributions, computed path-wise, and
//   * a Pearson correlation rho with a 95% CI.
//
// Sampling unit: (flow, time-bucket). Each flow's deliveries are grouped
// into send-time buckets; per bucket we compute the mean / p99 RTT and
// jitter. Bucketing by *send* time pairs predicted and ground-truth samples
// exactly, and yields enough samples for meaningful CIs (Appendix C).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "des/records.hpp"
#include "stats/pearson.hpp"

namespace dqn::core {

// Latency series of every (flow, send-time-bucket) pair, ordered by send
// time within the bucket. The shared sampling unit of all §6 metrics.
using bucket_key = std::pair<std::uint32_t, std::int64_t>;
[[nodiscard]] std::map<bucket_key, std::vector<double>> bucketed_latencies(
    const des::run_result& result, double bucket_seconds);

// Per-bucket KPIs appended to a metric_samples accumulator.
struct metric_samples;
void append_bucket_metrics(const std::vector<double>& latencies, metric_samples& out);

struct metric_samples {
  std::vector<double> avg_rtt;
  std::vector<double> p99_rtt;
  std::vector<double> avg_jitter;
  std::vector<double> p99_jitter;
};

struct metric_comparison {
  double w1_avg_rtt = 0;
  double w1_p99_rtt = 0;
  double w1_avg_jitter = 0;
  double w1_p99_jitter = 0;
  stats::correlation_result rho_avg_rtt;
  stats::correlation_result rho_p99_rtt;
  stats::correlation_result rho_avg_jitter;
  stats::correlation_result rho_p99_jitter;
  std::size_t samples = 0;
};

// Compare prediction vs ground truth. Both runs must come from the same
// ingress streams; samples are paired by (flow, bucket) and unpaired
// buckets are dropped.
[[nodiscard]] metric_comparison compare_runs(const des::run_result& truth,
                                             const des::run_result& prediction,
                                             double bucket_seconds,
                                             std::size_t min_packets_per_bucket = 8);

}  // namespace dqn::core
