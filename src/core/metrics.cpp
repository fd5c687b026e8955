#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/wasserstein.hpp"

namespace dqn::core {

std::map<bucket_key, std::vector<double>> bucketed_latencies(
    const des::run_result& result, double bucket_seconds) {
  if (bucket_seconds <= 0)
    throw std::invalid_argument{"metrics: bucket_seconds must be > 0"};
  // Collect (send_time, latency) per flow, ordered by send time so jitter is
  // computed over the emission order.
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> flows;
  for (const auto& d : result.deliveries)
    flows[d.flow_id].emplace_back(d.send_time, d.latency());
  std::map<bucket_key, std::vector<double>> buckets;
  for (auto& [flow, samples] : flows) {
    std::sort(samples.begin(), samples.end());
    for (const auto& [send, latency] : samples) {
      const auto b = static_cast<std::int64_t>(std::floor(send / bucket_seconds));
      buckets[{flow, b}].push_back(latency);
    }
  }
  return buckets;
}

void append_bucket_metrics(const std::vector<double>& latencies,
                           metric_samples& out) {
  out.avg_rtt.push_back(stats::mean(latencies));
  out.p99_rtt.push_back(stats::percentile(latencies, 0.99));
  const auto jitter = stats::jitter_series(latencies);
  out.avg_jitter.push_back(stats::mean(jitter));
  out.p99_jitter.push_back(stats::percentile(jitter, 0.99));
}

metric_comparison compare_runs(const des::run_result& truth,
                               const des::run_result& prediction,
                               double bucket_seconds,
                               std::size_t min_packets_per_bucket) {
  const auto truth_buckets = bucketed_latencies(truth, bucket_seconds);
  const auto pred_buckets = bucketed_latencies(prediction, bucket_seconds);

  metric_samples t, p;
  for (const auto& [key, truth_lat] : truth_buckets) {
    const auto it = pred_buckets.find(key);
    if (it == pred_buckets.end()) continue;
    const auto& pred_lat = it->second;
    const std::size_t floor_count = std::max<std::size_t>(min_packets_per_bucket, 2);
    if (truth_lat.size() < floor_count || pred_lat.size() < floor_count) continue;
    append_bucket_metrics(truth_lat, t);
    append_bucket_metrics(pred_lat, p);
  }
  if (t.avg_rtt.size() < 4)
    throw std::runtime_error{
        "compare_runs: not enough paired (flow, bucket) samples; lengthen the "
        "run or shrink the bucket"};

  metric_comparison cmp;
  cmp.samples = t.avg_rtt.size();
  cmp.w1_avg_rtt = stats::normalized_w1(p.avg_rtt, t.avg_rtt);
  cmp.w1_p99_rtt = stats::normalized_w1(p.p99_rtt, t.p99_rtt);
  cmp.w1_avg_jitter = stats::normalized_w1(p.avg_jitter, t.avg_jitter);
  cmp.w1_p99_jitter = stats::normalized_w1(p.p99_jitter, t.p99_jitter);
  cmp.rho_avg_rtt = stats::pearson(p.avg_rtt, t.avg_rtt);
  cmp.rho_p99_rtt = stats::pearson(p.p99_rtt, t.p99_rtt);
  cmp.rho_avg_jitter = stats::pearson(p.avg_jitter, t.avg_jitter);
  cmp.rho_p99_jitter = stats::pearson(p.p99_jitter, t.p99_jitter);
  return cmp;
}

}  // namespace dqn::core
