// Delay-provider API tests (core/delay_provider.hpp): the analytical tier
// against closed-form queueing theory, the mapping of each backend onto the
// tier policy, the threshold/hysteresis state machine and error-budget spot
// check against independent references, the per-run delay override of
// des::run_request, and the string-keyed estimator factory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/delay_provider.hpp"
#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "core/features.hpp"
#include "core/ptm.hpp"
#include "des/estimator_factory.hpp"
#include "des/run_api.hpp"
#include "nn/workspace.hpp"
#include "obs/sink.hpp"
#include "queueing/sojourn.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/rng.hpp"

namespace {

using namespace dqn;

// One tiny trained PTM shared by every test in this binary (training
// dominates test time; the model just needs to be valid, not accurate).
const core::device_model_bundle& tiny_bundle() {
  static const core::device_model_bundle bundle = [] {
    core::dutil_config cfg;
    cfg.ports = 4;
    cfg.streams = 20;
    cfg.packets_per_stream = 400;
    cfg.ptm.time_steps = 8;
    cfg.ptm.mlp_hidden = {32, 16};
    cfg.ptm.epochs = 5;
    cfg.seed = 7;
    return core::train_device_model(cfg);
  }();
  return bundle;
}

std::shared_ptr<const core::ptm_model> tiny_ptm() {
  return {&tiny_bundle().model, [](const core::ptm_model*) {}};
}

traffic::packet_stream make_stream(std::size_t n, double gap,
                                   std::uint32_t size_bytes = 1000) {
  traffic::packet_stream stream;
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    traffic::packet p;
    p.pid = i;
    p.size_bytes = size_bytes;
    t += gap;
    stream.push_back({p, t});
  }
  return stream;
}

des::delay_policy backend_policy(des::delay_backend backend) {
  return des::delay_policy{.backend = backend};
}

// Bit-for-bit equality (EXPECT_DOUBLE_EQ would forgive 4 ulps).
void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// A ready-to-estimate device_state over one arrival series. Owns the rows so
// the state's spans stay valid for the fixture's lifetime.
struct probe {
  traffic::packet_stream stream;
  core::scheduler_context ctx;
  std::vector<double> rows;
  core::device_state state;

  explicit probe(traffic::packet_stream arrivals, double bandwidth_bps = 1e9,
                 std::int64_t device = 1)
      : stream{std::move(arrivals)} {
    ctx.bandwidth_bps = bandwidth_bps;
    rows = core::compute_features(stream, ctx);
    state.device = device;
    state.arrivals = &stream;
    state.feature_rows = rows;
    state.ctx = &ctx;
  }
};

TEST(delay_provider, analytical_fifo_waits_are_exact_lindley) {
  // Six spaced packets then a burst: the analytical backend's FIFO wait must
  // reproduce the Lindley recursion U_i = max(0, U_{i-1} + s_{i-1} - iat_i)
  // exactly — it is the same unfinished-work quantity the feature stage
  // computes, read back as the estimate.
  traffic::packet_stream stream = make_stream(6, 1e-3, 1500);
  double t = stream.back().time;
  for (std::size_t i = 0; i < 4; ++i) {
    traffic::packet p;
    p.pid = 100 + i;
    p.size_bytes = 1500;
    t += 2e-6;
    stream.push_back({p, t});
  }
  probe pr{std::move(stream)};

  core::delay_provider provider{
      nullptr, backend_policy(des::delay_backend::analytical)};
  std::vector<double> raw;
  pr.state.raw_out = &raw;
  const auto waits = provider.estimate_sojourn(pr.state, 0.0);

  ASSERT_EQ(waits.size(), pr.stream.size());
  double unfinished = 0;
  double prev_time = pr.stream.front().time;
  double prev_service = 0;
  for (std::size_t i = 0; i < pr.stream.size(); ++i) {
    const double iat = pr.stream[i].time - prev_time;
    unfinished = std::max(0.0, unfinished + prev_service - iat);
    EXPECT_NEAR(waits[i], unfinished, 1e-12) << "packet " << i;
    prev_time = pr.stream[i].time;
    prev_service = pr.stream[i].pkt.size_bytes * 8.0 / pr.ctx.bandwidth_bps;
  }
  // No SEC stage: the raw trace echoes the estimates.
  ASSERT_EQ(raw.size(), waits.size());
  for (std::size_t i = 0; i < waits.size(); ++i)
    EXPECT_DOUBLE_EQ(raw[i], waits[i]);
}

TEST(delay_provider, mm1_closed_forms_match_textbook_values) {
  const double mu = 125'000.0;  // 1 Gbps line, 1000-byte packets
  const double lambda = 0.5 * mu;
  EXPECT_NEAR(queueing::mm1_mean_wait(lambda, mu), 0.5 / (mu - lambda), 1e-15);
  EXPECT_NEAR(queueing::mm1_mean_sojourn(lambda, mu), 1.0 / (mu - lambda),
              1e-15);
  EXPECT_TRUE(std::isinf(queueing::mm1_mean_wait(mu, mu)));
}

TEST(delay_provider, ldqbd_reference_collapses_to_mm1_for_fifo) {
  core::scheduler_context ctx;
  ctx.bandwidth_bps = 1e9;
  const double mean_bytes = 1000.0;
  const double mu = ctx.bandwidth_bps / (mean_bytes * 8.0);
  const double lambda = 0.5 * mu;
  const auto waits =
      core::delay_provider::ldqbd_reference_waits(ctx, lambda, mean_bytes);
  ASSERT_EQ(waits.size(), 1u);
  const double expected = queueing::mm1_mean_wait(lambda, mu);
  EXPECT_NEAR(waits[0], expected, 0.05 * expected);
}

TEST(delay_provider, analytical_empirical_mean_matches_ldqbd_reference) {
  // M/M/1 workload (Poisson arrivals, exponential sizes at rho = 0.5): the
  // analytical backend's per-packet waits must average to the stationary
  // LDQBD/MAP reference. Fixed seed keeps the check deterministic.
  const double bandwidth = 1e9;
  const double mean_bytes = 1000.0;
  const double mu = bandwidth / (mean_bytes * 8.0);
  const double lambda = 0.5 * mu;
  std::mt19937_64 rng{424242};
  std::exponential_distribution<double> gap{lambda};
  std::exponential_distribution<double> size{1.0 / mean_bytes};

  traffic::packet_stream stream;
  double t = 0;
  for (std::size_t i = 0; i < 20'000; ++i) {
    traffic::packet p;
    p.pid = i;
    p.size_bytes = static_cast<std::uint32_t>(std::max(1.0, size(rng)));
    t += gap(rng);
    stream.push_back({p, t});
  }
  probe pr{std::move(stream), bandwidth};

  core::delay_provider provider{
      nullptr, backend_policy(des::delay_backend::analytical)};
  const auto waits = provider.estimate_sojourn(pr.state, t);
  double mean = 0;
  for (const double w : waits) mean += w;
  mean /= static_cast<double>(waits.size());

  const auto reference =
      core::delay_provider::ldqbd_reference_waits(pr.ctx, lambda, mean_bytes);
  ASSERT_EQ(reference.size(), 1u);
  EXPECT_NEAR(mean, reference[0], 0.25 * reference[0]);
}

TEST(delay_provider, tiered_hysteresis_state_machine) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 0.5;
  policy.hysteresis = 0.1;
  policy.error_budget = 0;  // isolate the threshold machinery
  core::delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10, 5e-6)};
  const auto call = [&](double utilization) {
    pr.state.utilization = utilization;
    return provider.estimate_sojourn(pr.state, 5e-5);
  };

  call(0.3);  // below threshold: analytical
  EXPECT_EQ(provider.stats().analytical_calls, 1u);
  EXPECT_EQ(provider.stats().ptm_calls, 0u);

  call(0.55);  // inside the band (not > 0.6): stays analytical
  EXPECT_EQ(provider.stats().analytical_calls, 2u);
  EXPECT_EQ(provider.stats().promotions, 0u);

  call(0.65);  // above threshold + band: promoted
  EXPECT_EQ(provider.stats().ptm_calls, 1u);
  EXPECT_EQ(provider.stats().promotions, 1u);

  call(0.45);  // inside the band (not < 0.4): stays PTM
  EXPECT_EQ(provider.stats().ptm_calls, 2u);
  EXPECT_EQ(provider.stats().demotions, 0u);

  call(0.35);  // below threshold - band: demoted
  EXPECT_EQ(provider.stats().analytical_calls, 3u);
  EXPECT_EQ(provider.stats().demotions, 1u);

  // A fresh device at exactly the threshold goes PTM (strict comparison, so
  // threshold 0 means pure PTM even for idle zero-utilization windows).
  pr.state.device = 2;
  call(0.5);
  EXPECT_EQ(provider.stats().ptm_calls, 3u);

  const auto stats = provider.stats();
  EXPECT_EQ(stats.analytical_packets, 3u * 10u);
  EXPECT_EQ(stats.ptm_packets, 3u * 10u);
  EXPECT_DOUBLE_EQ(stats.analytical_fraction(), 0.5);
}

TEST(delay_provider, tiered_unprepared_slot_decides_statelessly) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 0.5;
  policy.hysteresis = 0.1;
  policy.error_budget = 0;
  core::delay_provider provider{tiny_ptm(), policy};  // no prepare()

  probe pr{make_stream(5, 5e-6), 1e9, /*device=*/5};
  pr.state.utilization = 0.3;
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().analytical_calls, 1u);
  pr.state.utilization = 0.7;
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().ptm_calls, 1u);
  // Stateless fallback keeps no hysteresis memory: no transition counted.
  EXPECT_EQ(provider.stats().promotions, 0u);
}

TEST(delay_provider, tiered_error_budget_pins_device_to_ptm) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;  // everything starts analytical
  policy.hysteresis = 0;
  policy.error_budget = 1e-9;  // no learned model clears this bar
  core::delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10, 5e-6)};
  const auto first = provider.estimate_sojourn(pr.state, 5e-5);

  // The spot check compared both backends on every window of this short
  // series, failed the budget, and returned the learned values; the queue is
  // pinned to the PTM permanently.
  EXPECT_EQ(provider.stats().budget_promotions, 1u);
  EXPECT_EQ(provider.stats().probes, 1u);
  EXPECT_EQ(provider.stats().probe_windows, 10u);
  EXPECT_EQ(provider.stats().ptm_calls, 1u);
  EXPECT_EQ(provider.stats().analytical_calls, 0u);
  nn::workspace ws;
  const auto& model = tiny_bundle().model;
  expect_bitwise_equal(
      first, model.predict(core::make_windows(pr.rows, model.config().time_steps),
                           ws, /*apply_sec=*/true));

  pr.state.utilization = 0.0;  // far below threshold, but pinned wins
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().ptm_calls, 2u);
  EXPECT_EQ(provider.stats().demotions, 0u);
}

TEST(delay_provider, tiered_error_budget_passes_with_generous_budget) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;
  policy.hysteresis = 0;
  policy.error_budget = 1e9;  // any deviation is within budget
  core::delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10, 5e-6)};
  const auto first = provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().budget_promotions, 0u);
  // The probe counts as probe windows, not as a served PTM call.
  EXPECT_EQ(provider.stats().probes, 1u);
  EXPECT_EQ(provider.stats().ptm_calls, 0u);
  EXPECT_EQ(provider.stats().analytical_calls, 1u);

  // FIFO: the analytical tier reads the Lindley unfinished-work column.
  std::vector<double> expected;
  for (std::size_t i = 0; i < pr.stream.size(); ++i)
    expected.push_back(
        pr.rows[i * core::feature_count + core::f_unfinished_work]);
  expect_bitwise_equal(first, expected);
  EXPECT_EQ(provider.stats().analytical_packets, 10u);
}

TEST(delay_provider, tiered_probe_hands_the_ptm_a_bounded_sample) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;
  policy.hysteresis = 0;
  policy.error_budget = 1e9;  // passes: the sample's size is what is checked
  core::delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);
  obs::sink sink;
  provider.bind_sink(&sink);

  probe pr{make_stream(10'000, 5e-6)};
  (void)provider.estimate_sojourn(pr.state, 5e-2);
  const auto stats = provider.stats();
  EXPECT_EQ(stats.probes, 1u);
  EXPECT_GT(stats.probe_windows, 0u);
  EXPECT_LE(stats.probe_windows, core::delay_provider::probe_window_cap);
  EXPECT_EQ(stats.ptm_calls, 0u);
  EXPECT_EQ(stats.analytical_packets, 10'000u);
  // Only served estimates reach the predicted-sojourn histograms.
  const auto histograms = sink.metrics().snapshot().histograms;
  EXPECT_EQ(histograms.at("delay.ptm.predicted_sojourn_seconds").count, 0u);
  EXPECT_EQ(histograms.at("delay.analytical.predicted_sojourn_seconds").count,
            10'000u);
  provider.publish(sink);
  EXPECT_DOUBLE_EQ(sink.metrics().counter("tiered.probes"), 1.0);
  EXPECT_DOUBLE_EQ(sink.metrics().counter("tiered.probe_windows"),
                   static_cast<double>(stats.probe_windows));
}

TEST(delay_provider, tiered_failed_sampled_probe_serves_the_full_series) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;
  policy.hysteresis = 0;
  policy.error_budget = 1e-9;
  core::delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10'000, 5e-6)};
  std::vector<double> raw;
  pr.state.raw_out = &raw;
  const auto sojourns = provider.estimate_sojourn(pr.state, 5e-2);
  EXPECT_EQ(provider.stats().budget_promotions, 1u);
  EXPECT_LE(provider.stats().probe_windows,
            core::delay_provider::probe_window_cap);

  // A pinned queue gets the PTM's answer for every packet, not the sample's.
  nn::workspace ws;
  const auto& model = tiny_bundle().model;
  std::vector<double> expected_raw;
  const auto expected =
      model.predict(core::make_windows(pr.rows, model.config().time_steps), ws,
                    /*apply_sec=*/true, &expected_raw);
  expect_bitwise_equal(sojourns, expected);
  expect_bitwise_equal(raw, expected_raw);
}

TEST(delay_provider, strided_windows_are_the_full_windows_at_those_rows) {
  probe pr{make_stream(50, 5e-6)};
  constexpr std::size_t steps = 8;
  constexpr std::size_t stride = 7;
  const std::size_t window_size = steps * core::feature_count;
  const auto full = core::make_windows(pr.rows, steps);
  const auto strided = core::make_windows(pr.rows, steps, stride);
  ASSERT_EQ(strided.size(), ((50 + stride - 1) / stride) * window_size);
  for (std::size_t k = 0; k * window_size < strided.size(); ++k)
    EXPECT_EQ(std::memcmp(strided.data() + k * window_size,
                          full.data() + k * stride * window_size,
                          window_size * sizeof(double)),
              0)
        << "window " << k;
}

TEST(delay_provider, tiered_ports_of_one_device_keep_separate_tiers) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 0.5;
  policy.hysteresis = 0.1;
  policy.error_budget = 0;
  core::delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10, 5e-6)};
  const auto call = [&](std::size_t port, double utilization) {
    pr.state.port = port;
    pr.state.utilization = utilization;
    (void)provider.estimate_sojourn(pr.state, 5e-5);
  };
  call(0, 0.3);   // port 0 starts analytical
  call(1, 0.55);  // port 1 starts fresh: PTM at >= threshold
  EXPECT_EQ(provider.stats().analytical_calls, 1u);
  EXPECT_EQ(provider.stats().ptm_calls, 1u);
  call(0, 0.55);  // inside the band: port 0 keeps its own analytical tier
  call(1, 0.45);  // inside the band: port 1 keeps its own PTM tier
  EXPECT_EQ(provider.stats().analytical_calls, 2u);
  EXPECT_EQ(provider.stats().ptm_calls, 2u);
  EXPECT_EQ(provider.stats().promotions, 0u);
  EXPECT_EQ(provider.stats().demotions, 0u);
  call(0, 0.65);  // each port crosses its own band
  call(1, 0.35);
  EXPECT_EQ(provider.stats().promotions, 1u);
  EXPECT_EQ(provider.stats().demotions, 1u);
}

TEST(delay_provider, tiered_host_nics_get_one_slot_per_node_id) {
  const topo::topology topology = topo::make_fattree16();
  const auto hosts = topology.hosts();
  ASSERT_GE(hosts.size(), 2u);
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 0.5;
  policy.hysteresis = 0.1;
  policy.error_budget = 0;
  core::delay_provider provider{tiny_ptm(), policy};
  provider.prepare(topology.node_count() + 1);  // as the engine sizes it

  probe pr{make_stream(10, 5e-6)};
  pr.state.device = hosts[0];
  pr.state.utilization = 0.65;  // host 0 starts on the PTM
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  pr.state.device = hosts[1];
  pr.state.utilization = 0.45;  // inside host 0's band, but host 1 is fresh
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().ptm_calls, 1u);
  EXPECT_EQ(provider.stats().analytical_calls, 1u);
}

TEST(delay_provider, tiered_publish_emits_deltas_against_shared_sink) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;
  policy.hysteresis = 0;
  policy.error_budget = 0;
  core::delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10, 5e-6)};
  obs::sink sink;
  provider.bind_sink(&sink);
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  provider.publish(sink);
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  provider.publish(sink);  // second publish must add only the delta

  EXPECT_DOUBLE_EQ(sink.metrics().counter("tiered.analytical_packets"), 20.0);
  EXPECT_DOUBLE_EQ(sink.metrics().counter("tiered.analytical_calls"), 2.0);
  EXPECT_DOUBLE_EQ(sink.metrics().gauge("tiered.analytical_fraction"), 1.0);

  // Both backends register a histogram of the sojourns they *predict*; the
  // names say so (they are model outputs, not compute time).
  const auto histograms = sink.metrics().snapshot().histograms;
  ASSERT_TRUE(histograms.contains("delay.analytical.predicted_sojourn_seconds"));
  ASSERT_TRUE(histograms.contains("delay.ptm.predicted_sojourn_seconds"));
  EXPECT_EQ(histograms.at("delay.analytical.predicted_sojourn_seconds").count,
            20u);
  EXPECT_EQ(histograms.at("delay.ptm.predicted_sojourn_seconds").count, 0u);
  EXPECT_FALSE(histograms.contains("delay.analytical_seconds"));
  EXPECT_FALSE(histograms.contains("delay.ptm_seconds"));
}

TEST(delay_provider, backend_maps_onto_tier_thresholds) {
  const des::delay_policy given{.backend = des::delay_backend::tiered,
                                .utilization_threshold = 0.4,
                                .hysteresis = 0.02,
                                .error_budget = 0.3};
  auto as = [&](des::delay_backend backend) {
    des::delay_policy policy = given;
    policy.backend = backend;
    return policy;
  };

  const core::delay_provider ptm{tiny_ptm(), as(des::delay_backend::ptm)};
  EXPECT_STREQ(ptm.name(), "ptm");
  EXPECT_EQ(ptm.policy().utilization_threshold, 0.0);

  const core::delay_provider analytical{
      tiny_ptm(), as(des::delay_backend::analytical)};
  EXPECT_STREQ(analytical.name(), "analytical");
  EXPECT_EQ(analytical.policy().utilization_threshold,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(analytical.policy().error_budget, 0.0);

  const core::delay_provider tiered{tiny_ptm(), given};
  EXPECT_STREQ(tiered.name(), "tiered");
  EXPECT_EQ(tiered.policy().utilization_threshold, 0.4);
  EXPECT_EQ(tiered.policy().hysteresis, 0.02);
  EXPECT_EQ(tiered.policy().error_budget, 0.3);
}

TEST(delay_provider, only_the_analytical_backend_runs_without_a_ptm) {
  core::delay_provider analytical{
      nullptr, backend_policy(des::delay_backend::analytical)};
  analytical.prepare(4);
  probe pr{make_stream(10, 5e-6)};
  pr.state.utilization = 1e6;  // no load routes the analytical backend to a PTM
  EXPECT_EQ(analytical.estimate_sojourn(pr.state, 5e-5).size(), 10u);
  EXPECT_EQ(analytical.stats().analytical_packets, 10u);

  const auto untrained = std::make_shared<const core::ptm_model>();
  for (const auto backend :
       {des::delay_backend::ptm, des::delay_backend::tiered}) {
    EXPECT_THROW((core::delay_provider{untrained, backend_policy(backend)}),
                 std::invalid_argument)
        << des::to_string(backend);
    EXPECT_THROW((core::delay_provider{nullptr, backend_policy(backend)}),
                 std::invalid_argument)
        << des::to_string(backend);
  }
}

// ---------------------------------------------------------------------------
// Engine-level parity: each backend must reproduce, bit-for-bit through the
// engine, the tiered policy at the thresholds it maps onto, and
// run_request.delay must override per run only.
// ---------------------------------------------------------------------------

struct engine_scenario {
  topo::topology topo = topo::make_fattree16();
  topo::routing routes{topo};
  std::vector<traffic::packet_stream> streams;
  double horizon = 0.005;

  engine_scenario() {
    util::rng rng{11};
    auto flows = traffic::make_uniform_flows(16, 1, rng);
    traffic::tg_util_config tg;
    tg.per_flow_rate = 30'000.0;
    tg.seed = 11;
    auto generators = traffic::make_generators(flows, tg);
    streams = traffic::per_host_streams(generators, 16, horizon, rng);
  }

  [[nodiscard]] des::run_result run(const des::delay_policy& policy) const {
    core::engine_config cfg;
    cfg.partitions = 2;
    cfg.delay = policy;
    core::dqn_network net{topo, routes, tiny_ptm(), {}, cfg};
    return net.run(streams, horizon);
  }
};

void expect_identical_deliveries(const des::run_result& a,
                                 const des::run_result& b) {
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].pid, b.deliveries[i].pid);
    EXPECT_DOUBLE_EQ(a.deliveries[i].delivery_time,
                     b.deliveries[i].delivery_time);
  }
}

TEST(delay_provider, tiered_threshold_zero_is_pure_ptm_through_engine) {
  const engine_scenario sc;
  const auto ptm_result =
      sc.run(des::delay_policy{.backend = des::delay_backend::ptm});
  const auto tiered_result =
      sc.run(des::delay_policy{.backend = des::delay_backend::tiered,
                               .utilization_threshold = 0,
                               .hysteresis = 0});
  ASSERT_FALSE(ptm_result.deliveries.empty());
  expect_identical_deliveries(ptm_result, tiered_result);
}

TEST(delay_provider, tiered_huge_threshold_is_pure_analytical_through_engine) {
  const engine_scenario sc;
  const auto analytical_result =
      sc.run(des::delay_policy{.backend = des::delay_backend::analytical});
  const auto tiered_result =
      sc.run(des::delay_policy{.backend = des::delay_backend::tiered,
                               .utilization_threshold = 1e9,
                               .hysteresis = 0,
                               .error_budget = 0});
  ASSERT_FALSE(analytical_result.deliveries.empty());
  expect_identical_deliveries(analytical_result, tiered_result);
}

TEST(delay_provider, run_request_delay_override_lasts_one_run) {
  const engine_scenario sc;
  core::engine_config cfg;
  cfg.partitions = 2;
  core::dqn_network net{sc.topo, sc.routes, tiny_ptm(), {}, cfg};
  EXPECT_STREQ(net.provider().name(), "ptm");

  des::run_request request;
  request.host_streams = &sc.streams;
  request.horizon = sc.horizon;
  request.delay =
      des::delay_policy{.backend = des::delay_backend::analytical};
  const auto overridden = net.run(request);
  const auto analytical_result =
      sc.run(des::delay_policy{.backend = des::delay_backend::analytical});
  expect_identical_deliveries(overridden, analytical_result);

  // The override does not stick: the configured provider is restored.
  EXPECT_STREQ(net.provider().name(), "ptm");
  request.delay.reset();
  const auto plain = net.run(request);
  const auto ptm_result =
      sc.run(des::delay_policy{.backend = des::delay_backend::ptm});
  expect_identical_deliveries(plain, ptm_result);
}

// ---------------------------------------------------------------------------
// String-keyed estimator factory (des/estimator_factory.hpp).
// ---------------------------------------------------------------------------

TEST(estimator_factory, creates_every_advertised_estimator) {
  const engine_scenario sc;
  des::estimator_context context;
  context.topo = &sc.topo;
  context.routes = &sc.routes;
  context.ptm = tiny_ptm();

  util::rng rng{11};
  const auto flows = traffic::make_uniform_flows(16, 1, rng);
  const std::vector<double> rates(flows.size(), 30'000.0);
  context.flows = &flows;
  context.flow_rates_pps = &rates;
  context.mean_packet_size = 1000.0;

  for (const auto& name : des::estimator_names()) {
    const auto estimator = des::make_estimator(name, context);
    ASSERT_NE(estimator, nullptr) << name;
    EXPECT_EQ(estimator->estimator_name(), name);
  }
  // The alias resolves to the engine.
  EXPECT_STREQ(des::make_estimator("dqn", context)->estimator_name(),
               "deepqueuenet");
}

TEST(estimator_factory, rejects_unknown_and_untrained_names) {
  const engine_scenario sc;
  des::estimator_context context;
  context.topo = &sc.topo;
  context.routes = &sc.routes;
  context.ptm = tiny_ptm();

  EXPECT_THROW((void)des::make_estimator("quantum", context),
               std::invalid_argument);
  EXPECT_THROW((void)des::make_estimator("routenet", context),
               std::invalid_argument);
  EXPECT_THROW((void)des::make_estimator("mimicnet", context),
               std::invalid_argument);

  // Missing requirements are named loudly rather than dereferenced.
  des::estimator_context incomplete;
  incomplete.topo = &sc.topo;
  incomplete.routes = &sc.routes;
  EXPECT_THROW((void)des::make_estimator("deepqueuenet", incomplete),
               std::invalid_argument);
}

}  // namespace
