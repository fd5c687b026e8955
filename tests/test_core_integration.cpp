// Integration tests: PTM training via DUtil, DLib persistence, the IRSA
// engine against the DES oracle, and the end-to-end metric machinery. One
// small PTM is trained once and shared across the tests in this binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/dlib.hpp"
#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "des/network.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/rng.hpp"
#include "util/check.hpp"

namespace {

using namespace dqn;

core::dutil_config tiny_dutil_config() {
  core::dutil_config cfg;
  cfg.ports = 4;
  cfg.streams = 40;
  cfg.packets_per_stream = 800;
  cfg.ptm.arch = core::ptm_arch::mlp;
  cfg.ptm.time_steps = 8;
  cfg.ptm.mlp_hidden = {64, 32};
  cfg.ptm.epochs = 12;
  cfg.seed = 2024;
  return cfg;
}

// Shared trained model (expensive; built once per test binary).
const core::device_model_bundle& shared_bundle() {
  static const core::device_model_bundle bundle =
      core::train_device_model(tiny_dutil_config());
  return bundle;
}

std::shared_ptr<const core::ptm_model> shared_ptm() {
  return std::shared_ptr<const core::ptm_model>{&shared_bundle().model,
                                                [](const core::ptm_model*) {}};
}

TEST(dutil, generates_consistent_stream_samples) {
  auto cfg = tiny_dutil_config();
  util::rng rng{1};
  const auto sample = core::generate_stream_sample(cfg, rng);
  ASSERT_GT(sample.data.count(), 100u);
  EXPECT_EQ(sample.data.targets.size(), sample.data.count());
  EXPECT_EQ(sample.data.windows.size(),
            sample.data.count() * cfg.ptm.time_steps * core::feature_count);
  for (double target : sample.data.targets) EXPECT_GE(target, 0.0);
  EXPECT_GE(sample.load, cfg.load_lo);
  EXPECT_LE(sample.load, cfg.load_hi);
}

TEST(dutil, load_override_and_scheduler_pinning) {
  auto cfg = tiny_dutil_config();
  util::rng rng{2};
  const auto kind = des::scheduler_kind::wfq;
  const double load = 0.55;
  const auto sample = core::generate_stream_sample(cfg, rng, &kind, &load);
  EXPECT_EQ(sample.scheduler, kind);
  EXPECT_DOUBLE_EQ(sample.load, load);
}

TEST(dutil, training_reduces_mse) {
  const auto& bundle = shared_bundle();
  ASSERT_GE(bundle.report.epoch_mse.size(), 2u);
  EXPECT_LT(bundle.report.epoch_mse.back(), bundle.report.epoch_mse.front());
}

TEST(dutil, trained_model_beats_zero_predictor_on_validation) {
  const auto& bundle = shared_bundle();
  ASSERT_GT(bundle.validation.count(), 0u);
  // normalized w1 of the zero predictor is 1 by construction; the model
  // must do substantially better.
  const double w1 = core::evaluate_w1(bundle.model, bundle.validation);
  EXPECT_LT(w1, 0.5);
}

TEST(dutil, sec_refinement_does_not_hurt) {
  const auto& bundle = shared_bundle();
  const double with_sec = core::evaluate_w1(bundle.model, bundle.validation, true);
  const double without_sec =
      core::evaluate_w1(bundle.model, bundle.validation, false);
  EXPECT_LE(with_sec, without_sec * 1.25);
}

TEST(dlib, store_fetch_roundtrip_preserves_predictions) {
  const auto dir = std::filesystem::temp_directory_path() / "dqn_test_models";
  std::filesystem::remove_all(dir);
  core::device_model_library lib{dir};
  const auto key = core::device_model_library::model_key(core::ptm_arch::mlp, 4, 1);
  EXPECT_FALSE(lib.contains(key));
  lib.store(key, shared_bundle().model);
  ASSERT_TRUE(lib.contains(key));
  const auto loaded = lib.fetch(key);
  const auto& validation = shared_bundle().validation;
  nn::workspace ws;
  const auto before = shared_bundle().model.predict(validation.windows, ws);
  const auto after = loaded.predict(validation.windows, ws);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  std::filesystem::remove_all(dir);
}

TEST(ptm_model, load_rejects_out_of_range_architecture_byte) {
  const core::ptm_model model{core::ptm_config{}};
  std::stringstream buffer;
  model.save(buffer);
  std::string bytes = buffer.str();
  bytes[0] = 2;  // leading ptm_arch byte: only mlp (0) and attention (1) exist
  std::istringstream in{bytes};
  core::ptm_model loaded;
  EXPECT_THROW(loaded.load(in), util::contract_violation);
}

// A trained MLP PTM stream built from its parts, with a feature scaler of
// the given width: header, network, scalers, one SEC table per scheduler.
std::string ptm_stream_with_scaler_width(std::size_t width,
                                         std::uint64_t time_steps = 4) {
  std::stringstream out;
  const std::uint8_t arch = 0, is_trained = 1;
  out.write(reinterpret_cast<const char*>(&arch), sizeof arch);
  out.write(reinterpret_cast<const char*>(&time_steps), sizeof time_steps);
  out.write(reinterpret_cast<const char*>(&is_trained), sizeof is_trained);
  util::rng rng{41};
  const nn::mlp net{{4 * core::feature_count, 8, 1}, nn::activation::tanh, rng};
  net.save(out);
  std::vector<double> rows(3 * width);
  for (auto& v : rows) v = rng.uniform(0.0, 1.0);
  nn::min_max_scaler features;
  features.fit(rows, width);
  features.save(out);
  nn::target_scaler target;
  target.fit(std::vector<double>{0.0, 1.0});
  target.save(out);
  for (int kind = 0; kind < 5; ++kind) core::sec_table{}.save(out);
  return out.str();
}

TEST(ptm_model, load_rejects_a_scaler_that_is_not_feature_count_wide) {
  {
    std::istringstream in{ptm_stream_with_scaler_width(core::feature_count)};
    core::ptm_model loaded;
    loaded.load(in);
    EXPECT_TRUE(loaded.trained());
  }
  std::istringstream in{ptm_stream_with_scaler_width(16)};
  core::ptm_model loaded;
  EXPECT_THROW(loaded.load(in), util::contract_violation);
}

TEST(ptm_model, load_rejects_time_steps_outside_the_bound) {
  for (const std::uint64_t time_steps :
       {std::uint64_t{0}, std::uint64_t{core::ptm_model::max_time_steps + 1},
        std::uint64_t{1} << 40}) {
    std::istringstream in{
        ptm_stream_with_scaler_width(core::feature_count, time_steps)};
    core::ptm_model loaded;
    EXPECT_THROW(loaded.load(in), util::contract_violation) << time_steps;
  }
}

TEST(dlib, fetch_missing_key_throws) {
  const auto dir = std::filesystem::temp_directory_path() / "dqn_test_models2";
  std::filesystem::remove_all(dir);
  core::device_model_library lib{dir};
  EXPECT_THROW((void)lib.fetch("nope"), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// --- Device model -------------------------------------------------------------

TEST(device_model, conserves_packets_and_orders_egress) {
  core::device_model dev{shared_ptm(), {}};
  util::rng rng{3};
  std::vector<traffic::packet_stream> ingress(4);
  std::size_t total = 0;
  for (std::size_t port = 0; port < 4; ++port) {
    double t = 0;
    for (int i = 0; i < 40; ++i) {
      t += rng.exponential(1e5);
      traffic::packet p;
      p.pid = port * 1000 + static_cast<std::uint64_t>(i);
      p.flow_id = static_cast<std::uint32_t>(rng.uniform_int(6));
      p.size_bytes = 1000;
      ingress[port].push_back({p, t});
      ++total;
    }
  }
  std::vector<core::predicted_hop> hops;
  const auto egress = dev.process(
      ingress, [](std::uint32_t fid, std::size_t) { return fid % 4; }, true, &hops);
  std::size_t out_total = 0;
  for (const auto& stream : egress) {
    EXPECT_TRUE(traffic::is_time_ordered(stream));
    out_total += stream.size();
  }
  EXPECT_EQ(out_total, total);
  EXPECT_EQ(hops.size(), total);
  for (const auto& hop : hops) EXPECT_GE(hop.departure, hop.arrival);
}

TEST(device_model, link_adds_serialization_and_propagation) {
  traffic::packet_stream in;
  traffic::packet p;
  p.pid = 1;
  p.size_bytes = 1000;
  in.push_back({p, 2.0});
  const auto out = core::apply_link(in, 10e9, 5e-6);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].time, 2.0 + 1000 * 8.0 / 10e9 + 5e-6, 1e-15);
}

// --- Engine (IRSA) --------------------------------------------------------------

std::vector<traffic::packet_stream> make_scenario(std::size_t hosts, double rate,
                                                  double horizon,
                                                  std::uint64_t seed) {
  util::rng rng{seed};
  auto flows = traffic::make_uniform_flows(hosts, 1, rng);
  traffic::tg_util_config tg;
  tg.model = traffic::traffic_model::poisson;
  tg.per_flow_rate = rate;
  tg.seed = seed;
  auto generators = traffic::make_generators(flows, tg);
  return traffic::per_host_streams(generators, hosts, horizon, rng);
}

TEST(engine, converges_within_diameter_iterations) {
  const auto topo = topo::make_line(4);
  const topo::routing routes{topo};
  core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
  const auto streams = make_scenario(4, 30'000.0, 0.02, 5);
  (void)net.run(streams, 0.02);
  EXPECT_LE(net.stats().iterations, 1 + topo.diameter());
  EXPECT_GT(net.stats().device_inferences, 0u);
}

TEST(engine, delivers_every_injected_packet) {
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
  const auto streams = make_scenario(16, 20'000.0, 0.01, 6);
  std::size_t injected = 0;
  for (const auto& s : streams) injected += s.size();
  const auto result = net.run(streams, 0.01);
  EXPECT_EQ(result.deliveries.size(), injected);
}

TEST(engine, partition_count_does_not_change_results) {
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = make_scenario(16, 20'000.0, 0.01, 7);
  core::engine_config cfg1;
  cfg1.partitions = 1;
  core::engine_config cfg4;
  cfg4.partitions = 4;
  core::dqn_network net1{topo, routes, shared_ptm(), {}, cfg1};
  core::dqn_network net4{topo, routes, shared_ptm(), {}, cfg4};
  const auto r1 = net1.run(streams, 0.01);
  const auto r4 = net4.run(streams, 0.01);
  ASSERT_EQ(r1.deliveries.size(), r4.deliveries.size());
  for (std::size_t i = 0; i < r1.deliveries.size(); ++i) {
    EXPECT_EQ(r1.deliveries[i].pid, r4.deliveries[i].pid);
    EXPECT_NEAR(r1.deliveries[i].delivery_time, r4.deliveries[i].delivery_time,
                1e-12);
  }
}

TEST(engine, latency_at_least_sum_of_link_delays) {
  const auto topo = topo::make_line(3);
  const topo::routing routes{topo};
  core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
  const auto streams = make_scenario(3, 10'000.0, 0.02, 8);
  const auto result = net.run(streams, 0.02);
  ASSERT_GT(result.deliveries.size(), 0u);
  const auto hosts = topo.hosts();
  for (const auto& d : result.deliveries) {
    const auto path = routes.flow_path(d.src, d.dst, d.flow_id);
    // Minimum latency: per-link 64B serialization + propagation.
    const double min_latency =
        static_cast<double>(path.size() - 1) * (64 * 8.0 / 10e9 + 1e-6);
    EXPECT_GE(d.latency(), min_latency * 0.999);
  }
  (void)hosts;
}

TEST(engine, tracks_des_latencies_at_moderate_load) {
  // End-to-end accuracy smoke test: DQN's mean latency within a factor of
  // the DES oracle on a FatTree16 at moderate load (the full accuracy
  // evaluation lives in the benches).
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = make_scenario(16, 60'000.0, 0.05, 9);

  des::network oracle{topo, routes, {}};
  const auto truth = oracle.run(streams, 0.05);
  core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
  const auto pred = net.run(streams, 0.05);

  const auto t = des::all_latencies(truth);
  const auto p = des::all_latencies(pred);
  ASSERT_GT(t.size(), 100u);
  ASSERT_EQ(p.size(), t.size());
  const double mean_t = std::accumulate(t.begin(), t.end(), 0.0) /
                        static_cast<double>(t.size());
  const double mean_p = std::accumulate(p.begin(), p.end(), 0.0) /
                        static_cast<double>(p.size());
  EXPECT_LT(std::abs(mean_p - mean_t) / mean_t, 0.5);
}

TEST(engine, egress_stream_visibility) {
  const auto topo = topo::make_line(3);
  const topo::routing routes{topo};
  core::engine_config cfg;
  cfg.record_hops = true;
  core::dqn_network net{topo, routes, shared_ptm(), {}, cfg};
  const auto streams = make_scenario(3, 10'000.0, 0.01, 10);
  const auto result = net.run(streams, 0.01);
  EXPECT_GT(result.hops.size(), 0u);
  // Any switch's egress stream is inspectable after the run.
  const auto sw = topo.devices()[1];
  for (std::size_t port = 0; port < topo.port_count(sw); ++port)
    EXPECT_NO_THROW((void)net.egress_stream(sw, port));
  if (dqn::util::contracts_enabled) {
    EXPECT_THROW((void)net.egress_stream(sw, 99), dqn::util::contract_violation);
  }
}

// --- Metrics ---------------------------------------------------------------------

TEST(metrics, identical_runs_have_zero_w1_and_unit_rho) {
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = make_scenario(16, 40'000.0, 0.1, 11);
  des::network oracle{topo, routes, {}};
  const auto truth = oracle.run(streams, 0.1);
  const auto cmp = core::compare_runs(truth, truth, 0.01, 4);
  EXPECT_NEAR(cmp.w1_avg_rtt, 0.0, 1e-12);
  EXPECT_NEAR(cmp.w1_p99_rtt, 0.0, 1e-12);
  EXPECT_NEAR(cmp.rho_avg_rtt.rho, 1.0, 1e-9);
  EXPECT_GT(cmp.samples, 10u);
}

TEST(metrics, shifted_run_has_positive_w1) {
  const auto topo = topo::make_line(2);
  const topo::routing routes{topo};
  const auto streams = make_scenario(2, 40'000.0, 0.1, 12);
  des::network oracle{topo, routes, {}};
  const auto truth = oracle.run(streams, 0.1);
  auto shifted = truth;
  for (auto& d : shifted.deliveries) d.delivery_time += 1e-3;
  const auto cmp = core::compare_runs(truth, shifted, 0.01, 4);
  EXPECT_GT(cmp.w1_avg_rtt, 0.1);
}

TEST(metrics, too_few_samples_throws) {
  des::run_result empty_truth;
  EXPECT_THROW((void)core::compare_runs(empty_truth, empty_truth, 0.1),
               std::runtime_error);
}

}  // namespace
