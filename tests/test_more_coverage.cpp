// Additional edge-case coverage across modules: activation math, optimizer
// bias correction, routing ECMP determinism properties, DES record helpers,
// metric bucket boundaries, PTM error paths, and queueing linear algebra.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>

#include "core/dlib.hpp"
#include "core/features.hpp"
#include "core/metrics.hpp"
#include "core/pfm.hpp"
#include "core/ptm.hpp"
#include "des/records.hpp"
#include "des/simulator.hpp"
#include "nn/adam.hpp"
#include "nn/dense.hpp"
#include "queueing/linalg.hpp"
#include "queueing/markovian_arrival.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "util/rng.hpp"
#include "util/check.hpp"

namespace {

using namespace dqn;

// --- nn ---------------------------------------------------------------------

TEST(activations, values_and_output_derivatives) {
  using nn::activation;
  EXPECT_DOUBLE_EQ(nn::apply_activation(activation::identity, 3.5), 3.5);
  EXPECT_DOUBLE_EQ(nn::apply_activation(activation::relu, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(nn::apply_activation(activation::relu, 2.0), 2.0);
  EXPECT_NEAR(nn::apply_activation(activation::tanh, 0.5), std::tanh(0.5), 1e-15);
  EXPECT_NEAR(nn::apply_activation(activation::sigmoid, 0.0), 0.5, 1e-15);
  // Derivatives expressed from outputs.
  EXPECT_DOUBLE_EQ(nn::activation_grad_from_output(activation::identity, 7.0), 1.0);
  EXPECT_DOUBLE_EQ(nn::activation_grad_from_output(activation::relu, 0.0), 0.0);
  const double y = std::tanh(0.3);
  EXPECT_NEAR(nn::activation_grad_from_output(activation::tanh, y), 1 - y * y,
              1e-15);
  EXPECT_NEAR(nn::activation_grad_from_output(activation::sigmoid, 0.25),
              0.25 * 0.75, 1e-15);
}

TEST(adam, first_step_equals_learning_rate) {
  // With bias correction, the first update magnitude is ~lr regardless of
  // gradient scale.
  for (const double gradient : {1e-6, 1.0, 100.0}) {
    nn::aligned_vector w{0.0};
    nn::aligned_vector g{gradient};
    nn::adam_config cfg;
    cfg.learning_rate = 0.01;
    cfg.grad_clip = 0;  // disable clipping for this check
    nn::adam opt{{{&w, &g}}, cfg};
    opt.step();
    EXPECT_NEAR(std::abs(w[0]), 0.01, 1e-4) << "gradient " << gradient;
  }
}

TEST(glorot_init, respects_limit) {
  util::rng rng{3};
  const auto m = nn::matrix::glorot(40, 60, rng);
  const double limit = std::sqrt(6.0 / (40 + 60));
  for (double v : m.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

// --- topo -------------------------------------------------------------------

TEST(routing_salt, changes_ecmp_assignment_but_stays_valid) {
  const auto topo = topo::make_fattree64();
  const topo::routing a{topo, 1};
  const topo::routing b{topo, 2};
  const auto hosts = topo.hosts();
  std::size_t differing = 0;
  for (std::uint32_t flow = 0; flow < 32; ++flow) {
    const auto pa = a.flow_path(hosts[0], hosts[40], flow);
    const auto pb = b.flow_path(hosts[0], hosts[40], flow);
    if (pa != pb) ++differing;
    EXPECT_EQ(pa.size(), pb.size());  // both shortest
  }
  EXPECT_GT(differing, 0u);
}

TEST(wan_topologies, carry_geographic_propagation) {
  const auto abilene = topo::make_abilene();
  double max_delay = 0;
  for (const auto& link : abilene.links())
    max_delay = std::max(max_delay, link.propagation_delay);
  // Transcontinental spans are multi-millisecond.
  EXPECT_GT(max_delay, 5e-3);
  const auto geant = topo::make_geant();
  double geant_max = 0;
  for (const auto& link : geant.links())
    geant_max = std::max(geant_max, link.propagation_delay);
  EXPECT_GT(geant_max, 10e-3);  // the transatlantic NY link
}

TEST(fattree, port_counts_match_structure) {
  const auto t = topo::make_fattree16();  // T=2, S=4, C=2
  for (const auto dev : t.devices()) {
    const auto& name = t.at(dev).name;
    if (name.starts_with("tor")) {
      EXPECT_EQ(t.port_count(dev), 2u + 4u) << name;  // aggs + servers
    } else if (name.starts_with("agg")) {
      EXPECT_EQ(t.port_count(dev), 2u + 2u) << name;  // tors + cores
    } else if (name.starts_with("core")) {
      EXPECT_EQ(t.port_count(dev), 2u) << name;  // one agg per cluster
    }
  }
}

// --- des --------------------------------------------------------------------

TEST(records, per_flow_latencies_groups_and_orders) {
  des::run_result result;
  for (int i = 0; i < 6; ++i) {
    des::delivery_record d;
    d.pid = static_cast<std::uint64_t>(i);
    d.flow_id = static_cast<std::uint32_t>(i % 2);
    d.send_time = i * 1.0;
    d.delivery_time = i * 1.0 + 0.5 + 0.1 * i;
    result.deliveries.push_back(d);
  }
  const auto by_flow = des::per_flow_latencies(result);
  ASSERT_EQ(by_flow.size(), 2u);
  EXPECT_EQ(by_flow.at(0).size(), 3u);
  const auto all = des::all_latencies(result);
  EXPECT_EQ(all.size(), 6u);
}

TEST(simulator, drains_to_horizon_even_with_no_events) {
  des::simulator sim;
  sim.run(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.events_processed(), 0u);
}

// --- core -------------------------------------------------------------------

TEST(metrics, bucket_boundary_packets_are_not_lost) {
  des::run_result result;
  // 40 deliveries per flow, send times straddling bucket edges exactly.
  for (int i = 0; i < 40; ++i) {
    des::delivery_record d;
    d.pid = static_cast<std::uint64_t>(i);
    d.flow_id = 1;
    d.send_time = i * 0.05;  // buckets of 0.5 -> edges at 0.5, 1.0, ...
    d.delivery_time = d.send_time + 1e-3;
    result.deliveries.push_back(d);
  }
  const auto buckets = core::bucketed_latencies(result, 0.5);
  std::size_t total = 0;
  for (const auto& [key, latencies] : buckets) total += latencies.size();
  EXPECT_EQ(total, 40u);
}

TEST(ptm_errors, predict_before_train_throws) {
  core::ptm_config cfg;
  cfg.time_steps = 4;
  core::ptm_model model{cfg};
  std::vector<double> windows(4 * core::feature_count, 0.0);
  nn::workspace ws;
  EXPECT_THROW((void)model.predict(windows, ws), std::logic_error);
}

TEST(ptm_errors, train_rejects_mismatched_time_steps) {
  core::ptm_config cfg;
  cfg.time_steps = 4;
  core::ptm_model model{cfg};
  core::ptm_dataset data;
  data.time_steps = 8;
  EXPECT_THROW((void)model.train(data), dqn::util::contract_violation);
}

TEST(pfm_errors, out_of_range_port_throws) {
  std::vector<traffic::packet_stream> ingress(2);
  traffic::packet p;
  ingress[0].push_back({p, 0.0});
  if (dqn::util::contracts_enabled) {
    EXPECT_THROW((void)core::apply_forwarding(
                     ingress, [](std::uint32_t, std::size_t) { return 5u; }, 2),
                 dqn::util::contract_violation);
  }
}

TEST(dlib, default_directory_honours_env) {
  ::setenv("DQN_MODEL_DIR", "/tmp/dqn_env_test_dir", 1);
  EXPECT_EQ(core::device_model_library::default_directory(),
            std::filesystem::path{"/tmp/dqn_env_test_dir"});
  ::unsetenv("DQN_MODEL_DIR");
  EXPECT_EQ(core::device_model_library::default_directory(),
            std::filesystem::path{"dqn_models"});
  std::filesystem::remove_all("/tmp/dqn_env_test_dir");
}

TEST(dlib, rejects_path_traversal_keys) {
  core::device_model_library lib{"/tmp/dqn_key_test"};
  EXPECT_THROW((void)lib.contains("../evil"), dqn::util::contract_violation);
  EXPECT_THROW((void)lib.contains(""), dqn::util::contract_violation);
  std::filesystem::remove_all("/tmp/dqn_key_test");
}

// --- stats ------------------------------------------------------------------

TEST(percentile, extremes_are_exact_order_statistics) {
  const std::vector<double> xs{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 1.0), 9.0);
}

TEST(ecdf, single_sample) {
  const std::vector<double> xs{2.0};
  const stats::ecdf f{xs};
  EXPECT_DOUBLE_EQ(f(1.9), 0.0);
  EXPECT_DOUBLE_EQ(f(2.0), 1.0);
}

// --- queueing ---------------------------------------------------------------

TEST(kron, identity_products) {
  const auto i2 = queueing::identity(2);
  const auto i3 = queueing::identity(3);
  const auto prod = queueing::kron(i2, i3);
  ASSERT_EQ(prod.rows(), 6u);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 6; ++c)
      EXPECT_DOUBLE_EQ(prod(r, c), r == c ? 1.0 : 0.0);
}

TEST(kron, matches_hand_computed_values) {
  nn::matrix a{2, 2, {1, 2, 3, 4}};
  nn::matrix b{2, 2, {0, 5, 6, 7}};
  const auto k = queueing::kron(a, b);
  EXPECT_DOUBLE_EQ(k(0, 1), 5.0);      // block (0,0) = a00*b: b01
  EXPECT_DOUBLE_EQ(k(1, 0), 6.0);      // block (0,0) = a00*b: b10
  EXPECT_DOUBLE_EQ(k(0, 3), 2.0 * 5);  // block (0,1) = a01*b: b01
  EXPECT_DOUBLE_EQ(k(2, 3), 4.0 * 5);  // block (1,1) = a11*b: b01
  EXPECT_DOUBLE_EQ(k(3, 3), 4.0 * 7);  // block (1,1) = a11*b: b11
}

TEST(superpose, scv_between_components) {
  // Superposing smooth + bursty lands between the two (for comparable rates).
  const auto smooth = queueing::map_process::chain2(0, 20, 20, 1.0);  // SCV 0.5
  const auto bursty = queueing::map_process::mmpp2(1, 1, 30, 2);       // SCV > 1
  const auto sum = queueing::map_process::superpose(smooth, bursty);
  EXPECT_GT(sum.iat_scv(), smooth.iat_scv());
  EXPECT_LT(sum.iat_scv(), bursty.iat_scv());
}

TEST(expm, inverse_property) {
  // expm(A) * expm(-A) = I.
  util::rng rng{5};
  nn::matrix a{3, 3};
  for (auto& v : a.data()) v = rng.normal(0, 0.5);
  nn::matrix neg = a;
  for (auto& v : neg.data()) v = -v;
  const auto prod = nn::matmul(queueing::expm(a), queueing::expm(neg));
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-10);
}

}  // namespace
