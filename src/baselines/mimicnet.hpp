// MimicNet-style cluster mimic (Zhang et al., SIGCOMM 2021), the paper's
// FatTree-only comparison target (Tables 5 and 7).
//
// MimicNet's idea: DES-simulate one observable cluster of a datacenter
// fat-tree to collect accurate per-packet behaviour, train "mimics" of the
// cluster- and core-traversal delays, then compose mimics into arbitrary
// scale fat-trees. We reproduce that pipeline: per-segment delay models
// (up-path: host->core, core hop, down-path: core->host) are trained from
// DES hop records of a reference fat-tree, and full-network inference
// composes the three segment predictions per packet. Its character matches
// the paper's findings: excellent RTT accuracy on fat-trees at any scale,
// weaker jitter fidelity (the mimic smooths queueing noise), fast inference,
// and no applicability beyond the fat-tree family.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "des/records.hpp"
#include "des/run_api.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "topo/graph.hpp"
#include "topo/routing.hpp"
#include "traffic/packet.hpp"

namespace dqn::baselines {

class mimicnet_estimator : public des::estimator {
 public:
  mimicnet_estimator() = default;

  // Train the segment mimics from a reference fat-tree DES run. Hop records
  // must be enabled in the run. `topo`/`routes` describe the reference
  // network; segments are identified from each packet's hop sequence.
  void train(const topo::topology& topo, const des::run_result& reference,
             std::size_t epochs = 60, std::uint64_t seed = 23);

  // Predict delivery times for the given host streams on a (possibly
  // larger) fat-tree: per packet, compose predicted segment delays along the
  // routed path. Returns a run_result comparable with DES.
  [[nodiscard]] des::run_result predict(
      const topo::topology& topo, const topo::routing& routes,
      const std::vector<traffic::packet_stream>& host_streams, double horizon) const;

  [[nodiscard]] bool trained() const noexcept { return trained_; }

  // Unified run API: bind the (possibly larger) target fat-tree once, then
  // run() forwards to predict(). `topo`/`routes` must outlive the estimator.
  void set_target(const topo::topology& topo, const topo::routing& routes);

  // Throws std::logic_error when untrained or no target is bound.
  [[nodiscard]] des::run_result run(const des::run_request& request) override;
  [[nodiscard]] const char* estimator_name() const noexcept override {
    return "mimicnet";
  }

 private:
  // Segment feature vector: [packet len, source-rate EMA, hops in segment].
  static constexpr std::size_t feature_width_ = 3;

  struct segment_model {
    nn::mlp net;
    nn::min_max_scaler features;
    nn::target_scaler target;
  };

  void train_segment(segment_model& model,
                     const std::vector<std::array<double, feature_width_>>& x,
                     const std::vector<double>& y, std::size_t epochs,
                     std::uint64_t seed);
  // One packet's segment delay; runs out of `ws` (reset on entry).
  [[nodiscard]] double predict_segment(const segment_model& model,
                                       std::array<double, feature_width_> x,
                                       nn::workspace& ws) const;

  segment_model up_;    // host -> top of its pod (ToR + Agg queueing)
  segment_model core_;  // core layer traversal
  segment_model down_;  // pod top -> destination host
  bool trained_ = false;
  const topo::topology* target_topo_ = nullptr;
  const topo::routing* target_routes_ = nullptr;
};

}  // namespace dqn::baselines
