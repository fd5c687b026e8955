#include "core/dutil.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

#include "core/features.hpp"
#include "obs/scoped_timer.hpp"
#include "stats/wasserstein.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/packet_size.hpp"

namespace dqn::core {

namespace {

std::unique_ptr<traffic::arrival_process> random_arrivals(double rate,
                                                          util::rng& rng) {
  // §5.2: arrivals follow one of MAP, Poisson, or On-Off.
  switch (rng.uniform_int(3)) {
    case 0:
      return std::make_unique<traffic::poisson_arrivals>(rate);
    case 1: {
      const double p_on = 0.5 / (0.2 + 0.5);
      return std::make_unique<traffic::onoff_arrivals>(p_on / rate);
    }
    default: {
      const double burst = rng.uniform(2.0, 6.0);
      auto process = queueing::map_process::mmpp2(rate / 50.0, rate / 80.0,
                                                  rate * burst, rate / burst);
      process = process.scaled(rate / process.mean_rate());
      return std::make_unique<traffic::map_arrivals>(std::move(process), rng);
    }
  }
}

des::tm_config make_tm(const dutil_config& config, des::scheduler_kind kind,
                       std::size_t classes, util::rng& rng) {
  des::tm_config tm;
  tm.kind = kind;
  tm.classes = kind == des::scheduler_kind::fifo ? 1 : classes;
  if (kind == des::scheduler_kind::wrr || kind == des::scheduler_kind::drr ||
      kind == des::scheduler_kind::wfq) {
    tm.class_weights.resize(tm.classes);
    // §5.2: weights randomly selected from 1 to 9.
    for (auto& w : tm.class_weights)
      w = static_cast<double>(rng.uniform_int(1, 9));
  }
  (void)config;
  return tm;
}

}  // namespace

stream_sample generate_stream_sample(const dutil_config& config, util::rng& rng,
                                     const des::scheduler_kind* scheduler,
                                     const double* load_override) {
  DQN_ENSURE(config.ports > 0, "dutil: ports >= 1");
  stream_sample sample;
  sample.scheduler =
      scheduler != nullptr
          ? *scheduler
          : config.schedulers[rng.uniform_int(config.schedulers.size())];
  sample.load = load_override != nullptr
                    ? *load_override
                    : rng.uniform(config.load_lo, config.load_hi);

  const std::size_t classes =
      sample.scheduler == des::scheduler_kind::fifo ? 1 : config.classes;
  const des::tm_config tm = make_tm(config, sample.scheduler, classes, rng);

  // Random routing scheme (§5.2: 3,500 randomly generated routing schemes):
  // flows_per_port flows per ingress port, each mapped to a random egress.
  const std::size_t k = config.ports;
  const std::size_t flows = k * config.flows_per_port;
  std::vector<std::size_t> flow_out(flows);
  for (auto& out : flow_out) out = rng.uniform_int(k);
  auto forward = [&flow_out](std::uint32_t fid, std::size_t) {
    return flow_out[fid % flow_out.size()];
  };

  // Per-flow class assignment (priority 0..classes-1, §5.2: 1 to 3).
  std::vector<std::uint8_t> flow_class(flows);
  for (auto& c : flow_class)
    c = static_cast<std::uint8_t>(rng.uniform_int(classes));

  // Calibrate per-port rate to the load factor. Load is measured against
  // egress capacity; with uniform random forwarding the per-egress arrival
  // rate equals the per-ingress rate in expectation.
  traffic::trimodal_size sizes;
  const double capacity_pps = config.bandwidth_bps / (8.0 * sizes.mean_size());
  const double port_rate = sample.load * capacity_pps;
  const double flow_rate = port_rate / static_cast<double>(config.flows_per_port);
  const double horizon = static_cast<double>(config.packets_per_stream) /
                         (port_rate * static_cast<double>(k));

  std::vector<traffic::packet_stream> ingress(k);
  std::uint64_t next_pid = 0;
  for (std::size_t port = 0; port < k; ++port) {
    std::vector<traffic::packet_stream> flows_here;
    for (std::size_t f = 0; f < config.flows_per_port; ++f) {
      const auto fid = static_cast<std::uint32_t>(port * config.flows_per_port + f);
      auto arrivals = random_arrivals(flow_rate, rng);
      traffic::packet_stream stream;
      arrivals->reset(rng);
      double t = arrivals->next_interarrival(rng);
      while (t < horizon) {
        traffic::packet p;
        p.pid = next_pid++;
        p.flow_id = fid;
        p.size_bytes = sizes.next_size(rng);
        p.priority = flow_class[fid];
        p.protocol = rng.bernoulli(0.5) ? 6 : 17;
        stream.push_back({p, t});
        t += arrivals->next_interarrival(rng);
      }
      flows_here.push_back(std::move(stream));
    }
    ingress[port] = traffic::merge_streams(std::move(flows_here));
  }

  des::single_switch_config sw;
  sw.ports = k;
  sw.tm = tm;
  sw.bandwidth_bps = config.bandwidth_bps;
  auto result = des::run_single_switch(sw, ingress, forward, horizon);

  // Per egress queue: arrival-ordered series -> features, windows, targets.
  scheduler_context ctx;
  ctx.kind = tm.kind;
  ctx.class_weights = tm.class_weights;
  ctx.bandwidth_bps = config.bandwidth_bps;
  std::vector<std::vector<des::hop_record>> by_egress(k);
  for (const auto& hop : result.hops) by_egress[hop.out_port].push_back(hop);

  sample.data.time_steps = config.ptm.time_steps;
  for (auto& hops : by_egress) {
    if (hops.empty()) continue;
    std::sort(hops.begin(), hops.end(),
              [](const des::hop_record& a, const des::hop_record& b) {
                if (a.arrival != b.arrival) return a.arrival < b.arrival;
                return a.pid < b.pid;
              });
    traffic::packet_stream arrivals;
    arrivals.reserve(hops.size());
    for (const auto& h : hops) {
      traffic::packet p;
      p.pid = h.pid;
      p.flow_id = h.flow_id;
      p.size_bytes = h.size_bytes;
      p.protocol = h.protocol;
      p.priority = h.priority;
      p.weight = h.weight;
      arrivals.push_back({p, h.arrival});
    }
    const auto rows = compute_features(arrivals, ctx);
    auto windows = make_windows(rows, config.ptm.time_steps);
    sample.data.windows.insert(sample.data.windows.end(), windows.begin(),
                               windows.end());
    for (const auto& h : hops)
      sample.data.targets.push_back(h.departure - h.arrival);
  }
  return sample;
}

device_model_bundle train_device_model(
    const dutil_config& config,
    const std::function<void(std::size_t, double)>& on_epoch) {
  util::rng rng{config.seed};
  ptm_dataset train;
  ptm_dataset validation;
  train.time_steps = config.ptm.time_steps;
  validation.time_steps = config.ptm.time_steps;
  // §5.2: 80% of the stream samples train, 20% evaluate. Interleave the
  // split so both sets cover the full scheduler/load mix.
  {
    obs::scoped_timer corpus_timer{config.sink, "dutil", "corpus"};
    const std::size_t period = std::max<std::size_t>(
        2,
        static_cast<std::size_t>(std::lround(1.0 / config.validation_fraction)));
    for (std::size_t s = 0; s < config.streams; ++s) {
      auto sample = generate_stream_sample(config, rng);
      const bool is_validation = s % period == period - 1;
      (is_validation ? validation : train).append(sample.data);
    }
    corpus_timer.set_value(static_cast<double>(config.streams));
  }
  if (train.count() == 0)
    throw std::runtime_error{"train_device_model: no training data produced"};
  if (config.sink != nullptr) {
    config.sink->count("dutil.streams", static_cast<double>(config.streams));
    config.sink->count("dutil.train_windows", static_cast<double>(train.count()));
    config.sink->count("dutil.validation_windows",
                       static_cast<double>(validation.count()));
  }

  device_model_bundle bundle;
  ptm_config ptm_cfg = config.ptm;
  ptm_cfg.seed = util::derive_seed(config.seed, 0x97);
  if (ptm_cfg.sink == nullptr) ptm_cfg.sink = config.sink;
  bundle.model = ptm_model{ptm_cfg};
  {
    obs::scoped_timer train_timer{config.sink, "dutil", "train"};
    bundle.report = bundle.model.train(train, on_epoch);
  }
  if (validation.count() > 0) {
    obs::scoped_timer sec_timer{config.sink, "dutil", "sec_fit"};
    bundle.model.fit_sec(validation);
  }
  bundle.validation = std::move(validation);
  return bundle;
}

double evaluate_w1(const ptm_model& model, const ptm_dataset& data, bool apply_sec) {
  DQN_ENSURE(data.count() > 0, "evaluate_w1: empty dataset");
  nn::workspace ws;
  const auto predictions = model.predict(data.windows, ws, apply_sec);
  return stats::normalized_w1(predictions, data.targets);
}

}  // namespace dqn::core
