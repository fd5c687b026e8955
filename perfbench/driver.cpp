// The repository benchmark's measuring program. It drives the public
// estimator API from outside: it loads the network PTM through DLib, builds
// a scenario, constructs core::dqn_network, and times closed-loop
// estimations back to back; or it times core::train_device_model. Every
// result is checked (deliveries, fingerprints, DES parity) and printed as
// one JSON line; perfbench/run.py builds this program, runs it, and
// validates the line against BENCHMARK.json.
//
//   perfbench_driver prepare --model-dir D
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                        --model-dir D --out-dir O [--scale X]
//
// `prepare` trains (or finds) the network PTM in D, so no timed region
// trains. `run --trace 0` reports the end-to-end metrics; `run --trace 1`
// reports the per-layer table: engine_stats of the timed runs, a replay of
// one IRSA sweep that times each public stage of device_model::process, and
// the DUtil obs timers. No instrumentation is added to the program itself.
#include "bench/common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/delay_provider.hpp"
#include "core/device_model.hpp"
#include "core/features.hpp"
#include "core/pfm.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/mlp.hpp"
#include "nn/workspace.hpp"
#include "topo/sharding.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace dqn;

namespace {

using clock_type = std::chrono::steady_clock;
const clock_type::time_point process_start = clock_type::now();

double now_seconds() {
  return std::chrono::duration<double>(clock_type::now() - process_start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------
// Spans recorded around the calls this program makes into each layer. They
// are kept in memory and written once, as Chrome trace JSON, at exit.
// ---------------------------------------------------------------------------
class span_log {
 public:
  struct span {
    std::string name;
    double start = 0;
    double end = 0;
    std::size_t parent = 0;  // 1-based index of the enclosing span; 0 = root
  };

  std::size_t open(std::string name) {
    spans_.push_back({std::move(name), now_seconds(), 0, stack_.empty() ? 0 : stack_.back()});
    stack_.push_back(spans_.size());
    return spans_.size();
  }
  double close(std::size_t id) {
    span& s = spans_.at(id - 1);
    s.end = now_seconds();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    return s.end - s.start;
  }

  void write_chrome_trace(const std::filesystem::path& path) const {
    std::ofstream out{path};
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%zu}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                    (s.end - s.start) * 1e6, i + 1, s.parent);
      out << line;
    }
    out << "]}\n";
  }

 private:
  std::vector<span> spans_;
  std::vector<std::size_t> stack_;
};

span_log spans;

// Time one call, recording it as a span; returns the elapsed seconds.
template <typename Fn>
double timed(const char* name, Fn&& fn) {
  const std::size_t id = spans.open(name);
  fn();
  return spans.close(id);
}

// ---------------------------------------------------------------------------
// Result accumulation.
// ---------------------------------------------------------------------------
struct result_sheet {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  // One checked operation; a false `ok` counts it failed with `why`.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "[perfbench] FAILED: %s\n", why.c_str());
    }
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads. Each names a scenario and an estimator configuration; the
// traffic seed comes from the command line.
// ---------------------------------------------------------------------------
struct workload_spec {
  const char* name;
  bool training;  // the operation is train_device_model, not an estimation
  topo::topology (*build)(topo::link_params);
  double horizon;  // estimation scenario horizon, seconds
  des::delay_backend backend;
  bool irsa_skip;
  std::size_t workers;
};

constexpr workload_spec workloads[] = {
    {"ft16-ptm-4w", false, topo::make_fattree16, 0.15, des::delay_backend::ptm,
     false, 4},
    {"ft64-analytical-1w", false, topo::make_fattree64, 0.3,
     des::delay_backend::analytical, true, 1},
    {"ft64-tiered-4w", false, topo::make_fattree64, 0.3,
     des::delay_backend::tiered, true, 4},
    // The trained model is checked end to end on a short FatTree64 scenario
    // (large enough that its set-up is not a sub-millisecond measurement).
    {"ptm-train", true, topo::make_fattree64, 0.05, des::delay_backend::ptm,
     true, 1},
};

// DUtil size of the ptm-train workload (8-port switch at the bench link rate,
// MLP {96, 48}; 12-step windows like the network model). Its corpus comes
// from a fixed DUtil seed: the corpus size, and so the training work and
// memory, varies by about a fifth between DUtil seeds, which would swamp the
// spread of the measurement. The run's seed draws the traffic of the check
// scenario the trained model is run on.
constexpr std::uint64_t dutil_seed = 20220822;
constexpr std::size_t train_streams = 128;
constexpr std::size_t train_epochs = 8;
// The DUtil probe the inference workloads' traced runs time, so the
// training-layer rows exist on every workload.
constexpr std::size_t probe_streams = 16;
constexpr std::size_t probe_epochs = 2;
// Fresh DUtil streams the network model's precision (ptm_w1) is measured on.
constexpr std::size_t precision_streams = 64;
// Accuracy floor of the correctness check (normalized w1, Appendix C).
constexpr double max_w1_rtt = 0.05;
constexpr double max_ptm_w1 = 0.5;

struct options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  double scale = 1.0;
  std::filesystem::path model_dir;
  std::filesystem::path out_dir;
};

// ---------------------------------------------------------------------------
// Checks on an estimation's output.
// ---------------------------------------------------------------------------
std::uint64_t delivery_fingerprint(const des::run_result& result) {
  // FNV-1a over pid + raw delivery_time bits, in delivery order (the same
  // digest bench_table7_scalability prints).
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& d : result.deliveries) {
    mix(d.pid);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d.delivery_time, sizeof bits);
    mix(bits);
  }
  return hash;
}

// What the scenario injects: every packet sent at or before the horizon.
struct injection {
  std::vector<std::uint64_t> pids;  // sorted
  double packet_hops = 0;           // switch traversals along routed paths
};

injection injected(const bench::scenario& s) {
  injection inj;
  const auto hosts = s.topo().hosts();
  std::unordered_map<std::uint32_t, std::size_t> flow_switches;
  for (const auto& flow : s.flows) {
    const auto path = s.routes->flow_path(
        hosts.at(static_cast<std::size_t>(flow.src_host)),
        hosts.at(static_cast<std::size_t>(flow.dst_host)), flow.flow_id);
    flow_switches[flow.flow_id] = path.size() >= 2 ? path.size() - 2 : 0;
  }
  for (const auto& stream : s.streams)
    for (const auto& ev : stream) {
      if (ev.time > s.horizon) break;
      inj.pids.push_back(ev.pkt.pid);
      inj.packet_hops += static_cast<double>(flow_switches.at(ev.pkt.flow_id));
    }
  std::sort(inj.pids.begin(), inj.pids.end());
  return inj;
}

// Every injected packet delivered exactly once, at a finite time no earlier
// than its send time. Returns an empty string when the result passes.
std::string delivery_problem(const des::run_result& result, const injection& inj) {
  if (result.deliveries.size() != inj.pids.size())
    return "delivered " + std::to_string(result.deliveries.size()) + " of " +
           std::to_string(inj.pids.size()) + " injected packets";
  std::vector<std::uint64_t> pids;
  pids.reserve(result.deliveries.size());
  for (const auto& d : result.deliveries) {
    if (!std::isfinite(d.delivery_time) || !std::isfinite(d.send_time))
      return "non-finite delivery time for pid " + std::to_string(d.pid);
    if (d.delivery_time < d.send_time)
      return "pid " + std::to_string(d.pid) + " delivered before it was sent";
    pids.push_back(d.pid);
  }
  std::sort(pids.begin(), pids.end());
  if (pids != inj.pids) return "delivered pids differ from injected pids";
  return {};
}

// ---------------------------------------------------------------------------
// Set-up: DLib load -> topology -> routing + traffic -> estimator.
// ---------------------------------------------------------------------------
struct setup_times {
  double dlib = 0, topo = 0, traffic = 0, construct = 0;
  [[nodiscard]] double total() const { return dlib + topo + traffic + construct; }
};

struct estimation_state {
  std::shared_ptr<const core::ptm_model> ptm;
  bench::scenario scenario;
  std::unique_ptr<core::dqn_network> net;
};

core::engine_config engine_for(const workload_spec& spec, std::size_t workers) {
  core::engine_config cfg;
  cfg.partitions = workers;
  cfg.irsa_skip_unchanged = spec.irsa_skip;
  cfg.apply_sec = true;
  cfg.delay.backend = spec.backend;
  return cfg;
}

core::scheduler_context fifo_context() {
  core::scheduler_context ctx;
  ctx.bandwidth_bps = bench::bench_link_bps;
  return ctx;
}

// Which hosts talk to which (and so the routed load of every link) is fixed
// per workload by this seed; the run's seed draws only the packet arrivals
// and sizes, so every seed asks for the same amount of work.
constexpr std::uint64_t flow_seed = 1000;
constexpr double max_link_load = 0.5;

// The traffic of bench::make_scenario_load with the flow set drawn from
// flow_seed: Poisson flows whose rate puts max_link_load on the most loaded
// link. At seed == flow_seed the scenario is exactly make_scenario_load(...,
// flow_seed), the input of the Table-7 smoke.
void draw_traffic(bench::scenario& s, double horizon, std::uint64_t seed) {
  s.horizon = horizon;
  const topo::topology& topo = s.topo();
  const auto hosts = topo.hosts();
  util::rng rng{flow_seed};
  s.flows = traffic::make_uniform_flows(hosts.size(), 1, rng);
  std::vector<double> link_flows(topo.link_count(), 0.0);
  for (const auto& flow : s.flows) {
    const auto dst = hosts.at(static_cast<std::size_t>(flow.dst_host));
    const auto path = s.routes->flow_path(
        hosts.at(static_cast<std::size_t>(flow.src_host)), dst, flow.flow_id);
    for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
      const std::size_t port = s.routes->egress_port(path[hop], dst, flow.flow_id);
      link_flows[topo.peer_of(path[hop], port).link_index] += 1.0;
    }
  }
  double max_flows = 1.0;
  double min_bandwidth = topo.link_at(0).bandwidth_bps;
  for (std::size_t l = 0; l < link_flows.size(); ++l) {
    max_flows = std::max(max_flows, link_flows[l]);
    min_bandwidth = std::min(min_bandwidth, topo.link_at(l).bandwidth_bps);
  }
  if (seed != flow_seed) rng.reseed(seed);
  traffic::tg_util_config tg;
  tg.model = traffic::traffic_model::poisson;
  tg.per_flow_rate = max_link_load * min_bandwidth / max_flows /
                     (8.0 * bench::mean_packet_size(tg.model));
  tg.seed = seed;
  auto generators = traffic::make_generators(s.flows, tg);
  s.streams = traffic::per_host_streams(generators, hosts.size(), horizon, rng);
  for (const auto& gen : generators) s.flow_rates.push_back(gen.mean_rate());
}

template <typename LoadFn>
estimation_state set_up(const workload_spec& spec, const options& opt,
                        std::size_t workers, LoadFn&& load, setup_times& t) {
  estimation_state st;
  const std::size_t id = spans.open("setup");
  t.dlib = timed("dlib.load", [&] { st.ptm = load(); });
  t.topo = timed("topo.build", [&] {
    st.scenario.topo_ptr =
        std::make_unique<topo::topology>(spec.build(bench::bench_links()));
    st.scenario.routes = std::make_unique<topo::routing>(*st.scenario.topo_ptr);
  });
  t.traffic = timed("traffic.gen", [&] {
    draw_traffic(st.scenario, spec.horizon * opt.scale, opt.seed);
  });
  t.construct = timed("engine.construct", [&] {
    st.net = std::make_unique<core::dqn_network>(
        st.scenario.topo(), *st.scenario.routes, st.ptm, fifo_context(),
        engine_for(spec, workers));
  });
  spans.close(id);
  return st;
}

std::set<std::string> model_files(const std::filesystem::path& dir) {
  std::set<std::string> names;
  if (!std::filesystem::exists(dir)) return names;
  for (const auto& entry : std::filesystem::directory_iterator{dir})
    if (entry.is_regular_file() && entry.path().extension() == ".dqnmodel")
      names.insert(entry.path().stem().string());
  return names;
}

// ---------------------------------------------------------------------------
// DUtil configurations.
// ---------------------------------------------------------------------------
core::dutil_config train_config(std::size_t streams, std::size_t epochs) {
  auto cfg = bench::standard_dutil(8, 12, bench::bench_link_bps);
  cfg.streams = streams;
  cfg.packets_per_stream = 600;
  cfg.ptm.mlp_hidden = {96, 48};
  cfg.ptm.epochs = epochs;
  cfg.seed = dutil_seed;
  cfg.sink = nullptr;
  return cfg;
}

std::size_t scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::lround(
                             static_cast<double>(n) * scale)));
}

// Normalized w1 of the network model on fresh DUtil streams drawn from the
// workload seed (the Table-2 precision metric on unseen data).
double network_model_precision(const core::ptm_model& ptm, std::uint64_t seed,
                               double scale) {
  const auto cfg = bench::standard_dutil(8, 12, bench::bench_link_bps);
  util::rng rng{util::derive_seed(seed, 0x7e57)};
  core::ptm_dataset held_out;
  held_out.time_steps = cfg.ptm.time_steps;
  for (std::size_t i = 0; i < scaled(precision_streams, scale, 4); ++i)
    held_out.append(core::generate_stream_sample(cfg, rng).data);
  return core::evaluate_w1(ptm, held_out);
}

struct training_run {
  double wall = 0;
  double w1 = 0;
  core::device_model_bundle bundle;
};

training_run train_once(const core::dutil_config& cfg, obs::sink* sink) {
  training_run run;
  core::dutil_config c = cfg;
  c.sink = sink;
  run.wall = timed("dutil.train_device_model",
                   [&] { run.bundle = core::train_device_model(c); });
  run.w1 = core::evaluate_w1(run.bundle.model, run.bundle.validation);
  return run;
}

// The dutil.* obs timers of one sunk training (histogram sums).
void report_training_layers(const obs::sink& sink, result_sheet& sheet) {
  const auto& reg = sink.metrics();
  const auto hist_sum = [&](const char* name) {
    const auto h = reg.histogram(name);
    return h.mean() * static_cast<double>(h.count);
  };
  sheet.metric("dutil.corpus_s", hist_sum("dutil.corpus.seconds"), "s");
  sheet.metric("nn.train_s", hist_sum("dutil.train.seconds"), "s");
  sheet.metric("sec.fit_s", hist_sum("dutil.sec_fit.seconds"), "s");
  sheet.metric("nn.epoch_s", reg.histogram("ptm.epoch.seconds").mean(), "s");
  sheet.metric("dutil.train_windows", reg.counter("dutil.train_windows"), "count");
  sheet.metric("nn.epochs", reg.counter("ptm.epochs"), "count");
}

// ---------------------------------------------------------------------------
// Replay of one IRSA sweep. For every device the ingress is rebuilt from the
// engine's converged egress with core::apply_link; then one
// device_model::process call on the workload's backend and each public stage
// that call runs are timed on it, single-threaded. Each device is replayed
// replay_reps times, alternating whether process() or the stages go first,
// and every quantity keeps its per-device minimum, so a scheduling hiccup in
// one repetition does not leak into the stage accounting. Stages the
// backend does not run are not timed and read 0.
// ---------------------------------------------------------------------------
constexpr int replay_reps = 3;
// How far the replayed stages may sum above process() (a share of it).
constexpr double stage_sum_tolerance = 0.05;

struct replay_totals {
  double link = 0, pfm = 0, features = 0, analytical = 0, windows = 0,
         predict = 0, sec = 0, mlp = 0, tiered_first = 0, process = 0;
  double packets = 0, window_count = 0, mismatch_ports = 0;

  // The stages device_model::process runs.
  [[nodiscard]] double stage_sum() const {
    return pfm + features + analytical + windows + predict + sec + tiered_first;
  }
};

// The per-device timings of which each repetition keeps the minimum.
constexpr double replay_totals::*const repeated_timings[] = {
    &replay_totals::pfm,     &replay_totals::features, &replay_totals::analytical,
    &replay_totals::windows, &replay_totals::predict,  &replay_totals::sec,
    &replay_totals::mlp,     &replay_totals::tiered_first, &replay_totals::process};

bool streams_match(const traffic::packet_stream& a, const traffic::packet_stream& b,
                   double eps) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].pkt.pid != b[i].pkt.pid || std::abs(a[i].time - b[i].time) > eps)
      return false;
  return true;
}

replay_totals replay_sweep(const estimation_state& st, const workload_spec& spec,
                           nn::mlp& shadow) {
  const topo::topology& topology = st.scenario.topo();
  const topo::routing& routes = *st.scenario.routes;
  const core::ptm_model& ptm = *st.ptm;
  const std::size_t time_steps = ptm.config().time_steps;
  const core::scheduler_context ctx = fifo_context();
  const core::engine_config cfg = engine_for(spec, 1);
  const core::device_model device{st.ptm, ctx};
  const std::size_t slots = topology.node_count() + 1;

  // Providers keep per-device state (the tiered tier and its one-shot budget
  // check), so every repetition gets fresh ones: one for process() and one
  // for the stand-alone provider stage.
  std::vector<std::unique_ptr<core::delay_provider>> process_providers;
  std::vector<std::unique_ptr<core::delay_provider>> stage_providers;
  for (int rep = 0; rep < replay_reps; ++rep)
    for (auto* list : {&process_providers, &stage_providers}) {
      list->push_back(core::make_delay_provider(st.ptm, cfg.delay));
      list->back()->prepare(slots);
    }
  nn::workspace ws;
  nn::workspace shadow_ws;

  replay_totals total;
  using stopwatch = std::chrono::steady_clock;
  const auto since = [](stopwatch::time_point t0) {
    return std::chrono::duration<double>(stopwatch::now() - t0).count();
  };
  for (const topo::node_id node : topology.devices()) {
    const std::size_t ports = topology.port_count(node);
    std::vector<traffic::packet_stream> ingress(ports);
    std::vector<double> bandwidths(ports);
    const auto t_link = stopwatch::now();
    for (std::size_t p = 0; p < ports; ++p) {
      const auto peer = topology.peer_of(node, p);
      const auto& link = topology.link_at(peer.link_index);
      ingress[p] = core::apply_link(st.net->egress_stream(peer.node, peer.port),
                                    link.bandwidth_bps, link.propagation_delay);
    }
    total.link += since(t_link);
    for (std::size_t p = 0; p < ports; ++p)
      bandwidths[p] = topology.link_at(topology.at(node).links[p]).bandwidth_bps;
    std::unordered_map<std::uint32_t, topo::node_id> flow_dst;
    for (const auto& stream : ingress)
      for (const auto& ev : stream) flow_dst.emplace(ev.pkt.flow_id, ev.pkt.dst_host);
    const core::forward_fn forward = [&](std::uint32_t fid, std::size_t) {
      return routes.egress_port(node, flow_dst.at(fid), fid);
    };

    replay_totals best;
    for (int rep = 0; rep < replay_reps; ++rep) {
      replay_totals r;
      const auto run_process = [&] {
        const auto t = stopwatch::now();
        const auto egress = device.process(
            ingress, forward, cfg.apply_sec, nullptr, nullptr, bandwidths, nullptr,
            nullptr, &ws, process_providers[rep].get(),
            static_cast<std::int64_t>(node), 0);
        r.process = since(t);
        for (std::size_t p = 0; p < ports; ++p)
          if (!streams_match(egress[p], st.net->egress_stream(node, p),
                             cfg.convergence_epsilon))
            r.mismatch_ports += 1;
      };
      const auto run_stages = [&] {
        auto t = stopwatch::now();
        const auto queues = core::apply_forwarding(ingress, forward, ports);
        r.pfm += since(t);
        for (std::size_t out = 0; out < ports; ++out) {
          const auto& queue = queues[out];
          if (queue.empty()) continue;
          core::scheduler_context port_ctx = ctx;
          port_ctx.bandwidth_bps = bandwidths[out];
          t = stopwatch::now();
          const auto rows = core::compute_features(queue, port_ctx);
          r.features += since(t);
          r.packets += static_cast<double>(queue.size());

          // The device state device_model::process hands its provider.
          double busy = 0;
          for (const auto& ev : queue)
            busy += static_cast<double>(ev.pkt.size_bytes) * 8.0 / bandwidths[out];
          const double window_seconds = queue.back().time - queue.front().time;
          core::device_state state;
          state.device = node;
          state.port = out;
          state.arrivals = &queue;
          state.feature_rows = rows;
          state.ctx = &port_ctx;
          state.utilization =
              queue.size() < 2 ? 0.0 : busy / std::max(window_seconds, 1e-12);
          state.apply_sec = cfg.apply_sec;
          state.workspace = &ws;

          std::size_t answers = 0;
          if (spec.backend == des::delay_backend::ptm) {
            t = stopwatch::now();
            const auto windows = core::make_windows(rows, time_steps);
            r.windows += since(t);
            t = stopwatch::now();
            const auto raw = ptm.predict(windows, ws, /*apply_sec=*/false);
            r.predict += since(t);
            t = stopwatch::now();
            std::size_t corrected = 0;
            const auto& table = ptm.sec(ctx.kind);
            for (const double y : raw) corrected += std::isfinite(table.correct(y)) ? 1 : 0;
            r.sec += since(t);
            answers = std::min(raw.size(), corrected);
            r.window_count += static_cast<double>(raw.size());

            nn::matrix flat{queue.size(), time_steps * core::feature_count};
            std::copy(windows.begin(), windows.end(), flat.data().begin());
            shadow_ws.reset();
            t = stopwatch::now();
            const nn::matrix& shadow_out = shadow.forward(flat, shadow_ws);
            r.mlp += since(t);
            answers = std::min(answers, shadow_out.rows());
          } else {
            t = stopwatch::now();
            const auto sojourns =
                stage_providers[rep]->estimate_sojourn(state, window_seconds);
            (spec.backend == des::delay_backend::analytical ? r.analytical
                                                            : r.tiered_first) +=
                since(t);
            answers = sojourns.size();
          }
          // A stage that answers for fewer packets than it was given is a
          // replay mismatch too.
          if (answers != queue.size()) r.mismatch_ports += 1;
        }
      };
      if (rep % 2 == 0) {
        run_process();
        run_stages();
      } else {
        run_stages();
        run_process();
      }
      if (rep == 0) {
        best = r;
        continue;
      }
      for (const auto field : repeated_timings)
        best.*field = std::min(best.*field, r.*field);
      best.mismatch_ports = std::max(best.mismatch_ports, r.mismatch_ports);
    }
    for (const auto field : repeated_timings) total.*field += best.*field;
    total.packets += best.packets;
    total.window_count += best.window_count;
    total.mismatch_ports += best.mismatch_ports;
  }
  return total;
}

std::string read_cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(' '));
        return value;
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------
int run_workload(const workload_spec& spec, const options& opt) {
  result_sheet sheet;
  const bool trace = opt.trace != 0;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(spec.workers, hw);
  std::filesystem::create_directories(opt.out_dir);

  // The network PTM must already be cached: training inside a timed region
  // is a failure, detected as a change in the cache directory.
  const auto models_before = model_files(opt.model_dir);
  std::string model_key;
  for (const auto& name : models_before) model_key += (model_key.empty() ? "" : ",") + name;

  // ---- ptm-train: the operation is a DUtil training ----------------------
  std::vector<double> op_walls;
  double first_op = 0;
  double work_per_op = 0;
  std::vector<double> training_w1;
  std::unique_ptr<obs::sink> traced_training_sink;
  double untraced_op_median = 0, traced_op_median = 0;
  core::dutil_config tcfg = train_config(scaled(train_streams, opt.scale, 8),
                                         scaled(train_epochs, opt.scale, 1));
  const std::filesystem::path train_dir = opt.model_dir / "trained";
  const std::string train_key = "perfbench_train";
  if (spec.training) {
    // First training carries a sink so its deterministic window count is
    // known; the steady-state trainings run without one.
    obs::sink counting;
    const auto first = train_once(tcfg, &counting);
    first_op = first.wall;
    training_w1.push_back(first.w1);
    work_per_op = counting.metrics().counter("dutil.train_windows") *
                  static_cast<double>(tcfg.ptm.epochs);
    const core::device_model_library lib{train_dir};
    lib.store(train_key, first.bundle.model);
    sheet.check(std::isfinite(first.w1) && first.w1 > 0,
                "training w1 is not a positive finite number");
  }

  // ---- set-up, repeated; the last state is kept -------------------------
  const auto load_model = [&]() -> std::shared_ptr<const core::ptm_model> {
    if (spec.training) {
      const core::device_model_library lib{train_dir};
      return std::make_shared<const core::ptm_model>(lib.fetch(train_key));
    }
    return bench::network_model();
  };
  // Set-up takes milliseconds while the host's speed drifts over a run, so
  // set-ups are sampled across the whole run: a burst before the first
  // operation and a short one after every steady-state operation, each
  // discarding the state it built. setup_s is their median.
  std::vector<setup_times> setups;
  const auto setup_burst = [&](double seconds, std::size_t min_reps) {
    const double start = now_seconds();
    for (std::size_t rep = 0; rep < min_reps || now_seconds() - start < seconds; ++rep) {
      setup_times t;
      (void)set_up(spec, opt, workers, load_model, t);
      setups.push_back(t);
    }
  };
  setup_burst(0.25, 5);
  setup_times first_setup;
  estimation_state st = set_up(spec, opt, workers, load_model, first_setup);
  setups.push_back(first_setup);
  const injection inj = injected(st.scenario);
  sheet.check(!inj.pids.empty(), "scenario injects no packets");

  // ---- operations ---------------------------------------------------------
  std::vector<core::engine_stats> run_stats;
  des::run_result reference;
  std::uint64_t fingerprint = 0;
  const auto estimate = [&](obs::sink* sink, double* wall) {
    des::run_request request;
    request.host_streams = &st.scenario.streams;
    request.horizon = st.scenario.horizon;
    request.sink = sink;
    des::run_result result;
    *wall = timed("estimate", [&] { result = st.net->run(request); });
    return result;
  };
  const auto check_estimation = [&](const des::run_result& result) {
    const std::string problem = delivery_problem(result, inj);
    const std::uint64_t fp = delivery_fingerprint(result);
    if (fingerprint == 0) fingerprint = fp;
    sheet.check(problem.empty() && fp == fingerprint,
                problem.empty() ? "delivery fingerprint changed between repetitions"
                                : problem);
  };

  // The first estimation of a freshly constructed engine (cold pool and
  // workspaces), on the last three set-ups' engines; the median is reported.
  if (!spec.training) {
    std::vector<double> first_walls;
    for (int i = 0; i < 3; ++i) {
      setup_times t;
      st = {};
      st = set_up(spec, opt, workers, load_model, t);
      setups.push_back(t);
      double wall = 0;
      reference = estimate(nullptr, &wall);
      first_walls.push_back(wall);
      check_estimation(reference);
    }
    first_op = median(first_walls);
    work_per_op = inj.packet_hops;
  }
  if (!spec.training)
    sheet.check(!models_before.empty() && model_files(opt.model_dir) == models_before,
                "network model missing from the cache or trained during set-up");

  // Steady state: closed loop, one operation after another, for the run's
  // measuring time (at least three estimations or two trainings). A traced
  // run splits the time between untraced and sunk operations.
  const double measure = trace ? opt.seconds / 2 : opt.seconds;
  const std::size_t min_ops = spec.training ? 2 : 3;
  const auto steady = [&](obs::sink* sink, std::vector<double>& walls) {
    const double start = now_seconds();
    while (walls.size() < min_ops || now_seconds() - start < measure) {
      if (spec.training) {
        const auto run = train_once(tcfg, sink);
        walls.push_back(run.wall);
        training_w1.push_back(run.w1);
      } else {
        double wall = 0;
        const auto result = estimate(sink, &wall);
        walls.push_back(wall);
        run_stats.push_back(st.net->stats());
        check_estimation(result);
      }
      setup_burst(0.1, 1);
    }
  };
  steady(nullptr, op_walls);
  untraced_op_median = median(op_walls);
  const double rss = peak_rss_mb();
  std::vector<double> traced_walls;
  obs::sink program_sink;
  if (trace) {
    if (spec.training) {
      traced_training_sink = std::make_unique<obs::sink>();
      const auto run = train_once(tcfg, traced_training_sink.get());
      traced_walls.push_back(run.wall);
      training_w1.push_back(run.w1);
    } else {
      steady(&program_sink, traced_walls);
    }
    traced_op_median = median(traced_walls);
  }
  for (const double w1 : training_w1)
    sheet.check(w1 == training_w1.front(),
                "training is not deterministic: w1 differs between repetitions");

  // ---- the estimation the accuracy and reference checks run on ----------
  if (spec.training) {
    double wall = 0;
    reference = estimate(nullptr, &wall);
    check_estimation(reference);
    run_stats.push_back(st.net->stats());
  }
  if (workers > 1) {
    des::run_request request;
    request.host_streams = &st.scenario.streams;
    request.horizon = st.scenario.horizon;
    request.threads = 1;
    des::run_result single;
    timed("estimate.one_worker", [&] { single = st.net->run(request); });
    sheet.check(delivery_fingerprint(single) == fingerprint,
                "deliveries differ between " + std::to_string(workers) +
                    " workers and 1 worker");
  }
  des::network_config des_cfg;
  des_cfg.record_hops = false;
  des::network oracle{st.scenario.topo(), *st.scenario.routes, des_cfg};
  des::run_result truth;
  const double des_wall = timed("des.run", [&] {
    truth = oracle.run(st.scenario.streams, st.scenario.horizon);
  });
  sheet.check(truth.deliveries.size() == reference.deliveries.size(),
              "DQN delivered " + std::to_string(reference.deliveries.size()) +
                  " packets, the DES " + std::to_string(truth.deliveries.size()));
  const auto cmp = core::compare_runs(truth, reference, st.scenario.horizon / 8.0, 6);
  double ptm_w1 = training_w1.empty() ? 0.0 : training_w1.front();
  if (!spec.training)
    timed("ptm.precision",
          [&] { ptm_w1 = network_model_precision(*st.ptm, opt.seed, opt.scale); });
  // Accuracy floor: an estimate this far from the DES, or a PTM this far from
  // its labels, is wrong, not merely less accurate.
  sheet.check(cmp.w1_avg_rtt <= max_w1_rtt && cmp.w1_p99_rtt <= max_w1_rtt,
              "end-to-end latency w1 against the DES above " + std::to_string(max_w1_rtt));
  sheet.check(ptm_w1 <= max_ptm_w1, "PTM w1 on held-out windows above " +
                                        std::to_string(max_ptm_w1));

  // ---- end-to-end metrics -------------------------------------------------
  if (!trace) {
    std::vector<double> setup_totals;
    for (const auto& t : setups) setup_totals.push_back(t.total());
    sheet.metric("setup_s", median(setup_totals), "s");
    sheet.metric("first_op_s", first_op, "s");
    sheet.metric("op_wall_s", untraced_op_median, "s");
    sheet.metric("work_per_s", work_per_op / untraced_op_median, "1/s");
    sheet.metric("peak_rss_mb", rss, "MB");
  } else {
    // ---- per-layer metrics ------------------------------------------------
    const auto setup_median = [&](double setup_times::*field) {
      std::vector<double> v;
      for (const auto& t : setups) v.push_back(t.*field);
      return median(v);
    };
    sheet.metric("dlib.load_s", setup_median(&setup_times::dlib), "s");
    sheet.metric("topo.build_s", setup_median(&setup_times::topo), "s");
    sheet.metric("traffic.gen_s", setup_median(&setup_times::traffic), "s");
    sheet.metric("engine.construct_s", setup_median(&setup_times::construct), "s");
    std::vector<double> shard_walls;
    const auto devices = st.scenario.topo().devices();
    for (int i = 0; i < 5; ++i)
      shard_walls.push_back(timed("topo.shard", [&] {
        const auto plan = topo::shard_devices(st.scenario.topo(), devices, workers,
                                              topo::shard_strategy::topology);
        if (plan.shards.empty()) throw std::logic_error{"empty shard plan"};
      }));
    sheet.metric("topo.shard_s", median(shard_walls), "s");

    const auto stat_median = [&](auto field) {
      std::vector<double> v;
      for (const auto& s : run_stats) v.push_back(field(s));
      return median(v);
    };
    const double wall = stat_median([](const core::engine_stats& s) { return s.wall_seconds; });
    const double busy = stat_median([](const core::engine_stats& s) { return s.busy_seconds; });
    const double critical =
        stat_median([](const core::engine_stats& s) { return s.critical_path_seconds; });
    sheet.metric("engine.critical_path_s", critical, "s");
    sheet.metric("engine.busy_s", busy, "s");
    sheet.metric("engine.parallel_eff",
                 busy / (static_cast<double>(workers) * std::max(wall, 1e-12)), "ratio");
    sheet.metric("engine.serial_s",
                 stat_median([](const core::engine_stats& s) {
                   return s.wall_seconds - s.critical_path_seconds;
                 }),
                 "s");
    sheet.metric("engine.shard_imbalance",
                 stat_median([](const core::engine_stats& s) { return s.shard_imbalance; }),
                 "ratio");
    sheet.metric("engine.steals",
                 stat_median([](const core::engine_stats& s) {
                   return static_cast<double>(s.steals);
                 }),
                 "count");
    const core::engine_stats& last = run_stats.back();
    sheet.metric("engine.cross_shard_links", static_cast<double>(last.cross_shard_links),
                 "count");
    sheet.metric("engine.iterations", static_cast<double>(last.iterations), "count");
    sheet.metric("engine.device_inferences", static_cast<double>(last.device_inferences),
                 "count");
    // Share of device steps the IRSA skip saved (0 when the skip is off).
    sheet.metric("engine.skip_ratio",
                 static_cast<double>(last.devices_skipped) /
                     static_cast<double>(std::max<std::size_t>(
                         1, last.device_inferences + last.devices_skipped)),
                 "ratio");

    // Replay of one sweep, with a shadow MLP of the PTM's layer dims.
    const auto& ptm_cfg = st.ptm->config();
    std::vector<std::size_t> dims{ptm_cfg.time_steps * core::feature_count};
    for (const std::size_t h : ptm_cfg.mlp_hidden) dims.push_back(h);
    dims.push_back(1);
    util::rng shadow_rng{util::derive_seed(opt.seed, 0x5adu)};
    nn::mlp shadow{dims, nn::activation::tanh, shadow_rng};
    replay_totals replay;
    timed("replay.sweep", [&] { replay = replay_sweep(st, spec, shadow); });
    // The residual is process() minus the stages it runs. On the PTM and
    // tiered backends it is a few percent of process, the size of the timing
    // noise, so the raw difference may dip below zero: up to
    // stage_sum_tolerance of process that is noise and reads as 0, beyond it
    // the stage timings do not add up and the run fails.
    const double raw_residual = replay.process - replay.stage_sum();
    const double residual = std::max(0.0, raw_residual);
    sheet.metric("core.link.apply_s", replay.link, "s");
    sheet.metric("core.pfm.forward_s", replay.pfm, "s");
    sheet.metric("core.features.compute_s", replay.features, "s");
    sheet.metric("core.delay.analytical_s", replay.analytical, "s");
    sheet.metric("core.windows.make_s", replay.windows, "s");
    sheet.metric("core.ptm.predict_s", replay.predict, "s");
    sheet.metric("core.sec.correct_s", replay.sec, "s");
    sheet.metric("nn.mlp_forward_s", replay.mlp, "s");
    sheet.metric("core.ptm.frontend_s", replay.predict - replay.mlp, "s");
    sheet.metric("core.delay.tiered_first_s", replay.tiered_first, "s");
    sheet.metric("core.device.process_s", replay.process, "s");
    sheet.metric("core.device.residual_s", residual, "s");
    sheet.metric("core.replay.packets", replay.packets, "count");
    sheet.metric("core.replay.windows", replay.window_count, "count");
    const double mismatches = replay.mismatch_ports;
    sheet.metric("core.replay.mismatch_ports", mismatches, "count");
    sheet.check(mismatches == 0, "replayed process() differs from the engine's egress on " +
                                     std::to_string(static_cast<long long>(mismatches)) +
                                     " ports");
    sheet.check(raw_residual >= -stage_sum_tolerance * replay.process,
                "replayed stages sum to more than process() plus the tolerance");

    sheet.metric("des.run_s", des_wall, "s");
    sheet.metric("w1_avg_rtt", cmp.w1_avg_rtt, "ratio");
    sheet.metric("w1_p99_rtt", cmp.w1_p99_rtt, "ratio");
    sheet.metric("w1_p99_jitter", cmp.w1_p99_jitter, "ratio");
    sheet.metric("ptm_w1", ptm_w1, "ratio");
    if (spec.training) {
      report_training_layers(*traced_training_sink, sheet);
    } else {
      obs::sink probe_sink;
      const auto probe = train_once(
          train_config(scaled(probe_streams, opt.scale, 8), probe_epochs),
          &probe_sink);
      sheet.check(std::isfinite(probe.w1), "DUtil probe produced a non-finite w1");
      report_training_layers(probe_sink, sheet);
    }
    sheet.metric("trace.overhead_frac", traced_op_median / untraced_op_median - 1.0,
                 "ratio");
    std::ofstream{opt.out_dir / (std::string{spec.name} + ".program_trace.json")}
        << (spec.training ? traced_training_sink->to_chrome_trace()
                          : program_sink.to_chrome_trace());
  }
  spans.write_chrome_trace(opt.out_dir / (std::string{spec.name} + ".spans.json"));

  // ---- output -------------------------------------------------------------
  std::string walls_json;
  for (const double w : op_walls) walls_json += (walls_json.empty() ? "" : ",") + json_number(w);
  std::printf(
      "{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"nproc\":%zu,"
      "\"workers\":%zu,\"cpu_model\":\"%s\",\"kernel_backend\":\"%s\","
      "\"build_type\":\"%s\",\"model_key\":\"%s\",\"packets\":%zu,"
      "\"fingerprint\":\"%016llx\",\"op_walls\":[%s]}}\n",
      spec.name, static_cast<unsigned long long>(opt.seed), opt.trace, hw, workers,
      json_escape(read_cpu_model()).c_str(),
      nn::kernels::to_string(nn::kernels::active_backend()), PERFBENCH_BUILD_TYPE,
      json_escape(model_key).c_str(), inj.pids.size(),
      static_cast<unsigned long long>(fingerprint), walls_json.c_str());
  std::string out = "{\"correct\":";
  out += sheet.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(sheet.attempted);
  out += ",\"failed\":" + std::to_string(sheet.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < sheet.metrics.size(); ++i) {
    const auto& [name, value] = sheet.metrics[i];
    out += (i == 0 ? "\"" : ",\"") + name + "\":{\"value\":" + json_number(value.first) +
           ",\"unit\":\"" + value.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

options parse(int argc, char** argv) {
  options opt;
  if (argc < 2) throw std::invalid_argument{"usage: perfbench_driver prepare|run ..."};
  opt.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = std::stoi(value);
    else if (key == "--scale") opt.scale = std::stod(value);
    else if (key == "--model-dir") opt.model_dir = value;
    else if (key == "--out-dir") opt.out_dir = value;
    else throw std::invalid_argument{"unknown option " + key};
  }
  if (opt.model_dir.empty()) throw std::invalid_argument{"--model-dir is required"};
  if (!(opt.seconds > 0) || !(opt.scale > 0))
    throw std::invalid_argument{"--seconds and --scale must be positive"};
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const options opt = parse(argc, argv);
    // The benchmark owns its model cache and runs the bench helpers at their
    // defaults, whatever the caller's environment says.
    ::setenv("DQN_MODEL_DIR", opt.model_dir.c_str(), 1);
    for (const char* var : {"DQN_BENCH_SCALE", "DQN_PTM_ARCH", "DQN_BENCH_JSON"})
      ::unsetenv(var);
    if (opt.mode == "prepare") {
      (void)bench::network_model();
      for (const auto& name : model_files(opt.model_dir))
        std::printf("[perfbench] network model %s\n", name.c_str());
      return 0;
    }
    if (opt.mode != "run") throw std::invalid_argument{"unknown mode " + opt.mode};
    if (opt.out_dir.empty()) throw std::invalid_argument{"--out-dir is required"};
    for (const auto& spec : workloads)
      if (opt.workload == spec.name) return run_workload(spec, opt);
    throw std::invalid_argument{"unknown workload '" + opt.workload + "'"};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
