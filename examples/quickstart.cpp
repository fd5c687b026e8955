// Quickstart: the full DeepQueueNet workflow in ~60 lines of user code.
//
//   1. obtain a trained device model (DUtil trains one; DLib caches it),
//   2. describe a topology (here: a 4-switch line) and traffic,
//   3. compose the DeepQueueNet model and run it (SInit + SRun with IRSA),
//   4. compare against the packet-level DES oracle,
//   5. use packet-level visibility: inspect any device's egress trace.
//
// Run with `--json` for the profiled variant instead: a self-contained tiny
// pipeline (DUtil training + engine run + DES oracle) instrumented through
// one obs::sink, emitting the full registry snapshot as JSON on stdout —
// per-epoch PTM training loss, per-IRSA-iteration timings, DES counters.
// Two more profiling flags compose with it (each implies the profiled
// pipeline): `--chrome-trace <path>` writes the run's span timeline as
// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev),
// and `--journeys N` samples every packet's per-hop journey and prints the
// first N of them.
// Malformed numbers (`80x`, `abc`, a port above 65535) print the usage line
// and exit 2.
//
// Estimator selection (des/estimator_factory.hpp):
//   --estimator NAME       run the prediction through "des", "deepqueuenet",
//                          or "fluid" instead of the default engine;
//   --delay-backend NAME   sojourn backend for DeepQueueNet runs: "ptm"
//                          (default), "analytical", or "tiered"
//                          (core/delay_provider.hpp).
//
// Live telemetry (obs/telemetry/):
//   --metrics-port P       start the sink's background sampler and serve
//                          /metrics, /snapshot, /series, /runs, /healthz on
//                          127.0.0.1:P, P a decimal in [0, 65535] (0 =
//                          pick an ephemeral port; the bound one is
//                          printed to stderr);
//   --serve-hold           after the workflow finishes, keep serving until
//                          SIGTERM/SIGINT, then shut down cleanly (exit 0);
//   --strict-obs           after the run, fail (exit 3) if observability
//                          reported data loss (dropped trace events).
//
// The tiered-vs-PTM, telemetry-overhead and worker-scaling checks live in
// bench_table7_scalability (--tiered-smoke, --telemetry-smoke, --threads).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "des/estimator_factory.hpp"
#include "des/run_api.hpp"
#include "examples/example_util.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry/telemetry.hpp"

using namespace dqn;

namespace {

struct profile_options {
  bool json = false;
  std::string chrome_trace;    // output path; empty = off
  std::size_t journeys = 0;    // print the first N traced journeys
  [[nodiscard]] bool any() const {
    return json || !chrome_trace.empty() || journeys > 0;
  }
};

struct estimator_options {
  std::string estimator = "deepqueuenet";
  std::string delay_backend;  // empty = the engine default (ptm)
};

struct telemetry_options {
  int metrics_port = -1;  // -1 = no telemetry plane
  bool serve_hold = false;
  bool strict_obs = false;
};

std::sig_atomic_t volatile g_shutdown_requested = 0;

extern "C" void quickstart_handle_signal(int) { g_shutdown_requested = 1; }

// Start the live telemetry plane on `sink` per --metrics-port and report
// where it serves. Returns the plane (owned by the sink) or nullptr.
obs::telemetry::telemetry_plane* start_telemetry(
    obs::sink& sink, const telemetry_options& options) {
  // Install the shutdown handlers up front, not when hold_and_serve() is
  // reached: a supervisor may SIGTERM while the demo pipeline is still
  // running, and that must still be the clean exit path (hold_and_serve
  // sees the flag already set and returns immediately).
  if (options.serve_hold) {
    std::signal(SIGTERM, quickstart_handle_signal);
    std::signal(SIGINT, quickstart_handle_signal);
  }
  if (options.metrics_port < 0) return nullptr;
  const obs::telemetry::telemetry_config config{
      .enabled = true, .metrics_port = options.metrics_port};
  auto* plane = sink.start_telemetry(config);
  if (plane != nullptr && plane->metrics_port() >= 0)
    std::fprintf(stderr,
                 "[telemetry] serving http://127.0.0.1:%d/ "
                 "(/metrics /snapshot /series /runs /healthz)\n",
                 plane->metrics_port());
  return plane;
}

// --serve-hold: block until SIGTERM/SIGINT, then stop the plane. The clean
// exit path is asserted by CI's telemetry smoke (kill -TERM; wait; rc == 0).
void hold_and_serve(obs::sink& sink) {
  std::fprintf(stderr, "[telemetry] holding; send SIGTERM to exit\n");
  while (g_shutdown_requested == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
  std::fprintf(stderr, "[telemetry] shutdown requested; stopping plane\n");
  sink.stop_telemetry();
}

// --strict-obs: non-zero exit when the summary carries a data-loss WARNING
// footer (dropped trace events).
int strict_obs_verdict(const obs::sink& sink) {
  const auto table = sink.summary_table();
  if (table.footer().empty()) return 0;
  for (const auto& line : table.footer())
    std::fprintf(stderr, "[strict-obs] %s\n", line.c_str());
  return 3;
}

// A decimal number with no sign and no trailing characters, at most `max`.
std::optional<unsigned long long> parse_decimal(const char* text,
                                                unsigned long long max) {
  if (*text < '0' || *text > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value > max) return std::nullopt;
  return value;
}

int usage() {
  std::fprintf(stderr,
               "usage: quickstart [--json] [--chrome-trace <path>] "
               "[--journeys N] [--estimator des|deepqueuenet|fluid] "
               "[--delay-backend ptm|analytical|tiered] "
               "[--metrics-port P] [--serve-hold] [--strict-obs]\n");
  return 2;
}

bool parse_backend(std::string_view name, des::delay_backend* out) {
  if (name == "ptm") *out = des::delay_backend::ptm;
  else if (name == "analytical") *out = des::delay_backend::analytical;
  else if (name == "tiered") *out = des::delay_backend::tiered;
  else return false;
  return true;
}

// The profile mode (--json / --chrome-trace / --journeys). Deliberately
// trains a fresh tiny device model (no DLib cache) so the ptm.* per-epoch
// metrics are always present in the snapshot, then profiles a DeepQueueNet
// run and the DES oracle on the same scenario through the same sink. Only
// the requested documents go to stdout.
int run_profiled(const profile_options& options) {
  obs::sink sink;
  if (options.journeys > 0) sink.journeys().configure(/*sample_rate=*/1.0);

  core::dutil_config dutil_cfg;
  dutil_cfg.ports = 4;
  dutil_cfg.bandwidth_bps = examples::link_bps;
  dutil_cfg.streams = 30;
  dutil_cfg.packets_per_stream = 200;
  dutil_cfg.ptm.time_steps = 8;
  dutil_cfg.ptm.mlp_hidden = {24, 12};
  dutil_cfg.ptm.epochs = 8;
  dutil_cfg.seed = 7;
  dutil_cfg.sink = &sink;
  std::fprintf(stderr, "[profile] training a tiny device model...\n");
  auto bundle = core::train_device_model(dutil_cfg);
  auto ptm = std::make_shared<const core::ptm_model>(std::move(bundle.model));

  const auto topo = topo::make_line(3, examples::links());
  const topo::routing routes{topo};
  const double horizon = 0.02;
  const auto traffic_setup = examples::make_traffic_load(
      topo, routes, traffic::traffic_model::poisson, /*max link load=*/0.4,
      horizon, 7);

  des::run_request request;
  request.host_streams = &traffic_setup.streams;
  request.horizon = horizon;
  request.sink = &sink;

  std::fprintf(stderr, "[profile] running DeepQueueNet inference...\n");
  des::estimator_context context;
  context.topo = &topo;
  context.routes = &routes;
  context.ptm = ptm;
  context.engine.partitions = 2;
  context.engine.sink = &sink;
  context.des.sink = &sink;
  const auto net = des::make_estimator("deepqueuenet", context);
  (void)net->run(request);

  std::fprintf(stderr, "[profile] running the DES oracle...\n");
  const auto oracle = des::make_estimator("des", context);
  (void)oracle->run(request);

  if (options.json) {
    const std::string doc = sink.to_json();
    std::printf("%s\n", doc.c_str());
    if (!obs::json_is_valid(doc)) {
      std::fprintf(stderr, "[profile] snapshot failed JSON validation\n");
      return 1;
    }
  }
  if (!options.chrome_trace.empty()) {
    const std::string trace = sink.to_chrome_trace();
    if (!obs::json_is_valid(trace)) {
      std::fprintf(stderr, "[profile] chrome trace failed JSON validation\n");
      return 1;
    }
    std::ofstream out{options.chrome_trace};
    if (!out) {
      std::fprintf(stderr, "[profile] cannot open %s for writing\n",
                   options.chrome_trace.c_str());
      return 1;
    }
    out << trace;
    std::fprintf(stderr,
                 "[profile] wrote %zu spans to %s (open in chrome://tracing "
                 "or ui.perfetto.dev)\n",
                 sink.trace().size(), options.chrome_trace.c_str());
  }
  if (options.journeys > 0) {
    const auto journeys = sink.journeys().journeys();
    std::printf("journeys traced: %zu (showing up to %zu)\n", journeys.size(),
                options.journeys);
    std::size_t shown = 0;
    for (const auto& journey : journeys) {
      if (shown++ >= options.journeys) break;
      std::printf("  pid %llu flow %llu send %.6fs deliver %.6fs\n",
                  static_cast<unsigned long long>(journey.pid),
                  static_cast<unsigned long long>(journey.flow),
                  journey.send_time, journey.delivery_time);
      for (const auto& hop : journey.hops)
        std::printf("    device %lld q%llu arrive %.6fs raw +%.2gs "
                    "corrected +%.2gs depart %.6fs\n",
                    static_cast<long long>(hop.device),
                    static_cast<unsigned long long>(hop.queue), hop.arrival,
                    hop.raw_delay, hop.corrected_delay, hop.departure);
    }
  }
  std::fprintf(stderr, "[profile] %zu trace events captured\n",
               sink.trace().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  profile_options options;
  estimator_options est_options;
  telemetry_options tele_options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      options.chrome_trace = argv[++i];
    } else if (arg == "--journeys" && i + 1 < argc) {
      const auto journeys = parse_decimal(argv[++i], SIZE_MAX);
      if (!journeys) return usage();
      options.journeys = static_cast<std::size_t>(*journeys);
    } else if (arg == "--estimator" && i + 1 < argc) {
      est_options.estimator = argv[++i];
    } else if (arg == "--delay-backend" && i + 1 < argc) {
      est_options.delay_backend = argv[++i];
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      const auto port = parse_decimal(argv[++i], 65535);
      if (!port) return usage();
      tele_options.metrics_port = static_cast<int>(*port);
    } else if (arg == "--serve-hold") {
      tele_options.serve_hold = true;
    } else if (arg == "--strict-obs") {
      tele_options.strict_obs = true;
    } else {
      return usage();
    }
  }
  des::delay_backend backend = des::delay_backend::ptm;
  if (!est_options.delay_backend.empty() &&
      !parse_backend(est_options.delay_backend, &backend)) {
    std::fprintf(stderr, "unknown --delay-backend \"%s\" (ptm | analytical | "
                 "tiered)\n", est_options.delay_backend.c_str());
    return 2;
  }
  if (est_options.estimator != "dqn") {
    // Reject unknown / needs-training estimator names before spending
    // minutes training the device model; make_estimator's message names the
    // alternatives (and the training entry points for routenet/mimicnet).
    const auto known = des::estimator_names();
    if (std::find(known.begin(), known.end(), est_options.estimator) ==
        known.end()) {
      try {
        (void)des::make_estimator(est_options.estimator, {});
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    }
  }
  if (options.any()) return run_profiled(options);

  std::printf("=== DeepQueueNet quickstart ===\n\n");

  // One sink for the whole workflow when telemetry / strict-obs is on; the
  // plane (sampler + endpoint) rides on it for the process lifetime.
  obs::sink sink;
  const bool instrumented =
      tele_options.metrics_port >= 0 || tele_options.strict_obs;
  start_telemetry(sink, tele_options);

  // 1. Device model (trained once, then loaded from ./dqn_models).
  auto ptm = examples::example_device_model();

  // 2. Topology + routing + traffic: Line4, Poisson flows at ~30%% host load.
  const auto topo = topo::make_line(4, examples::links());
  const topo::routing routes{topo};
  const double horizon = 0.05;
  const auto traffic_setup = examples::make_traffic_load(
      topo, routes, traffic::traffic_model::poisson, /*max link load=*/0.5,
      horizon, 7);

  // 3. Estimation through the factory (des/estimator_factory.hpp): the
  //    default is the DeepQueueNet engine, but --estimator swaps in the DES
  //    or the fluid baseline behind the same run contract, and
  //    --delay-backend selects the engine's sojourn backend.
  const std::vector<double> flow_rates(traffic_setup.flows.size(),
                                       traffic_setup.per_flow_rate);
  des::estimator_context context;
  context.topo = &topo;
  context.routes = &routes;
  context.ptm = ptm;
  context.engine.partitions = 2;
  context.engine.record_hops = true;
  context.engine.delay.backend = backend;
  context.flows = &traffic_setup.flows;
  context.flow_rates_pps = &flow_rates;
  context.mean_packet_size = 712.0;  // poisson traffic's mean packet size
  if (instrumented) {
    context.engine.sink = &sink;
    context.des.sink = &sink;
  }
  const auto estimator = des::make_estimator(est_options.estimator, context);

  des::run_request request;
  request.host_streams = &traffic_setup.streams;
  request.horizon = horizon;
  if (instrumented) request.sink = &sink;
  const auto prediction = estimator->run(request);
  const auto* net = dynamic_cast<const core::dqn_network*>(estimator.get());
  if (net != nullptr) {
    std::printf("DeepQueueNet (%s backend): %zu packets delivered in %.2fs "
                "wall time (%zu IRSA iterations; %zu workers; diameter "
                "bound %zu)\n",
                to_string(backend), prediction.deliveries.size(),
                prediction.wall_seconds, net->stats().iterations,
                net->stats().workers, 1 + topo.diameter());
  } else {
    std::printf("%s: %zu packets delivered in %.2fs wall time\n",
                estimator->estimator_name(), prediction.deliveries.size(),
                prediction.wall_seconds);
  }

  // 4. Ground truth from the DES and accuracy summary.
  const auto oracle = des::make_estimator("des", context);
  const auto truth = oracle->run(request);
  const auto cmp = core::compare_runs(truth, prediction, horizon / 10, 6);
  std::printf("DES oracle:   %zu packets delivered in %.2fs wall time\n\n",
              truth.deliveries.size(), truth.wall_seconds);
  std::printf("accuracy (normalized w1, lower is better):\n");
  std::printf("  avgRTT %.4f | p99RTT %.4f | avgJitter %.4f | p99Jitter %.4f\n",
              cmp.w1_avg_rtt, cmp.w1_p99_rtt, cmp.w1_avg_jitter,
              cmp.w1_p99_jitter);
  std::printf("  Pearson rho (avgRTT) = %.4f [%.4f, %.4f]\n\n",
              cmp.rho_avg_rtt.rho, cmp.rho_avg_rtt.ci_low,
              cmp.rho_avg_rtt.ci_high);

  // 5. Packet-level visibility (DeepQueueNet runs only): every device's
  //    egress stream is a packet trace any metric can be applied to.
  if (net != nullptr) {
    std::printf("per-device predicted traffic (packet-level visibility):\n");
    for (const auto node : topo.devices()) {
      std::size_t packets = 0;
      for (std::size_t port = 0; port < topo.port_count(node); ++port)
        packets += net->egress_stream(node, port).size();
      std::printf("  %-4s forwarded %zu packets\n", topo.at(node).name.c_str(),
                  packets);
    }
  }
  std::printf("\ndone. Try examples/quickstart --json for a profiled run, or "
              "examples/capacity_planning, scheduler_tuning, topology_design "
              "next.\n");
  if (tele_options.serve_hold) hold_and_serve(sink);
  if (tele_options.strict_obs) return strict_obs_verdict(sink);
  return 0;
}
