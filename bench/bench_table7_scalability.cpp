// Table 7: inference execution time with parallelization on fat-trees.
//
// For each network we run the same workload through (a) the sequential
// packet-level DES, (b) MimicNet (trained once on FatTree16), and (c)
// DeepQueueNet with 1/2/4/8 workers — the CPU-thread analogue of the
// paper's multi-GPU model parallelism (Figure 11; DESIGN.md §2).
//
// DeepQueueNet rows report MEASURED wall-clock time: the sharded engine
// (topology-aware shards + work stealing + double-buffered boundary
// exchange) genuinely executes across cores, so speedup columns are real on
// any machine with free cores.
//
// Three flags run one FatTree16 slice of the table instead, each printing
// one JSON line for the CI perf-smoke gates (.github/workflows/ci.yml):
//   --threads N        best-of-3 measured wall at N workers, with a delivery
//                      fingerprint so the gate can assert bit-identical
//                      results across thread counts;
//   --tiered-smoke     the tiered-vs-PTM block: both backends on the same
//                      scenario and engine, with the tiered run's error-budget
//                      probe count and the windows they ran the PTM on;
//   --telemetry-smoke  the telemetry-overhead block: the same run with the
//                      live telemetry plane off and on.
// Any other argument is a usage error (exit 2).
#include "bench/common.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string_view>

#include "baselines/mimicnet.hpp"
#include "core/delay_provider.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

using namespace dqn;

namespace {

// Order- and bit-sensitive digest of the delivery records (FNV-1a over pid +
// the raw delivery_time bits): equal fingerprints across thread counts means
// the sharded engine reproduced the exact same deliveries.
std::uint64_t delivery_fingerprint(const des::run_result& result) {
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

bench::scenario fattree16_scenario(double horizon) {
  return bench::make_scenario_load(topo::make_fattree16(bench::bench_links()),
                                   traffic::traffic_model::poisson, 0.5,
                                   horizon, 1000);
}

// The --threads slice: FatTree16, the paper's execution profile (Algorithm 1
// re-infers every device each iteration), best-of-3 measured wall at
// `threads` workers. One JSON line on stdout.
int run_threads_smoke(std::size_t threads) {
  auto ptm = bench::network_model();
  const auto s = fattree16_scenario(0.15 * bench::bench_scale());
  core::scheduler_context ctx;
  ctx.bandwidth_bps = bench::bench_link_bps;
  core::engine_config cfg;
  cfg.partitions = threads;
  cfg.irsa_skip_unchanged = false;
  core::dqn_network net{s.topo(), *s.routes, ptm, ctx, cfg};
  double best_wall = 0;
  des::run_result result;
  for (int rep = 0; rep < 3; ++rep) {
    result = net.run(s.streams, s.horizon);
    best_wall = rep == 0 ? result.wall_seconds
                         : std::min(best_wall, result.wall_seconds);
  }
  const auto& stats = net.stats();
  std::printf("{\"threads\":%zu,\"wall_seconds\":%.6f,\"deliveries\":%zu,"
              "\"delivery_fingerprint\":\"%016llx\",\"iterations\":%zu,"
              "\"steals\":%llu,\"cross_shard_links\":%zu,"
              "\"shard_imbalance\":%.4f}\n",
              threads, best_wall, result.deliveries.size(),
              static_cast<unsigned long long>(delivery_fingerprint(result)),
              stats.iterations, static_cast<unsigned long long>(stats.steals),
              stats.cross_shard_links, stats.shard_imbalance);
  return 0;
}

// Tiered delay backend (core/delay_provider.hpp): pure-PTM versus the tiered
// analytical/PTM policy on the identical scenario and 4-worker engine. The
// tiered win is devices skipping DNN inference entirely, which shows up in
// measured wall time on any machine regardless of core count.
struct tiered_comparison {
  double ptm_wall = 0;
  double tiered_wall = 0;
  double analytical_fraction = 0;
  std::uint64_t probes = 0;         // tiered error-budget spot checks
  std::uint64_t probe_windows = 0;  // windows those checks ran the PTM on
  std::size_t ptm_deliveries = 0;
  std::size_t tiered_deliveries = 0;
};

tiered_comparison compare_tiered(const bench::scenario& s,
                                 std::shared_ptr<const core::ptm_model> ptm) {
  auto context = bench::compare_context(s, std::move(ptm), des::tm_config{},
                                        /*apply_sec=*/true,
                                        /*partitions=*/4);
  tiered_comparison out;
  const auto measured_wall = [&](des::delay_backend backend,
                                 std::size_t* deliveries) {
    context.engine.delay.backend = backend;
    const auto net = des::make_estimator("deepqueuenet", context);
    des::run_request request;
    request.host_streams = &s.streams;
    request.horizon = s.horizon;
    *deliveries = net->run(request).deliveries.size();
    const auto& engine = dynamic_cast<const core::dqn_network&>(*net);
    if (backend == des::delay_backend::tiered) {
      const auto tiers = engine.provider().stats();
      out.analytical_fraction = tiers.analytical_fraction();
      out.probes = tiers.probes;
      out.probe_windows = tiers.probe_windows;
    }
    return engine.stats().wall_seconds;
  };
  out.ptm_wall = measured_wall(des::delay_backend::ptm, &out.ptm_deliveries);
  out.tiered_wall =
      measured_wall(des::delay_backend::tiered, &out.tiered_deliveries);
  return out;
}

// Live-telemetry overhead on the Table-7 workload: the identical FatTree16
// run with the telemetry plane off and on (25 ms sampler + /metrics endpoint
// on an ephemeral loopback port, rendered once after the measurement).
// Best-of-3 walls on both sides, separate sinks, so the only delta is the
// plane itself.
struct telemetry_comparison {
  double off_wall = 0;
  double on_wall = 0;
  std::uint64_t samples = 0;
  bool exposition_ok = false;
  std::size_t packets = 0;
  std::size_t deliveries = 0;

  [[nodiscard]] double overhead() const {
    return off_wall > 0 ? on_wall / off_wall - 1.0 : 0.0;
  }
};

telemetry_comparison compare_telemetry(
    std::shared_ptr<const core::ptm_model> ptm) {
  const auto s = fattree16_scenario(0.05 * bench::bench_scale());
  telemetry_comparison out;
  for (const auto& stream : s.streams) out.packets += stream.size();
  const auto context = bench::compare_context(s, std::move(ptm),
                                              des::tm_config{},
                                              /*apply_sec=*/true,
                                              /*partitions=*/4);
  const auto net = des::make_estimator("deepqueuenet", context);
  des::run_request request;
  request.host_streams = &s.streams;
  request.horizon = s.horizon;
  const auto best_wall = [&](obs::sink* run_sink) {
    request.sink = run_sink;
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto result = net->run(request);
      out.deliveries = result.deliveries.size();
      best = rep == 0 ? result.wall_seconds
                      : std::min(best, result.wall_seconds);
    }
    return best;
  };
  obs::sink off_sink;
  out.off_wall = best_wall(&off_sink);
  obs::sink on_sink;
  const obs::telemetry::telemetry_config telemetry_cfg{
      .enabled = true, .sample_period_ms = 25, .metrics_port = 0};
  auto* plane = on_sink.start_telemetry(telemetry_cfg);
  out.on_wall = best_wall(&on_sink);
  const std::string exposition = plane->render_metrics();
  out.exposition_ok =
      exposition.find("# TYPE engine_deliveries counter") !=
          std::string::npos &&
      exposition.find("process_rss_bytes") != std::string::npos;
  out.samples = plane->sampler().samples();
  on_sink.stop_telemetry();
  return out;
}

int run_tiered_smoke() {
  const auto s = fattree16_scenario(0.15 * bench::bench_scale());
  const tiered_comparison t = compare_tiered(s, bench::network_model());
  std::printf("{\"ptm_wall_seconds\": %.6f, \"tiered_wall_seconds\": %.6f, "
              "\"analytical_fraction\": %.4f, \"speedup\": %.3f, "
              "\"ptm_deliveries\": %zu, \"tiered_deliveries\": %zu, "
              "\"probes\": %llu, \"probe_windows\": %llu}\n",
              t.ptm_wall, t.tiered_wall, t.analytical_fraction,
              t.tiered_wall > 0 ? t.ptm_wall / t.tiered_wall : 0.0,
              t.ptm_deliveries, t.tiered_deliveries,
              static_cast<unsigned long long>(t.probes),
              static_cast<unsigned long long>(t.probe_windows));
  return 0;
}

int run_telemetry_smoke() {
  const telemetry_comparison t = compare_telemetry(bench::network_model());
  std::printf("{\"off_wall_seconds\": %.6f, \"on_wall_seconds\": %.6f, "
              "\"overhead_fraction\": %.4f, \"samples\": %llu, "
              "\"exposition_ok\": %s, \"deliveries\": %zu}\n",
              t.off_wall, t.on_wall, t.overhead(),
              static_cast<unsigned long long>(t.samples),
              t.exposition_ok ? "true" : "false", t.deliveries);
  return t.exposition_ok ? 0 : 1;
}

// A positive decimal worker count with no trailing characters.
std::optional<std::size_t> parse_threads(const char* text) {
  if (*text < '0' || *text > '9') return std::nullopt;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || value == 0 || value > 1024) return std::nullopt;
  return static_cast<std::size_t>(value);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_table7_scalability "
               "[--threads N | --tiered-smoke | --telemetry-smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) return usage();
  if (argc == 3) {
    if (std::string_view{argv[1]} != "--threads") return usage();
    const auto threads = parse_threads(argv[2]);
    if (!threads) return usage();
    return run_threads_smoke(*threads);
  }
  if (argc == 2) {
    const std::string_view arg{argv[1]};
    if (arg == "--tiered-smoke") return run_tiered_smoke();
    if (arg == "--telemetry-smoke") return run_telemetry_smoke();
    return usage();
  }

  std::printf("=== Table 7: inference execution time with parallelization ===\n\n");
  const double scale = bench::bench_scale();
  const des::tm_config fifo_tm;
  auto ptm = bench::network_model();

  // MimicNet trained once from a FatTree16 reference run.
  baselines::mimicnet_estimator mn;
  {
    auto s = bench::make_scenario_load(topo::make_fattree16(bench::bench_links()),
                                       traffic::traffic_model::poisson, 0.5,
                                       0.05 * scale, 777);
    des::network_config oracle_cfg;
    oracle_cfg.tm = fifo_tm;
    oracle_cfg.record_hops = true;
    des::network oracle{s.topo(), *s.routes, oracle_cfg};
    const auto truth = oracle.run(s.streams, s.horizon);
    mn.train(s.topo(), truth, 80);
  }

  struct scale_case {
    const char* name;
    std::function<topo::topology()> build;
    double load;
    double horizon;
  };
  const scale_case cases[] = {
      {"FatTree8", [] { return topo::make_fattree8(bench::bench_links()); },
       0.5, 0.15 * scale},
      {"FatTree16", [] { return topo::make_fattree16(bench::bench_links()); },
       0.5, 0.15 * scale},
      {"FatTree64", [] { return topo::make_fattree64(bench::bench_links()); },
       0.5, 0.06 * scale},
      {"FatTree128", [] { return topo::make_fattree128(bench::bench_links()); },
       0.5, 0.036 * scale},
  };

  // "time" for DeepQueueNet rows is MEASURED wall-clock time of the sharded
  // engine. Speedup columns therefore depend on free cores: near-linear on a
  // many-core box, flat on a loaded or single-core one.
  util::text_table table{
      {"topology", "method", "#workers", "packets", "time", "speedup"}};

  for (const auto& sc : cases) {
    const auto s = bench::make_scenario_load(
        sc.build(), traffic::traffic_model::poisson, sc.load, sc.horizon, 1000);
    std::size_t packets = 0;
    for (const auto& stream : s.streams) packets += stream.size();
    const std::string pkts = std::to_string(packets);
    const bool is_fattree16 = std::string{sc.name} == "FatTree16";

    // Sequential DES (hop recording off: pure simulation cost).
    {
      des::network_config oracle_cfg;
      oracle_cfg.tm = fifo_tm;
      oracle_cfg.record_hops = false;
      des::network oracle{s.topo(), *s.routes, oracle_cfg};
      util::stopwatch watch;
      const auto result = oracle.run(s.streams, sc.horizon);
      (void)result;
      table.add_row({sc.name, "DES", "-", pkts,
                     util::format_duration(watch.elapsed_seconds()), "-"});
    }

    // MimicNet.
    {
      util::stopwatch watch;
      const auto result = mn.predict(s.topo(), *s.routes, s.streams, sc.horizon);
      (void)result;
      table.add_row({sc.name, "MimicNet", "1", pkts,
                     util::format_duration(watch.elapsed_seconds()), "-"});
    }

    // DeepQueueNet with 1/2/4/8 workers: measured wall time.
    double base_seconds = 0;
    std::uint64_t base_fingerprint = 0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      core::scheduler_context ctx;
      ctx.bandwidth_bps = bench::bench_link_bps;
      core::engine_config cfg;
      cfg.partitions = workers;
      // Measure the paper's execution profile: Algorithm 1 re-infers every
      // device each iteration (our skip refinement makes late iterations
      // nearly serial and Amdahl-limits the parallel speedup).
      cfg.irsa_skip_unchanged = false;
      core::dqn_network net{s.topo(), *s.routes, ptm, ctx, cfg};
      const auto result = net.run(s.streams, sc.horizon);
      const double seconds = net.stats().wall_seconds;
      const std::uint64_t fingerprint = delivery_fingerprint(result);
      std::string speedup = "baseline";
      if (workers == 1) {
        base_seconds = seconds;
        base_fingerprint = fingerprint;
      } else {
        speedup = util::fmt(base_seconds / seconds, 2) + "-fold";
        // The determinism contract, enforced in-bench: sharded execution
        // reproduces the single-worker deliveries bit for bit.
        DQN_ENSURE(fingerprint == base_fingerprint,
                   "table7: ", sc.name, " deliveries diverged at ", workers,
                   " workers (fingerprint mismatch)");
      }
      table.add_row({sc.name, "DeepQueueNet", std::to_string(workers), pkts,
                     util::format_duration(seconds), speedup});
      std::printf("[dqn] %-11s workers=%zu: %s measured wall "
                  "(%zu IRSA iterations, %llu steals, imbalance %.3f)\n",
                  sc.name, workers, util::format_duration(seconds).c_str(),
                  net.stats().iterations,
                  static_cast<unsigned long long>(net.stats().steals),
                  net.stats().shard_imbalance);
      if (is_fattree16) {
        if (obs::sink* sink = bench::bench_sink(); sink != nullptr) {
          const std::string suffix = "_w" + std::to_string(workers);
          sink->gauge("table7.measured_wall" + suffix, seconds);
          if (workers > 1)
            sink->gauge("table7.measured_speedup" + suffix,
                        base_seconds / seconds);
        }
      }
    }

    // Tiered delay backend versus pure PTM on the same scenario.
    {
      const tiered_comparison t = compare_tiered(s, ptm);
      const double speedup = t.ptm_wall / t.tiered_wall;
      table.add_row({sc.name, "DQN-tiered", "4", pkts,
                     util::format_duration(t.tiered_wall),
                     util::fmt(speedup, 2) + "-fold vs ptm"});
      std::printf("[tiered] %-11s measured: ptm %s, tiered %s (%.2fx), "
                  "analytical fraction %.3f\n",
                  sc.name, util::format_duration(t.ptm_wall).c_str(),
                  util::format_duration(t.tiered_wall).c_str(), speedup,
                  t.analytical_fraction);
      if (obs::sink* sink = bench::bench_sink(); sink != nullptr) {
        sink->gauge("table7.tiered_speedup", speedup);
        sink->gauge("table7.ptm_wall_seconds", t.ptm_wall);
        sink->gauge("table7.tiered_wall_seconds", t.tiered_wall);
      }
    }
  }

  // Live-telemetry overhead: the ENSUREs below are loose in-bench sanity
  // bounds — CI's perf-smoke gate holds the tight one via --telemetry-smoke.
  {
    const telemetry_comparison t = compare_telemetry(ptm);
    DQN_ENSURE(t.exposition_ok,
               "table7: /metrics exposition is missing the engine counters");
    const double overhead = t.overhead();
    std::printf("[telemetry] FatTree16 best-of-3: off %s, on %s "
                "(overhead %+.2f%%, %llu samples)\n",
                util::format_duration(t.off_wall).c_str(),
                util::format_duration(t.on_wall).c_str(), overhead * 100.0,
                static_cast<unsigned long long>(t.samples));
    DQN_ENSURE(overhead < 0.10,
               "table7: telemetry overhead ", overhead,
               " exceeds the 10% in-bench sanity bound");
    table.add_row({"FatTree16", "DQN+telemetry", "4", std::to_string(t.packets),
                   util::format_duration(t.on_wall),
                   util::fmt(overhead * 100.0, 2) + "% overhead"});
    if (obs::sink* sink = bench::bench_sink(); sink != nullptr) {
      sink->gauge("table7.telemetry_overhead_fraction", overhead);
      sink->gauge("table7.telemetry_off_wall_seconds", t.off_wall);
      sink->gauge("table7.telemetry_on_wall_seconds", t.on_wall);
    }
  }

  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "notes (DQN_BENCH_SCALE=%g):\n"
      " * DeepQueueNet rows are measured wall time of the sharded engine\n"
      "   (topology shards + work stealing + double-buffered exchange);\n"
      "   speedup in workers is real and requires free cores to show —\n"
      "   CI's perf-smoke gate holds the 4-worker floor on a 4-vCPU runner;\n"
      " * the reproduced shapes are (a) DeepQueueNet speedup in workers,\n"
      "   (b) DQN time roughly flat in network size while DES grows with\n"
      "   it, (c) MimicNet fastest per execution unit on its native\n"
      "   fat-trees;\n"
      " * absolute DES-vs-DQN ordering is inverted relative to the paper:\n"
      "   per-packet DNN inference on CPU cores cannot beat a lean C++\n"
      "   DES kernel — the paper's 100-800x DES deficit comes from GPU\n"
      "   inference throughput (~1000x a core) against a full-stack OMNeT++\n"
      "   model. The partitioned-inference code path is identical\n"
      "   (DESIGN.md §2).\n",
      scale);
  return 0;
}
