// Live telemetry plane (src/obs/telemetry): Prometheus exposition
// correctness (name sanitization, label escaping, bucket monotonicity, a
// full parse round-trip of the rendered document), the snapshot ring, the
// background sampler's delta arithmetic, OS resource stats, the run ledger
// (direct and through the unified estimator API), the embedded HTTP server
// end-to-end on an ephemeral loopback port, the summary-table WARNING
// footer, and the run-recorder error path (des/run_recorder.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "des/estimator_factory.hpp"
#include "des/run_api.hpp"
#include "des/run_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metric_registry.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry/http_server.hpp"
#include "obs/telemetry/prometheus.hpp"
#include "obs/telemetry/resource_stats.hpp"
#include "obs/telemetry/run_ledger.hpp"
#include "obs/telemetry/sampler.hpp"
#include "obs/telemetry/snapshot_ring.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/telemetry/telemetry_config.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dqn;
using namespace dqn::obs::telemetry;

// ---------------------------------------------------------------- exposition

TEST(telemetry_prometheus, sanitizes_metric_names) {
  EXPECT_EQ(sanitize_metric_name("engine.deliveries"), "engine_deliveries");
  EXPECT_EQ(sanitize_metric_name("des.wall-seconds"), "des_wall_seconds");
  EXPECT_EQ(sanitize_metric_name("a:b_c9"), "a:b_c9");  // all legal, kept
  EXPECT_EQ(sanitize_metric_name("9lives"), "_9lives");  // no leading digit
  EXPECT_EQ(sanitize_metric_name(""), "_");
  EXPECT_EQ(sanitize_metric_name("p50%"), "p50_");
}

TEST(telemetry_prometheus, escapes_label_values) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
}

TEST(telemetry_prometheus, renders_numbers_that_round_trip) {
  EXPECT_EQ(prometheus_number(0.0), "0");
  EXPECT_EQ(prometheus_number(42.0), "42");
  EXPECT_EQ(prometheus_number(0.1), "0.1");
  EXPECT_EQ(prometheus_number(std::nan("")), "NaN");
  EXPECT_EQ(prometheus_number(HUGE_VAL), "+Inf");
  EXPECT_EQ(prometheus_number(-HUGE_VAL), "-Inf");
  // Shortest representation still parses back to the exact double.
  const double awkward = 1.0 / 3.0;
  EXPECT_DOUBLE_EQ(std::stod(prometheus_number(awkward)), awkward);
}

// Minimal exposition-format parser: every line must be a `# TYPE` comment or
// a `name[{labels}] value` sample with a legal metric name and a parseable
// value. Fills `samples` with (name-with-labels, value) pairs. Void so the
// fatal ASSERT macros are usable inside.
void parse_exposition(const std::string& text,
                      std::vector<std::pair<std::string, double>>& samples) {
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream comment{line.substr(7)};
      std::string name, type;
      comment >> name >> type;
      ASSERT_FALSE(name.empty());
      ASSERT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(key.empty()) << line;
    // Name = key up to '{'; must match [a-zA-Z_:][a-zA-Z0-9_:]*.
    const std::string name = key.substr(0, key.find('{'));
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      c == '_' || c == ':' ||
                      (i > 0 && c >= '0' && c <= '9');
      ASSERT_TRUE(ok) << "bad metric name char in: " << line;
    }
    double parsed = 0;
    if (value == "NaN") parsed = std::nan("");
    else if (value == "+Inf") parsed = HUGE_VAL;
    else if (value == "-Inf") parsed = -HUGE_VAL;
    else parsed = std::stod(value);
    samples.emplace_back(key, parsed);
  }
}

TEST(telemetry_prometheus, exposition_parses_and_buckets_are_monotone) {
  obs::sink sink;
  sink.count("engine.deliveries", 123);
  sink.gauge("engine.pool_queue_depth", 3);
  // Values spanning many decades, plus a zero (underflow bucket) and a
  // beyond-the-ladder outlier that must only land in +Inf.
  for (const double v : {0.0, 1e-8, 1e-6, 1e-6, 3e-4, 0.02, 0.5, 12.0, 1e9})
    sink.observe("engine.device_infer_seconds", v);

  const std::string text = to_prometheus(sink.metrics().snapshot());
  std::vector<std::pair<std::string, double>> samples;
  parse_exposition(text, samples);
  ASSERT_FALSE(samples.empty());

  EXPECT_NE(text.find("# TYPE engine_deliveries counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE engine_pool_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE engine_device_infer_seconds histogram"),
            std::string::npos);

  // Cumulative bucket counts never decrease, and +Inf equals _count.
  std::vector<double> bucket_counts;
  double inf_count = -1, total_count = -1, sum = -1;
  double p50 = -1, p999 = -1;
  for (const auto& [key, value] : samples) {
    if (key.rfind("engine_device_infer_seconds_bucket{le=\"+Inf\"}", 0) == 0)
      inf_count = value;
    else if (key.rfind("engine_device_infer_seconds_bucket", 0) == 0)
      bucket_counts.push_back(value);
    else if (key == "engine_device_infer_seconds_count")
      total_count = value;
    else if (key == "engine_device_infer_seconds_sum")
      sum = value;
    else if (key == "engine_device_infer_seconds_p50")
      p50 = value;
    else if (key == "engine_device_infer_seconds_p999")
      p999 = value;
  }
  ASSERT_FALSE(bucket_counts.empty());
  EXPECT_TRUE(std::is_sorted(bucket_counts.begin(), bucket_counts.end()));
  EXPECT_DOUBLE_EQ(inf_count, 9.0);
  EXPECT_DOUBLE_EQ(total_count, 9.0);
  // The 1e9 outlier is past the ladder: the last finite bound holds 8.
  EXPECT_DOUBLE_EQ(bucket_counts.back(), 8.0);
  EXPECT_GT(sum, 1e9 - 1);
  // Companion quantile gauges ride along and are ordered.
  ASSERT_GE(p50, 0);
  EXPECT_LE(p50, p999);
}

TEST(telemetry_prometheus, colliding_sanitized_names_keep_one_family) {
  obs::metric_registry reg;
  reg.add("a.b", 1);
  reg.add("a_b", 2);  // sanitizes to the same family
  obs::registry_snapshot snap = reg.snapshot();
  const std::string text = to_prometheus(snap);
  // Exactly one TYPE line for a_b — the duplicate is skipped, not emitted
  // twice (which scrapers reject).
  std::size_t occurrences = 0;
  for (std::size_t pos = text.find("# TYPE a_b counter");
       pos != std::string::npos;
       pos = text.find("# TYPE a_b counter", pos + 1))
    ++occurrences;
  EXPECT_EQ(occurrences, 1u);
}

// ----------------------------------------------------------------- the ring

TEST(telemetry_ring, bounded_with_eviction_and_windowing) {
  snapshot_ring ring{3};
  for (int i = 0; i < 5; ++i) {
    telemetry_sample sample;
    sample.time_seconds = i;
    ring.push(std::move(sample));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.total_pushed(), 5u);
  ASSERT_TRUE(ring.latest().has_value());
  EXPECT_DOUBLE_EQ(ring.latest()->time_seconds, 4.0);
  const auto recent = ring.window(3.0);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_DOUBLE_EQ(recent.front().time_seconds, 3.0);
  EXPECT_EQ(ring.all().size(), 3u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_FALSE(ring.latest().has_value());
}

// -------------------------------------------------------------- the sampler

TEST(telemetry_sampler, tick_computes_deltas_and_publishes_resources) {
  obs::sink sink;
  snapshot_ring ring{16};
  // A very long period: the background thread effectively never fires on
  // its own, every tick below is driven by the test.
  const telemetry_config config{.enabled = true,
                                .sample_period_ms = 60 * 60 * 1000};
  snapshot_sampler sampler{sink, ring, config};

  sink.count("engine.deliveries", 100);
  sampler.tick();
  sink.count("engine.deliveries", 50);
  sampler.tick();

  EXPECT_GE(sampler.samples(), 2u);
  const auto latest = ring.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->counter_totals.at("engine.deliveries"), 150.0);
  EXPECT_GT(latest->interval_seconds, 0.0);
  // Rate = delta / interval for the 50 added between the ticks.
  const double rate = latest->counter_rates.at("engine.deliveries");
  EXPECT_NEAR(rate * latest->interval_seconds, 50.0, 1e-6);
  // The tick published the process gauges into the registry.
  const auto snap = sink.metrics().snapshot();
  EXPECT_TRUE(snap.gauges.count("process.cpu_seconds") == 1);
  EXPECT_TRUE(snap.gauges.count("process.max_rss_bytes") == 1);
  EXPECT_TRUE(snap.gauges.count("telemetry.samples") == 1);
  sampler.stop();  // idempotent with the destructor
}

TEST(telemetry_resources, process_stats_are_sane) {
  const process_resource_stats stats = sample_process_stats();
  EXPECT_GE(stats.cpu_seconds(), 0.0);
#if defined(__linux__)
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GE(stats.threads, 1u);
  const auto threads = sample_thread_cpu();
  EXPECT_GE(threads.size(), 1u);
#endif
  EXPECT_GT(stats.max_rss_bytes, 0u);
  obs::sink sink;
  publish_resource_gauges(sink);
  EXPECT_GT(sink.metrics().gauge("process.max_rss_bytes"), 0.0);
}

// ------------------------------------------------------------ the run ledger

TEST(telemetry_ledger, bounded_and_monotone_ids) {
  run_ledger ledger{2};
  for (int i = 0; i < 4; ++i) {
    run_record record;
    record.estimator = "e" + std::to_string(i);
    record.status = "ok";
    EXPECT_EQ(ledger.record(std::move(record)),
              static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger.total(), 4u);
  const auto recent = ledger.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent.front().estimator, "e2");
  EXPECT_EQ(recent.back().estimator, "e3");
}

std::vector<traffic::packet_stream> tiny_streams(std::size_t hosts,
                                                 double horizon) {
  util::rng rng{7};
  auto flows = traffic::make_uniform_flows(hosts, 1, rng);
  traffic::tg_util_config tg;
  tg.per_flow_rate = 20'000.0;
  tg.seed = 7;
  auto generators = traffic::make_generators(flows, tg);
  return traffic::per_host_streams(generators, hosts, horizon, rng);
}

TEST(telemetry_ledger, estimator_run_records_into_the_sink) {
  const auto topo = topo::make_line(2);
  const topo::routing routes{topo};
  const auto streams = tiny_streams(topo.hosts().size(), 0.005);

  des::estimator_context context;
  context.topo = &topo;
  context.routes = &routes;
  const auto oracle = des::make_estimator("des", context);

  obs::sink sink;
  des::run_request request;
  request.host_streams = &streams;
  request.horizon = 0.005;
  request.sink = &sink;
  const auto result = oracle->run(request);
  EXPECT_FALSE(result.deliveries.empty());

  const auto runs = sink.runs().recent();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().estimator, "des");
  EXPECT_EQ(runs.front().backend, "-");
  EXPECT_EQ(runs.front().status, "ok");
  EXPECT_EQ(runs.front().deliveries, result.deliveries.size());
  EXPECT_GT(runs.front().wall_seconds, 0.0);
}

TEST(telemetry_ledger, recorder_destructor_records_the_error_path) {
  obs::sink sink;
  {
    des::run_recorder recorder{&sink, "deepqueuenet", "ptm"};
    // No complete(): simulates run() throwing past the recorder.
  }
  const auto runs = sink.runs().recent();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs.front().status, "error");
  EXPECT_EQ(runs.front().backend, "ptm");
  EXPECT_EQ(runs.front().deliveries, 0u);
}

// ----------------------------------------------------------- the HTTP plane

// Minimal blocking HTTP GET against loopback; returns the full response
// (status line + headers + body), or "" on connection failure.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(telemetry_http, url_decode_and_target_parsing) {
  EXPECT_EQ(http_server::url_decode("a%2Fb+c"), "a/b c");
  EXPECT_EQ(http_server::url_decode("%zz"), "%zz");  // malformed kept as-is
  const auto request = http_server::parse_target("/series?window=10&k=v%20w");
  EXPECT_EQ(request.path, "/series");
  EXPECT_EQ(request.query.at("window"), "10");
  EXPECT_EQ(request.query.at("k"), "v w");
}

TEST(telemetry_http, rejects_ports_outside_the_16_bit_range) {
  // The range check runs before socket(), so these cases open no socket.
  const auto handler = [](const http_request&) { return http_response{}; };
  EXPECT_THROW(http_server("127.0.0.1", 65536, handler), std::invalid_argument);
  EXPECT_THROW(http_server("127.0.0.1", -1, handler), std::invalid_argument);
}

TEST(telemetry_http, serves_all_endpoints_on_an_ephemeral_port) {
  obs::sink sink;
  sink.count("engine.deliveries", 7);
  const telemetry_config config{
      .enabled = true, .sample_period_ms = 10, .metrics_port = 0};
  auto* plane = sink.start_telemetry(config);
  ASSERT_NE(plane, nullptr);
  ASSERT_TRUE(plane->serving());
  const int port = plane->metrics_port();
  ASSERT_GT(port, 0);

  // Idempotent start: same plane back, same port.
  EXPECT_EQ(sink.start_telemetry(config), plane);
  EXPECT_EQ(sink.telemetry_plane(), plane);

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("# TYPE engine_deliveries counter"),
            std::string::npos);

  // Counters are monotone across scrapes.
  sink.count("engine.deliveries", 3);
  const std::string metrics2 = http_get(port, "/metrics");
  EXPECT_NE(metrics2.find("engine_deliveries 10"), std::string::npos);

  const auto body_of = [](const std::string& response) {
    const std::size_t split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string{}
                                      : response.substr(split + 4);
  };
  for (const char* target : {"/snapshot", "/series", "/series?window=5",
                             "/runs"}) {
    const std::string response = http_get(port, target);
    EXPECT_NE(response.find("200 OK"), std::string::npos) << target;
    EXPECT_TRUE(obs::json_is_valid(body_of(response))) << target;
  }

  EXPECT_NE(http_get(port, "/nope").find("404"), std::string::npos);
  EXPECT_NE(http_get(port, "/series?window=abc").find("400"),
            std::string::npos);

  sink.stop_telemetry();
  EXPECT_EQ(sink.telemetry_plane(), nullptr);
  // The socket is really gone: a fresh connection fails or yields nothing.
  EXPECT_EQ(http_get(port, "/healthz").find("200 OK"), std::string::npos);

  // The plane can be started again after a stop.
  auto* second = sink.start_telemetry(config);
  ASSERT_NE(second, nullptr);
  EXPECT_GT(second->metrics_port(), 0);
  sink.stop_telemetry();
}

TEST(telemetry_http, disabled_config_is_a_no_op) {
  obs::sink sink;
  EXPECT_EQ(sink.start_telemetry(telemetry_config{}), nullptr);
  EXPECT_EQ(sink.telemetry_plane(), nullptr);
  sink.stop_telemetry();  // harmless without a plane
}

// ------------------------------------------------------- the summary footer

TEST(telemetry_summary, footer_warns_on_data_loss_counters) {
  obs::sink clean;
  clean.count("engine.deliveries", 5);
  EXPECT_TRUE(clean.summary_table().footer().empty());

  obs::sink lossy;
  lossy.count("trace.dropped", 12);
  const auto table = lossy.summary_table();
  ASSERT_EQ(table.footer().size(), 1u);
  EXPECT_NE(table.footer()[0].find("trace.dropped"), std::string::npos);
  // Footer lines render into the text output too.
  EXPECT_NE(table.to_string().find("WARNING"), std::string::npos);

  util::text_table plain{{"a"}};
  plain.add_row({"1"});
  plain.add_footer("note");
  EXPECT_NE(plain.to_string().find("note"), std::string::npos);
  // CSV stays machine-clean: no footer lines.
  EXPECT_EQ(plain.to_csv().find("note"), std::string::npos);
}

}  // namespace
