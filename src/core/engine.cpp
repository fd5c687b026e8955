#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "des/run_recorder.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/workspace.hpp"
#include "obs/journey.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/keyed_vector.hpp"
#include "util/stopwatch.hpp"

namespace dqn::core {

namespace {

bool streams_equal(const traffic::packet_stream& a, const traffic::packet_stream& b,
                   double eps) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pkt.pid != b[i].pkt.pid) return false;
    if (std::abs(a[i].time - b[i].time) > eps) return false;
  }
  return true;
}

}  // namespace

void engine_stats::publish(obs::sink& sink) const {
  sink.count("engine.iterations", static_cast<double>(iterations));
  sink.count("engine.device_inferences", static_cast<double>(device_inferences));
  sink.count("engine.devices_skipped", static_cast<double>(devices_skipped));
  sink.count("engine.steals", static_cast<double>(steals));
  sink.gauge("engine.workers", static_cast<double>(workers));
  sink.gauge("engine.cross_shard_links", static_cast<double>(cross_shard_links));
  sink.gauge("engine.wall_seconds", wall_seconds);
  sink.gauge("engine.busy_seconds", busy_seconds);
  sink.gauge("engine.critical_path_seconds", critical_path_seconds);
  sink.gauge("engine.shard_imbalance", shard_imbalance);
}

dqn_network::dqn_network(const topo::topology& topo, const topo::routing& routes,
                         std::shared_ptr<const ptm_model> ptm, scheduler_context ctx,
                         engine_config config)
    : topo_{&topo},
      routes_{&routes},
      ptm_{ptm},
      provider_{ptm, config.delay},
      device_{ptm, std::move(ctx)},
      host_nic_{std::move(ptm),
                scheduler_context{des::scheduler_kind::fifo, {},
                                  device_.context().bandwidth_bps}},
      config_{config} {
  DQN_ENSURE(config_.partitions > 0, "dqn_network: partitions >= 1");
}

util::work_stealing_pool& dqn_network::ensure_pool(std::size_t workers) {
  if (pool_ == nullptr || pool_->size() != workers)
    pool_ = std::make_unique<util::work_stealing_pool>(workers);
  return *pool_;
}

void dqn_network::set_device_context(topo::node_id node, scheduler_context ctx) {
  if (ran_)
    throw std::logic_error{
        "dqn_network::set_device_context: called after run(); device overrides "
        "must be installed before the first run (they do not apply "
        "retroactively)"};
  (void)topo_->at(node);  // bounds check
  // Providers (and so device models) are not movable: replace in place.
  device_overrides_.erase(node);
  device_overrides_.try_emplace(node, ptm_, std::move(ctx));
}

traffic::packet_stream dqn_network::ingress_of(
    const std::vector<std::vector<traffic::packet_stream>>& egress,
    topo::node_id node, std::size_t port) const {
  // The ingress of (node, port) is the upstream peer's egress through the
  // connecting link device (Eq. 5).
  const auto peer = topo_->peer_of(node, port);
  const auto& link = topo_->link_at(peer.link_index);
  return apply_link(egress[static_cast<std::size_t>(peer.node)][peer.port],
                    link.bandwidth_bps, link.propagation_delay);
}

des::run_result dqn_network::run(
    const std::vector<traffic::packet_stream>& host_streams, double horizon) {
  return execute(host_streams, horizon, config_.sink, provider_,
                 config_.partitions);
}

des::run_result dqn_network::execute(
    const std::vector<traffic::packet_stream>& host_streams, double horizon,
    obs::sink* const sink, delay_provider& provider, std::size_t partitions) {
  const auto hosts = topo_->hosts();
  const auto devices = topo_->devices();
  DQN_ENSURE(host_streams.size() == hosts.size(),
             "dqn_network::run: one stream per host required (got ",
             host_streams.size(), " streams for ", hosts.size(), " hosts)");

  util::stopwatch watch;
  stats_ = {};
  ran_ = true;
  obs::scoped_timer run_timer{sink, "engine", "run"};
  // Hot-path metrics go through pre-resolved handles (lock-free to record);
  // journey tracing is active only when the sink's tracer was configured.
  obs::histogram_handle device_seconds_handle;
  obs::histogram_handle partition_busy_handle;
  obs::gauge_handle pool_depth_handle;
  obs::journey_tracer* tracer = nullptr;
  if (sink != nullptr) {
    device_seconds_handle =
        sink->histogram_handle_for("engine.device_infer_seconds");
    partition_busy_handle =
        sink->histogram_handle_for("engine.partition_busy_seconds");
    pool_depth_handle = sink->gauge_handle_for("engine.pool_queue_depth");
    if (sink->journeys().enabled()) tracer = &sink->journeys();
    // Which GEMM backend this run's inference rides on (selected once at
    // startup; see nn/kernels/gemm.hpp).
    nn::kernels::report_dispatch(*sink);
  }
  // Arm the sojourn backend for this run: resolve its metric handles and
  // size its tiering state, one slot per node id (host NICs included).
  provider.bind_sink(sink);
  provider.prepare(topo_->node_count() + 1);

  // SInit: place the injected streams as the hosts' (fixed) egress streams,
  // translating host indices to node ids.
  obs::scoped_timer sinit_timer{sink, "engine", "sinit"};
  std::vector<std::vector<traffic::packet_stream>> egress(topo_->node_count());
  for (std::size_t i = 0; i < topo_->node_count(); ++i)
    egress[i].resize(topo_->port_count(static_cast<topo::node_id>(i)));
  // pid -> send time, feeding the exported delivery records below. A sorted
  // keyed vector rather than an unordered map: delivery export must be
  // deterministic across runs and partition counts, and keyed vectors make
  // any future traversal ordered by construction (dqn-unordered-iteration).
  util::keyed_vector<std::uint64_t, double> send_times;
  // The host-NIC loop runs on this thread; one workspace serves every host.
  nn::workspace host_nic_workspace;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    auto& out = egress[static_cast<std::size_t>(hosts[i])][0];
    for (const auto& ev : host_streams[i]) {
      if (ev.time > horizon) break;
      traffic::packet pkt = ev.pkt;
      pkt.src_host = hosts[i];
      DQN_ENSURE(pkt.dst_host >= 0 &&
                     static_cast<std::size_t>(pkt.dst_host) < hosts.size(),
                 "dqn_network::run: dst_host ", pkt.dst_host,
                 " out of range for ", hosts.size(), " hosts (pid ", pkt.pid,
                 ")");
      pkt.dst_host = hosts[static_cast<std::size_t>(pkt.dst_host)];
      send_times.push_back(pkt.pid, ev.time);
      if (tracer != nullptr && tracer->sampled(pkt.pid))
        tracer->record_send(pkt.pid, pkt.flow_id, ev.time);
      out.push_back({pkt, ev.time});
    }
    if (!out.empty()) {
      // NIC queueing prediction: the host's single FIFO egress queue at the
      // access link's rate.
      const double nic_bps =
          topo_->link_at(topo_->at(hosts[i]).links[0]).bandwidth_bps;
      const double bandwidths[1] = {nic_bps};
      auto egress_streams = host_nic_.process(
          {out}, [](std::uint32_t, std::size_t) { return std::size_t{0}; },
          config_.apply_sec, nullptr, nullptr, bandwidths, nullptr, sink,
          &host_nic_workspace, &provider,
          /*device_id=*/static_cast<std::int64_t>(hosts[i]),
          /*iteration=*/0);
      out = std::move(egress_streams[0]);
    }
  }
  send_times.finalize();
  sinit_timer.stop();

  // Per-device cached ingress (for skip detection), hop records, and drops.
  std::vector<std::vector<traffic::packet_stream>> last_ingress(topo_->node_count());
  std::vector<std::vector<predicted_hop>> device_hops(topo_->node_count());
  std::vector<std::vector<traffic::packet>> device_drops(topo_->node_count());

  // Theorem 3.1: IRSA reaches its fixed point within 1 + diameter(G).
  const std::size_t max_iterations = 1 + topo_->diameter();

  // Shard the devices across the persistent worker pool. The topology
  // strategy (default) BFS-grows connected shards so boundary windows mostly
  // stay worker-local; round_robin remains the legacy interleaving. Results
  // are identical either way — the shard only decides where a device runs.
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(partitions, devices.size()));
  util::work_stealing_pool& pool = ensure_pool(workers);
  const topo::shard_plan plan =
      topo::shard_devices(*topo_, devices, workers, config_.sharding);
  stats_.workers = workers;
  stats_.cross_shard_links = plan.cross_shard_links;

  // Chop each shard into contiguous device batches — the stealable unit. A
  // worker drains its own shard in BFS order (cache-warm neighbourhoods) and
  // steals batches from stragglers; ~4 batches per worker by default keeps
  // rebalancing possible without measurable deque traffic.
  const std::size_t batch_size =
      config_.steal_batch > 0
          ? config_.steal_batch
          : std::max<std::size_t>(1, devices.size() / (workers * 4));
  std::vector<std::vector<std::size_t>> batches;  // batch -> device indices
  std::vector<std::vector<std::size_t>> seeds(workers);
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    const auto& shard = plan.shards[s];
    for (std::size_t start = 0; start < shard.size(); start += batch_size) {
      const auto end = std::min(shard.size(), start + batch_size);
      seeds[s].push_back(batches.size());
      batches.emplace_back(
          shard.begin() + static_cast<std::ptrdiff_t>(start),
          shard.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }

  std::vector<std::uint8_t> changed(devices.size(), 0);
  std::vector<std::size_t> worker_inferences(workers, 0);
  std::vector<std::size_t> worker_skips(workers, 0);
  // One inference workspace per worker, alive across devices and IRSA
  // iterations: after the first pass the arenas have grown to their
  // high-water shapes and the PTM forward path stops allocating entirely.
  // Stealing moves a batch to another worker's workspace, which only
  // affects arena warmth, never numerics.
  std::vector<nn::workspace> worker_workspaces(workers);
  std::vector<double> worker_busy(workers, 0.0);
  std::vector<std::size_t> iteration_inferences(workers, 0);
  // Shard event labels, built once per run (the event path is per
  // iteration x worker — allocating labels there is measurable on large
  // topologies).
  std::vector<std::string> shard_labels;
  shard_labels.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    shard_labels.push_back("shard_" + std::to_string(w));
  if (sink != nullptr)
    sink->gauge("engine.steal_batch_devices", static_cast<double>(batch_size));

  // Double-buffered boundary exchange: devices read iteration t-1 state
  // (Algorithm 1 "pull the packet flows from iteration t-1") from the read
  // buffer and write t state into their own slot of the write buffer —
  // exclusively theirs, so the per-packet path takes no locks. Buffers swap
  // at the iteration barrier. Host slots are seeded identically in both
  // buffers once (host egress is fixed across iterations); device slots are
  // either freshly inferred or copied from the read buffer on an IRSA skip,
  // so the write buffer never leaks t-2 state.
  auto egress_other = egress;
  auto* read_buffer = &egress;
  auto* write_buffer = &egress_other;

  for (std::size_t iteration = 0; iteration < max_iterations; ++iteration) {
    obs::scoped_timer iteration_timer{sink, "engine", "iteration", iteration};
    std::fill(changed.begin(), changed.end(), std::uint8_t{0});
    std::fill(worker_busy.begin(), worker_busy.end(), 0.0);
    std::fill(iteration_inferences.begin(), iteration_inferences.end(),
              std::size_t{0});
    const auto& read = *read_buffer;
    auto& write = *write_buffer;

    // Worker spans cannot see the main thread's span stack, so the
    // iteration span's id is passed in as the explicit parent.
    const std::uint64_t iteration_span = iteration_timer.id();
    const util::work_stealing_pool::task_fn infer_batch = [&](std::size_t batch,
                                                              std::size_t worker) {
      // Sampled per batch (not per device) from inside the workers so the
      // background telemetry sampler sees mid-iteration depth, not the
      // post-barrier zero.
      pool_depth_handle.set(static_cast<double>(pool.remaining()));
      const double cpu_start = util::thread_cpu_seconds();
      for (const std::size_t d : batches[batch]) {
        const topo::node_id node = devices[d];
        const auto n = static_cast<std::size_t>(node);
        obs::scoped_span device_span{sink,
                                     "engine",
                                     "device",
                                     static_cast<std::uint64_t>(node),
                                     0.0,
                                     iteration_span};
        const std::size_t ports = topo_->port_count(node);
        std::vector<traffic::packet_stream> ingress(ports);
        std::vector<double> port_bandwidths(ports);
        for (std::size_t p = 0; p < ports; ++p) {
          ingress[p] = ingress_of(read, node, p);
          port_bandwidths[p] =
              topo_->link_at(topo_->at(node).links[p]).bandwidth_bps;
        }
        // IRSA skip: unchanged ingress => unchanged egress. The write
        // buffer still needs this device's t-1 state (it holds t-2).
        if (config_.irsa_skip_unchanged && last_ingress[n].size() == ports) {
          bool same = true;
          for (std::size_t p = 0; p < ports && same; ++p)
            same = streams_equal(ingress[p], last_ingress[n][p],
                                 config_.convergence_epsilon);
          if (same) {
            write[n] = read[n];
            ++worker_skips[worker];
            continue;
          }
        }
        // Destination-based forwarding needs the packet's dst, so bind a
        // per-device forward over (fid -> dst) collected from the ingress
        // (a keyed vector: deterministic, and cheaper to build + probe than
        // a hash map at per-device ingress sizes).
        util::keyed_vector<std::uint32_t, topo::node_id> flow_dst;
        for (const auto& stream : ingress)
          for (const auto& ev : stream)
            flow_dst.push_back(ev.pkt.flow_id, ev.pkt.dst_host);
        flow_dst.finalize();
        auto forward_by_flow = [this, node, &flow_dst](std::uint32_t fid,
                                                       std::size_t) {
          return routes_->egress_port(node, flow_dst.at(fid), fid);
        };
        std::vector<predicted_hop>* hops = nullptr;
        if (config_.record_hops) {
          device_hops[n].clear();
          hops = &device_hops[n];
        }
        const device_model* model = &device_;
        if (const auto it = device_overrides_.find(node);
            it != device_overrides_.end())
          model = &it->second;
        device_drops[n].clear();
        const journey_capture capture{tracer, static_cast<std::int64_t>(node)};
        write[n] = model->process(ingress, forward_by_flow, config_.apply_sec,
                                  hops, &device_drops[n], port_bandwidths,
                                  tracer != nullptr ? &capture : nullptr, sink,
                                  &worker_workspaces[worker], &provider,
                                  static_cast<std::int64_t>(node), iteration);
        device_span.set_value(1.0);  // 1 = inferred (skips end with value 0)
        device_seconds_handle.observe(device_span.stop());
        ++worker_inferences[worker];
        ++iteration_inferences[worker];
        bool did_change = false;
        for (std::size_t p = 0; p < ports && !did_change; ++p)
          did_change = !streams_equal(write[n][p], read[n][p],
                                      config_.convergence_epsilon);
        changed[d] = did_change ? 1 : 0;
        last_ingress[n] = std::move(ingress);
      }
      worker_busy[worker] += util::thread_cpu_seconds() - cpu_start;
    };
    stats_.steals += pool.run_round(seeds, infer_batch);

    double iteration_max = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const double busy = worker_busy[w];
      stats_.busy_seconds += busy;
      iteration_max = std::max(iteration_max, busy);
      if (sink != nullptr) {
        // Per-worker device-inference timing: one event per (iteration,
        // worker), duration = CPU busy time, value = devices inferred.
        sink->event("engine", shard_labels[w], iteration, sink->now() - busy,
                    busy, static_cast<double>(iteration_inferences[w]));
        partition_busy_handle.observe(busy);
      }
    }
    stats_.critical_path_seconds += iteration_max;

    std::swap(read_buffer, write_buffer);
    ++stats_.iterations;
    const auto changed_devices = static_cast<std::size_t>(
        std::count_if(changed.begin(), changed.end(),
                      [](std::uint8_t c) { return c != 0; }));
    if (sink != nullptr) {
      // Convergence delta: how many devices still changed this iteration —
      // the IRSA fixed point is reached when this hits zero.
      iteration_timer.set_value(static_cast<double>(changed_devices));
      sink->gauge("engine.last_changed_devices",
                  static_cast<double>(changed_devices));
    }
    if (changed_devices == 0 && iteration > 0) break;
  }
  for (std::size_t count : worker_inferences) stats_.device_inferences += count;
  for (std::size_t count : worker_skips) stats_.devices_skipped += count;
  // 0 = perfectly balanced; clamp against CPU-clock jitter on tiny runs.
  if (stats_.busy_seconds > 0)
    stats_.shard_imbalance =
        std::max(0.0, stats_.critical_path_seconds *
                              static_cast<double>(workers) /
                              stats_.busy_seconds -
                          1.0);

  // After the final swap the read buffer holds the fixed point.
  const auto& final_state = *read_buffer;

  // Collect deliveries: the ingress streams of host nodes.
  des::run_result result;
  for (const auto& drops : device_drops)
    result.drops += drops.size();
  for (const topo::node_id host : hosts) {
    const traffic::packet_stream inbound = ingress_of(final_state, host, 0);
    for (const auto& ev : inbound) {
      if (ev.pkt.dst_host != host) continue;
      des::delivery_record d;
      d.pid = ev.pkt.pid;
      d.flow_id = ev.pkt.flow_id;
      d.src = ev.pkt.src_host;
      d.dst = ev.pkt.dst_host;
      d.send_time = send_times.at(ev.pkt.pid);
      d.delivery_time = ev.time;
      if (tracer != nullptr && tracer->sampled(ev.pkt.pid))
        tracer->record_delivery(ev.pkt.pid, ev.time);
      result.deliveries.push_back(d);
    }
  }
  std::sort(result.deliveries.begin(), result.deliveries.end(),
            [](const des::delivery_record& a, const des::delivery_record& b) {
              if (a.delivery_time != b.delivery_time)
                return a.delivery_time < b.delivery_time;
              return a.pid < b.pid;
            });

  if (config_.record_hops) {
    for (const topo::node_id node : devices) {
      for (const auto& hop : device_hops[static_cast<std::size_t>(node)]) {
        des::hop_record h;
        h.pid = hop.pid;
        h.device = node;
        h.out_port = hop.out_port;
        h.arrival = hop.arrival;
        h.departure = hop.departure;
        result.hops.push_back(h);
      }
    }
  }

  final_egress_ = std::move(*read_buffer);
  run_timer.stop();
  stats_.wall_seconds = watch.elapsed_seconds();
  result.wall_seconds = stats_.wall_seconds;
  if (sink != nullptr) {
    stats_.publish(*sink);
    provider.publish(*sink);
    sink->count("engine.deliveries", static_cast<double>(result.deliveries.size()));
    sink->count("engine.drops", static_cast<double>(result.drops));
  }
  return result;
}

des::run_result dqn_network::run(const des::run_request& request) {
  DQN_ENSURE(request.host_streams != nullptr,
             "dqn_network::run: request.host_streams is null");
  obs::sink* const sink =
      request.sink != nullptr ? request.sink : config_.sink;
  const des::delay_backend backend =
      request.delay.has_value() ? request.delay->backend
                                : config_.delay.backend;
  des::run_recorder recorder{sink, estimator_name(), des::to_string(backend)};
  // A per-run delay policy gets a fresh provider that lives for this run.
  std::optional<delay_provider> per_run;
  if (request.delay.has_value()) per_run.emplace(ptm_, *request.delay);
  des::run_result result = execute(
      *request.host_streams, request.horizon, sink,
      per_run.has_value() ? *per_run : provider_,
      request.threads > 0 ? request.threads : config_.partitions);
  recorder.complete(result);
  return result;
}

const traffic::packet_stream& dqn_network::egress_stream(topo::node_id node,
                                                         std::size_t port) const {
  if (final_egress_.empty())
    throw std::logic_error{
        "dqn_network::egress_stream: no completed run; call run() before "
        "reading egress traces"};
  DQN_CHECK_RANGE(node, final_egress_.size());
  DQN_CHECK(port < final_egress_[static_cast<std::size_t>(node)].size(),
            "dqn_network::egress_stream: port ", port,
            " out of range for node ", node, " (",
            final_egress_[static_cast<std::size_t>(node)].size(), " ports)");
  return final_egress_[static_cast<std::size_t>(node)][port];
}

}  // namespace dqn::core
