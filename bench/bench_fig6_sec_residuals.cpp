// Figure 6: the statistical structure of PTM residuals that motivates SEC
// (§4.3). For each scheduler we bin the validation predictions by predicted
// sojourn and report the mean relative error per bin, verifying the paper's
// three observations: (1) the error is not monotonic in the predicted
// sojourn, (2) nearby predictions have similar errors, (3) the error
// structure is stable across schedulers and traffic patterns.
#include "bench/common.hpp"

#include <cmath>
#include <cstdio>

#include "core/delay_provider.hpp"

using namespace dqn;

int main() {
  std::printf("=== Figure 6: PTM residual structure (per scheduler) ===\n\n");
  auto cfg = bench::standard_dutil(8, 12, 1e9);
  auto model = bench::cached_model(cfg);

  for (const auto sched : {des::scheduler_kind::fifo, des::scheduler_kind::sp,
                           des::scheduler_kind::wfq}) {
    util::rng rng{util::derive_seed(606, static_cast<std::uint64_t>(sched))};
    core::ptm_dataset eval;
    eval.time_steps = cfg.ptm.time_steps;
    for (int i = 0; i < 8; ++i) {
      const auto sample = core::generate_stream_sample(cfg, rng, &sched);
      eval.append(sample.data);
    }
    // Window-level inference goes through the delay-provider layer
    // (scripts/lint.sh keeps ptm_model::predict private to src/core).
    core::delay_provider provider{model, des::delay_policy{}};
    const auto raw = provider.predict_windows(eval.windows, /*apply_sec=*/false);

    // Bin by predicted sojourn (log-spaced) and report mean relative error.
    std::printf("--- scheduler: %s ---\n", des::to_string(sched));
    util::text_table table{{"predicted sojourn bin", "count",
                            "mean rel. error", "after SEC"}};
    const double lo = 1e-7, hi = 1e-3;
    const int bins = 8;
    for (int b = 0; b < bins; ++b) {
      const double bin_lo = lo * std::pow(hi / lo, b / double(bins));
      const double bin_hi = lo * std::pow(hi / lo, (b + 1) / double(bins));
      double err = 0, err_sec = 0;
      std::size_t count = 0;
      for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] < bin_lo || raw[i] >= bin_hi) continue;
        const double truth = std::max(eval.targets[i], 1e-9);
        err += (raw[i] - eval.targets[i]) / truth;
        err_sec += (model->sec(sched).correct(raw[i]) - eval.targets[i]) / truth;
        ++count;
      }
      if (count < 10) continue;
      table.add_row({util::fmt(bin_lo * 1e6, 3) + "-" + util::fmt(bin_hi * 1e6, 3) + " us",
                     std::to_string(count),
                     util::fmt(err / static_cast<double>(count), 3),
                     util::fmt(err_sec / static_cast<double>(count), 3)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }
  std::printf("expected shape (paper Fig. 6): non-monotonic but locally "
              "consistent errors, stable across schedulers — which is what "
              "makes the per-bin SEC correction work.\n");
  return 0;
}
