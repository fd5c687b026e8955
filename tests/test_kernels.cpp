// Kernel-layer tests: GEMM backend parity against the retained naive
// reference (1e-10 relative, randomized shapes including odd sizes), fused
// epilogue parity, blocked transpose, workspace arena semantics, and the
// zero-allocation guarantee for steady-state inference (asserted with a
// global operator-new counting hook).
#include <gtest/gtest.h>

// This TU replaces the global allocation functions with malloc/free-backed
// counting versions (below). GCC pairs the *declared* ::operator new with
// std::free at inlined call sites and warns, even though the replacement
// really does allocate with malloc — a known false positive for replaced
// global news that forward to malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/features.hpp"
#include "core/ptm.hpp"
#include "nn/aligned.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/epilogue.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/gemm_tables.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "nn/seq.hpp"
#include "nn/seq_regressor.hpp"
#include "nn/workspace.hpp"
#include "obs/sink.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation hook: counts every path into the heap so the tests can
// assert that a steady-state forward pass performs zero allocations. The
// overrides forward to malloc/free, which keeps them sanitizer-compatible.

namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded))
    return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace dqn;
using nn::kernels::backend;

struct gemm_shape {
  std::size_t m, n, k;
};

// Odd sizes on purpose: they exercise every SIMD tail path (row tails < 4,
// column tails < 8/16, k tails).
constexpr gemm_shape kShapes[] = {
    {1, 1, 1},   {2, 3, 4},    {5, 7, 3},    {7, 5, 11},  {13, 17, 9},
    {16, 16, 16}, {21, 21, 16}, {33, 9, 17},  {4, 64, 8},  {64, 3, 5},
    {3, 31, 29},  {64, 64, 21}, {19, 128, 2}, {1, 40, 40}, {40, 1, 40},
};

void fill_random(std::vector<double>& v, util::rng& rng) {
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
}

double max_abs(const std::vector<double>& v) {
  double m = 0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

std::vector<backend> compiled_backends() {
  std::vector<backend> out{backend::blocked};
  if (nn::kernels::backend_supported(backend::avx2)) out.push_back(backend::avx2);
  if (nn::kernels::backend_supported(backend::avx512))
    out.push_back(backend::avx512);
  return out;
}

using gemm_call = void (*)(backend, const double*, const double*, double*,
                           std::size_t, std::size_t, std::size_t, bool);

void check_parity(gemm_call call, const gemm_shape& s) {
  util::rng rng{s.m * 1000003 + s.n * 1009 + s.k};
  // A holds m*k elements in every operand order (m×k or k×m), B holds k*n
  // (k×n or n×k), so one sizing covers nn/tn/nt alike.
  std::vector<double> a(s.m * s.k), b(s.k * s.n), c_init(s.m * s.n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c_init, rng);
  for (const bool accumulate : {false, true}) {
    std::vector<double> ref = c_init;
    call(backend::naive, a.data(), b.data(), ref.data(), s.m, s.n, s.k,
         accumulate);
    const double tol = 1e-10 * std::max(1.0, max_abs(ref));
    for (const backend be : compiled_backends()) {
      std::vector<double> got = c_init;
      call(be, a.data(), b.data(), got.data(), s.m, s.n, s.k, accumulate);
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_NEAR(ref[i], got[i], tol)
            << nn::kernels::to_string(be) << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " acc=" << accumulate << " at " << i;
    }
  }
}

TEST(gemm_kernels, nn_matches_naive_reference) {
  for (const auto& s : kShapes)
    check_parity(
        [](backend be, const double* a, const double* b, double* c,
           std::size_t m, std::size_t n, std::size_t k, bool acc) {
          nn::kernels::gemm_nn(be, a, b, c, m, n, k, acc);
        },
        s);
}

TEST(gemm_kernels, tn_matches_naive_reference) {
  for (const auto& s : kShapes)
    check_parity(
        [](backend be, const double* a, const double* b, double* c,
           std::size_t m, std::size_t n, std::size_t k, bool acc) {
          nn::kernels::gemm_tn(be, a, b, c, m, n, k, acc);
        },
        s);
}

TEST(gemm_kernels, nt_matches_naive_reference) {
  for (const auto& s : kShapes)
    check_parity(
        [](backend be, const double* a, const double* b, double* c,
           std::size_t m, std::size_t n, std::size_t k, bool acc) {
          nn::kernels::gemm_nt(be, a, b, c, m, n, k, acc);
        },
        s);
}

TEST(gemm_kernels, backend_tables_expose_compiled_backends) {
  // The scalar tables are always compiled in.
  EXPECT_TRUE(nn::kernels::detail::naive_table().complete());
  EXPECT_TRUE(nn::kernels::detail::blocked_table().complete());
  // A backend is only "supported" when its table was compiled in.
  if (!nn::kernels::detail::avx2_table().complete()) {
    EXPECT_FALSE(nn::kernels::backend_supported(backend::avx2));
  }
  if (!nn::kernels::detail::avx512_table().complete()) {
    EXPECT_FALSE(nn::kernels::backend_supported(backend::avx512));
  }
}

TEST(gemm_kernels, dispatch_force_and_reset) {
  const backend before = nn::kernels::active_backend();
  nn::kernels::force_backend(backend::naive);
  EXPECT_EQ(nn::kernels::active_backend(), backend::naive);
  nn::kernels::force_backend(backend::blocked);
  EXPECT_EQ(nn::kernels::active_backend(), backend::blocked);
  nn::kernels::reset_backend();
  // Without DQN_KERNEL_BACKEND, reset lands on the strongest supported
  // backend; naive is never auto-selected.
  EXPECT_EQ(nn::kernels::active_backend(),
            nn::kernels::best_supported_backend());
  EXPECT_NE(nn::kernels::active_backend(), backend::naive);
  nn::kernels::force_backend(before);
}

TEST(gemm_kernels, force_unsupported_backend_throws) {
  EXPECT_THROW(nn::kernels::force_backend(static_cast<backend>(250)),
               std::invalid_argument);
}

TEST(gemm_kernels, report_dispatch_records_gauge_and_event) {
  obs::sink sink;
  nn::kernels::report_dispatch(sink);
  EXPECT_EQ(sink.metrics().gauge("nn.kernel_backend"),
            static_cast<double>(nn::kernels::active_backend()));
}

TEST(gemm_kernels, transpose_blocked_matches_scalar) {
  util::rng rng{11};
  for (const auto& s : kShapes) {
    nn::matrix m{s.m, s.n};
    for (auto& x : m.data()) x = rng.uniform(-3.0, 3.0);
    const nn::matrix t = nn::transpose(m);
    ASSERT_EQ(t.rows(), s.n);
    ASSERT_EQ(t.cols(), s.m);
    for (std::size_t r = 0; r < s.m; ++r)
      for (std::size_t c = 0; c < s.n; ++c)
        ASSERT_EQ(m(r, c), t(c, r)) << s.m << "x" << s.n;
  }
}

// ---------------------------------------------------------------------------
// Fused epilogues: bit-identical to the unfused bias + activation sequence.

TEST(epilogue, bias_act_matches_unfused_for_all_activations) {
  util::rng rng{5};
  const std::size_t rows = 7, cols = 13;
  for (const auto act :
       {nn::activation::identity, nn::activation::relu, nn::activation::tanh,
        nn::activation::sigmoid}) {
    nn::matrix y{rows, cols};
    for (auto& v : y.data()) v = rng.uniform(-2.0, 2.0);
    nn::aligned_vector bias(cols);
    for (auto& v : bias) v = rng.uniform(-1.0, 1.0);

    nn::matrix ref = y;
    nn::add_row_vector(ref, bias);
    for (auto& v : ref.data()) v = nn::apply_activation(act, v);

    nn::kernels::bias_act(y.data().data(), bias.data(), rows, cols,
                          static_cast<nn::kernels::unary>(act));
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(ref.data()[i], y.data()[i]) << "act " << static_cast<int>(act);
  }
}

TEST(epilogue, lstm_gates_and_state_match_scalar_formulas) {
  util::rng rng{6};
  const std::size_t batch = 5, hidden = 9;
  nn::matrix z{batch, 4 * hidden};
  for (auto& v : z.data()) v = rng.uniform(-2.0, 2.0);
  nn::aligned_vector bias(4 * hidden);
  for (auto& v : bias) v = rng.uniform(-1.0, 1.0);
  nn::matrix c{batch, hidden};
  for (auto& v : c.data()) v = rng.uniform(-1.0, 1.0);
  nn::matrix h{batch, hidden};

  // Scalar reference, the exact formulas lstm::step uses.
  const auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  nn::matrix c_ref{batch, hidden}, h_ref{batch, hidden};
  nn::matrix gates_ref{batch, 4 * hidden};
  for (std::size_t bi = 0; bi < batch; ++bi)
    for (std::size_t j = 0; j < hidden; ++j) {
      const double gi = sigmoid(z(bi, j) + bias[j]);
      const double gf = sigmoid(z(bi, hidden + j) + bias[hidden + j]);
      const double gg = std::tanh(z(bi, 2 * hidden + j) + bias[2 * hidden + j]);
      const double go = sigmoid(z(bi, 3 * hidden + j) + bias[3 * hidden + j]);
      gates_ref(bi, j) = gi;
      gates_ref(bi, hidden + j) = gf;
      gates_ref(bi, 2 * hidden + j) = gg;
      gates_ref(bi, 3 * hidden + j) = go;
      const double cn = gf * c(bi, j) + gi * gg;
      c_ref(bi, j) = cn;
      h_ref(bi, j) = go * std::tanh(cn);
    }

  nn::kernels::lstm_gates(z.data().data(), bias.data(), batch, hidden);
  for (std::size_t i = 0; i < z.size(); ++i)
    ASSERT_EQ(gates_ref.data()[i], z.data()[i]);
  nn::kernels::lstm_state(z.data().data(), c.data().data(), h.data().data(),
                          batch, hidden);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(c_ref.data()[i], c.data()[i]);
    ASSERT_EQ(h_ref.data()[i], h.data()[i]);
  }
}

// ---------------------------------------------------------------------------
// Workspace arena semantics.

TEST(workspace, reset_reuses_slots_without_growing) {
  nn::workspace ws;
  nn::matrix& a = ws.take(8, 16);
  nn::seq_batch& s = ws.take_seq(4, 7, 3);
  const std::size_t grown = ws.grow_count();
  EXPECT_GT(grown, 0u);
  EXPECT_GT(ws.bytes(), 0u);
  double* const a_ptr = a.data().data();
  double* const s_ptr = s.data().data();
  for (int pass = 0; pass < 5; ++pass) {
    ws.reset();
    nn::matrix& a2 = ws.take(8, 16);
    nn::seq_batch& s2 = ws.take_seq(4, 7, 3);
    EXPECT_EQ(a2.data().data(), a_ptr);
    EXPECT_EQ(s2.data().data(), s_ptr);
  }
  EXPECT_EQ(ws.grow_count(), grown);
}

TEST(workspace, shrinking_shapes_do_not_grow) {
  nn::workspace ws;
  (void)ws.take(32, 32);
  const std::size_t grown = ws.grow_count();
  ws.reset();
  nn::matrix& small = ws.take(4, 4);
  EXPECT_EQ(small.rows(), 4u);
  EXPECT_EQ(small.cols(), 4u);
  EXPECT_EQ(ws.grow_count(), grown);  // capacity retained, no new allocation
}

TEST(workspace, slot_references_stay_stable_as_arena_grows) {
  nn::workspace ws;
  nn::matrix& first = ws.take(3, 3);
  first.fill(42.0);
  for (int i = 0; i < 100; ++i) (void)ws.take(5, 5);
  EXPECT_EQ(first(0, 0), 42.0);  // deque-backed: no reallocation moved it
  EXPECT_EQ(ws.slots_in_use(), 101u);
}

TEST(workspace, take_zeroed_clears_previous_contents) {
  nn::workspace ws;
  ws.take(4, 4).fill(9.0);
  ws.reset();
  nn::matrix& z = ws.take_zeroed(4, 4);
  for (double v : z.data()) EXPECT_EQ(v, 0.0);
}

// ---------------------------------------------------------------------------
// Workspace (inference) forward paths agree with the training forward
// bit-for-bit, and the steady state allocates nothing.

nn::seq_batch random_batch(std::size_t batch, std::size_t time,
                           std::size_t features, util::rng& rng) {
  nn::seq_batch x{batch, time, features};
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  return x;
}

TEST(workspace_forward, seq_regressor_matches_training_forward_exactly) {
  util::rng rng{21};
  nn::seq_regressor_config cfg;
  cfg.input_dim = 6;
  cfg.lstm_hidden = {8, 4};
  cfg.heads = 2;
  cfg.key_dim = 4;
  cfg.value_dim = 4;
  cfg.attention_out = 8;
  cfg.head_hidden = 8;
  nn::seq_regressor net{cfg, rng};
  const nn::seq_batch x = random_batch(5, 9, 6, rng);
  const nn::matrix ref = net.forward(x);
  nn::workspace ws;
  ws.reset();
  const nn::matrix& got = net.forward(x, ws);
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref.data()[i], got.data()[i]);
}

TEST(workspace_forward, mlp_and_dense_match_training_forward_exactly) {
  util::rng rng{22};
  nn::mlp net{{7, 11, 5, 1}, nn::activation::tanh, rng};
  nn::matrix x{9, 7};
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  const nn::matrix ref = net.forward(x);
  nn::workspace ws;
  const nn::matrix& got = net.forward(x, ws);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref.data()[i], got.data()[i]);

  nn::dense layer{7, 3, nn::activation::sigmoid, rng};
  const nn::matrix dref = layer.forward(x);
  ws.reset();
  const nn::matrix& dgot = layer.forward(x, ws);
  ASSERT_EQ(dgot.size(), dref.size());
  for (std::size_t i = 0; i < dref.size(); ++i)
    EXPECT_EQ(dref.data()[i], dgot.data()[i]);
}

TEST(workspace_forward, bilstm_matches_training_forward_exactly) {
  util::rng rng{23};
  nn::bilstm layer{5, 6, rng};
  const nn::seq_batch x = random_batch(4, 7, 5, rng);
  const nn::seq_batch ref = layer.forward(x);
  nn::workspace ws;
  const nn::seq_batch& got = layer.forward(x, ws);
  ASSERT_EQ(got.data().size(), ref.data().size());
  for (std::size_t i = 0; i < ref.data().size(); ++i)
    EXPECT_EQ(ref.data()[i], got.data()[i]);
}

TEST(workspace_forward, steady_state_seq_regressor_is_allocation_free) {
  util::rng rng{24};
  nn::seq_regressor_config cfg;
  cfg.input_dim = 6;
  cfg.lstm_hidden = {8, 4};
  cfg.heads = 2;
  cfg.key_dim = 4;
  cfg.value_dim = 4;
  cfg.attention_out = 8;
  cfg.head_hidden = 8;
  nn::seq_regressor net{cfg, rng};
  const nn::seq_batch x = random_batch(5, 9, 6, rng);
  nn::workspace ws;
  // Warm up: the first pass grows the arena to its high-water shapes.
  for (int i = 0; i < 2; ++i) {
    ws.reset();
    (void)net.forward(x, ws);
  }
  const std::size_t grown = ws.grow_count();
  ws.reset();
  const std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const nn::matrix& out = net.forward(x, ws);
  const std::size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state forward allocated";
  EXPECT_EQ(ws.grow_count(), grown);
  EXPECT_EQ(out.rows(), 5u);
}

TEST(workspace_forward, steady_state_mlp_is_allocation_free) {
  util::rng rng{25};
  nn::mlp net{{14, 16, 8, 1}, nn::activation::tanh, rng};
  nn::matrix x{21, 14};
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  nn::workspace ws;
  for (int i = 0; i < 2; ++i) {
    ws.reset();
    (void)net.forward(x, ws);
  }
  ws.reset();
  const std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const nn::matrix& out = net.forward(x, ws);
  const std::size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(out.rows(), 21u);
}

// ---------------------------------------------------------------------------
// PTM integration: the workspace predict overload agrees with the legacy
// signature and exports the nn.workspace_bytes gauge.

core::ptm_model tiny_trained_ptm(obs::sink* sink = nullptr) {
  core::ptm_config cfg;
  cfg.arch = core::ptm_arch::mlp;
  cfg.time_steps = 4;
  cfg.mlp_hidden = {8};
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.sink = sink;
  core::ptm_model model{cfg};
  util::rng rng{31};
  core::ptm_dataset data;
  data.time_steps = cfg.time_steps;
  const std::size_t count = 32;
  data.windows.resize(count * cfg.time_steps * core::feature_count);
  for (auto& v : data.windows) v = rng.uniform(0.0, 1.0);
  data.targets.resize(count);
  for (auto& v : data.targets) v = rng.uniform(1e-6, 1e-3);
  (void)model.train(data);
  return model;
}

TEST(ptm_workspace, independent_workspaces_agree_and_reuse_arena) {
  obs::sink sink;
  const core::ptm_model model = tiny_trained_ptm(&sink);
  util::rng rng{32};
  std::vector<double> windows(6 * 4 * core::feature_count);
  for (auto& v : windows) v = rng.uniform(0.0, 1.0);

  // A workspace is scratch only: two fresh arenas give the same bits.
  nn::workspace other;
  const auto reference = model.predict(windows, other);
  nn::workspace ws;
  const auto with_ws = model.predict(windows, ws);
  ASSERT_EQ(reference.size(), with_ws.size());
  EXPECT_EQ(std::memcmp(reference.data(), with_ws.data(),
                        reference.size() * sizeof(double)),
            0);

  // Arena stops growing after the first pass over this shape.
  const std::size_t grown = ws.grow_count();
  for (int i = 0; i < 3; ++i) (void)model.predict(windows, ws);
  EXPECT_EQ(ws.grow_count(), grown);

  // The gauge reflects the arena's footprint.
  EXPECT_EQ(sink.metrics().gauge("nn.workspace_bytes"),
            static_cast<double>(ws.bytes()));
}

// A window's prediction does not depend on the batch it runs in: predict on
// every stride-th make_windows window gives, bit for bit, the full-batch
// outputs at those indices, under every GEMM backend. The tiered backend's
// sampled error-budget probe relies on this.
TEST(ptm_workspace, strided_window_subset_matches_full_batch_bitwise) {
  const core::ptm_model model = tiny_trained_ptm();
  const std::size_t steps = model.config().time_steps;
  const std::size_t window_size = steps * core::feature_count;
  util::rng rng{34};
  std::vector<double> rows(301 * core::feature_count);
  for (auto& v : rows) v = rng.uniform(0.0, 1.0);
  const auto windows = core::make_windows(rows, steps);
  const std::size_t n = windows.size() / window_size;
  constexpr std::size_t stride = 7;
  std::vector<double> subset;
  for (std::size_t i = 0; i < n; i += stride)
    subset.insert(subset.end(),
                  windows.begin() + static_cast<std::ptrdiff_t>(i * window_size),
                  windows.begin() + static_cast<std::ptrdiff_t>((i + 1) * window_size));

  std::vector<backend> backends{backend::naive};
  for (const backend be : compiled_backends()) backends.push_back(be);
  for (const backend be : backends) {
    SCOPED_TRACE(nn::kernels::to_string(be));
    nn::kernels::force_backend(be);
    nn::workspace ws;
    const auto full = model.predict(windows, ws);
    const auto sampled = model.predict(subset, ws);
    ASSERT_EQ(full.size(), n);
    ASSERT_EQ(sampled.size(), (n + stride - 1) / stride);
    for (std::size_t k = 0; k < sampled.size(); ++k)
      EXPECT_EQ(std::memcmp(&sampled[k], &full[k * stride], sizeof(double)), 0)
          << "window " << k * stride;
  }
  nn::kernels::reset_backend();
}

// ---------------------------------------------------------------------------
// PTM front end: the fused pass, which scales each distinct feature row once,
// is bit-identical to the per-element formula it replaced (copy, log1p,
// transform_one) on make_windows output, on shuffled windows where nothing is
// reused, and on signed zeros and constant features.

constexpr std::size_t front_end_steps = 4;

// Random feature rows with a constant scheduler one-hot and protocol, and a
// priority of exactly +0.0, 1 or 2, so the fitted priority minimum is +0.0
// and -0.0 scales to a different bit pattern than +0.0.
std::vector<double> front_end_rows(std::size_t n, util::rng& rng) {
  std::vector<double> rows(n * core::feature_count);
  for (std::size_t r = 0; r < n; ++r) {
    double* row = rows.data() + r * core::feature_count;
    for (std::size_t f = 0; f < core::feature_count; ++f)
      row[f] = rng.uniform(0.0, 2.0);
    for (std::size_t f = core::f_sched_fifo; f <= core::f_sched_wfq; ++f)
      row[f] = f == core::f_sched_fifo ? 1.0 : 0.0;
    row[core::f_protocol] = 1.0;
    row[core::f_priority] = static_cast<double>(rng.uniform_int(3));
  }
  return rows;
}

// The per-element front end, with the scaler fitted the same way.
std::vector<double> logged_per_element(std::span<const double> windows) {
  std::vector<double> out(windows.begin(), windows.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double scale = core::feature_log_scale[i % core::feature_count];
    if (scale > 0) out[i] = std::log1p(out[i] / scale);
  }
  return out;
}

std::vector<double> scaled_per_element(std::span<const double> windows,
                                       const nn::min_max_scaler& scaler) {
  std::vector<double> out = logged_per_element(windows);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = scaler.transform_one(i % core::feature_count, out[i]);
  return out;
}

void expect_front_end_bit_identical(const char* input,
                                    const core::ptm_model& model,
                                    const nn::min_max_scaler& scaler,
                                    std::span<const double> windows) {
  SCOPED_TRACE(input);
  const std::vector<double> reference = scaled_per_element(windows, scaler);
  std::vector<double> fused(windows.size(), -1.0);
  model.scale_windows_into(windows, fused);
  EXPECT_EQ(std::memcmp(reference.data(), fused.data(),
                        reference.size() * sizeof(double)),
            0);
}

TEST(ptm_front_end, fused_scaling_is_bit_identical_to_per_element_formula) {
  util::rng rng{33};
  core::ptm_dataset data;
  data.time_steps = front_end_steps;
  data.windows = core::make_windows(front_end_rows(40, rng), front_end_steps);
  data.targets.resize(data.count());
  for (auto& v : data.targets) v = rng.uniform(1e-6, 1e-3);
  core::ptm_config cfg;
  cfg.time_steps = front_end_steps;
  cfg.mlp_hidden = {8};
  cfg.epochs = 1;
  cfg.batch_size = 8;
  core::ptm_model model{cfg};
  (void)model.train(data);
  // train() fits on the rows its own row-reusing log pass produced; the
  // reference fits on the per-element log, so a fit that differs shows here.
  nn::min_max_scaler scaler;
  scaler.fit(logged_per_element(data.windows), core::feature_count);

  // (a) make_windows output, where every window after the first reuses, and
  // a series shorter than a window (front padding repeats the first row).
  const auto windows = core::make_windows(front_end_rows(25, rng), front_end_steps);
  expect_front_end_bit_identical("make_windows", model, scaler, windows);
  expect_front_end_bit_identical(
      "front padding", model, scaler,
      core::make_windows(front_end_rows(2, rng), front_end_steps));

  // (b) The same windows in shuffled order: no neighbour repeats.
  const std::size_t window_size = front_end_steps * core::feature_count;
  const std::size_t n = windows.size() / window_size;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<double> shuffled(windows.size());
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(windows.begin() + static_cast<std::ptrdiff_t>(order[i] * window_size),
                window_size, shuffled.begin() + static_cast<std::ptrdiff_t>(i * window_size));
  expect_front_end_bit_identical("shuffled", model, scaler, shuffled);

  // (c) Signed zeros: -0.0 and +0.0 compare equal but scale to different
  // bits, so a window whose shared rows differ from its predecessor's only
  // in the sign of a zero must not reuse them. Row 3 carries -0.0 length and
  // priority in every window, and window 5 alone flips row 3's priority back
  // to +0.0 (row 3 sits at position 1 of window 5 and position 2 of window 6).
  auto rows = front_end_rows(12, rng);
  rows[3 * core::feature_count + core::f_len] = -0.0;
  rows[3 * core::feature_count + core::f_priority] = -0.0;
  auto signed_zeros = core::make_windows(rows, front_end_steps);
  const std::size_t flipped = (5 * front_end_steps + 1) * core::feature_count;
  signed_zeros[flipped + core::f_priority] = 0.0;
  const auto reference = scaled_per_element(signed_zeros, scaler);
  ASSERT_FALSE(std::signbit(reference[flipped + core::f_priority]));
  ASSERT_TRUE(std::signbit(reference[flipped + window_size - core::feature_count +
                                     core::f_priority]));
  // The constant features (scheduler one-hot, protocol) scale to 0.
  EXPECT_EQ(reference[flipped + core::f_protocol], 0.0);
  expect_front_end_bit_identical("signed zeros", model, scaler, signed_zeros);
}

}  // namespace
