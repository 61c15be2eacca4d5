// Composed-application tests (Sec. V / VI-C): numerical agreement of the
// compiled streaming compositions, host-layer baselines and CPU
// references; the ATAX deadlock/channel-sizing behaviour; cycle-mode
// speedups of the compiled compositions over the host-layer versions (the
// Fig. 11 effect).
#include <gtest/gtest.h>

#include <vector>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "apps/gesummv.hpp"
#include "common/workload.hpp"
#include "mdag/auto_partition.hpp"
#include "mdag/io_volume.hpp"
#include "mdag/validity.hpp"

namespace fblas::apps {
namespace {

using stream::Mode;

template <typename T>
class Apps : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(Apps, Precisions);

// A Stratix 10 board whose context carries the streaming knobs (W, TN)
// a composition is built and compiled with.
struct Board {
  host::Device dev{sim::DeviceId::Stratix10};
  host::Context ctx;

  Board(Mode mode, int width, std::int64_t tile = 64) : ctx(dev, mode) {
    ctx.config().width = width;
    ctx.config().tile_rows = tile;
    ctx.config().tile_cols = tile;
  }
  template <typename T>
  host::Buffer<T> upload(const std::vector<T>& host, int bank) {
    host::Buffer<T> b(dev, static_cast<std::int64_t>(host.size()),
                      bank % dev.bank_count());
    b.write(host);
    return b;
  }
  template <typename T>
  host::Buffer<T> zeros(std::int64_t n, int bank) {
    return upload(std::vector<T>(static_cast<std::size_t>(n), T(0)), bank);
  }
};

// Compiled ATAX on a fresh board; `budget` is the composition's channel
// depth budget and `pin` (when > 0) pins the direct A channel.
template <typename T>
std::vector<T> run_atax(Mode mode, int width, std::int64_t tile,
                        std::int64_t n, std::int64_t m,
                        const std::vector<T>& a, const std::vector<T>& x,
                        std::int64_t budget = 1 << 16, std::int64_t pin = 0) {
  Board b(mode, width, tile);
  auto ba = b.upload(a, 0);
  auto bx = b.upload(x, 1);
  auto by = b.zeros<T>(m, 2);
  auto c = atax_composition<T>(b.ctx, n, m, ba, bx, by);
  c.max_channel_depth(budget);
  if (pin > 0) c.pin_channel_depth(kAtaxDirectAEdge, pin);
  b.ctx.run_composition(c);
  return by.to_host();
}

// Components the compiler plans for ATAX under a channel depth budget.
std::size_t atax_components(int width, std::int64_t tile, std::int64_t n,
                            std::int64_t m, std::int64_t budget) {
  Board b(Mode::Functional, width, tile);
  host::Buffer<float> a(b.dev, n * m), x(b.dev, m), y(b.dev, m);
  const auto c = atax_composition<float>(b.ctx, n, m, a, x, y);
  mdag::CompileOptions co;
  co.width = width;
  co.max_channel_depth = budget;
  return mdag::compile(c.graph(), c.semantics(), co).order.size();
}

TYPED_TEST(Apps, AxpydotStreamingMatchesCpu) {
  using T = TypeParam;
  Workload wl(701);
  const std::int64_t n = 500;
  auto w = wl.vector<T>(n);
  auto v = wl.vector<T>(n);
  auto u = wl.vector<T>(n);
  const T alpha = T(0.75);
  const T expect = axpydot_cpu<T>(VectorView<const T>(w.data(), n),
                                  VectorView<const T>(v.data(), n),
                                  VectorView<const T>(u.data(), n), alpha);
  Board b(Mode::Functional, 16);
  const T got = axpydot_composed<T>(b.ctx, n, b.upload(w, 0), b.upload(v, 1),
                                    b.upload(u, 2), alpha);
  EXPECT_NEAR(got, expect, 1e-3 * n);
}

TYPED_TEST(Apps, AxpydotHostLayerMatchesCpu) {
  using T = TypeParam;
  Workload wl(702);
  const std::int64_t n = 300;
  auto w = wl.vector<T>(n);
  auto v = wl.vector<T>(n);
  auto u = wl.vector<T>(n);
  host::Device dev;
  host::Context ctx(dev);
  const auto got = axpydot_host_layer<T>(ctx, VectorView<const T>(w.data(), n),
                                         VectorView<const T>(v.data(), n),
                                         VectorView<const T>(u.data(), n),
                                         T(1.5));
  const T expect = axpydot_cpu<T>(VectorView<const T>(w.data(), n),
                                  VectorView<const T>(v.data(), n),
                                  VectorView<const T>(u.data(), n), T(1.5));
  EXPECT_NEAR(got.beta, expect, 1e-3 * n);
}

TEST(AppsSpeedup, AxpydotStreamingBeatsHostLayer) {
  // Cycle-mode speedup: paper expects ~3 from the model and ~4 measured
  // (the host-layer AXPY reads and writes z on one bank).
  Workload wl(703);
  const std::int64_t n = 1 << 14;
  auto w = wl.vector<float>(n);
  auto v = wl.vector<float>(n);
  auto u = wl.vector<float>(n);
  Board s(Mode::Cycle, 16);
  const float beta = axpydot_composed<float>(
      s.ctx, n, s.upload(w, 0), s.upload(v, 1), s.upload(u, 2), 2.0f);
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, Mode::Cycle);
  ctx.config().width = 16;
  const auto host = axpydot_host_layer<float>(
      ctx, VectorView<const float>(w.data(), n),
      VectorView<const float>(v.data(), n),
      VectorView<const float>(u.data(), n), 2.0f);
  EXPECT_NEAR(host.beta, beta, 1e-2);
  const double speedup = static_cast<double>(host.cycles) /
                         static_cast<double>(s.ctx.total_cycles());
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 6.0);
}

TYPED_TEST(Apps, BicgStreamingMatchesCpu) {
  using T = TypeParam;
  Workload wl(704);
  const std::int64_t n = 48, m = 36;
  auto a = wl.matrix<T>(n, m);
  auto p = wl.vector<T>(m);
  auto r = wl.vector<T>(n);
  const auto expect = bicg_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(p.data(), m),
                                  VectorView<const T>(r.data(), n));
  Board b(Mode::Functional, 8, 16);
  auto q = b.zeros<T>(n, 2);
  auto s = b.zeros<T>(m, 3);
  bicg_composed<T>(b.ctx, n, m, b.upload(a, 0), b.upload(p, 1),
                   b.upload(r, 1), q, s);
  EXPECT_LT(rel_error(q.to_host(), expect.q), 1e-4);
  EXPECT_LT(rel_error(s.to_host(), expect.s), 1e-4);
}

TYPED_TEST(Apps, BicgHostLayerMatchesCpu) {
  using T = TypeParam;
  Workload wl(705);
  const std::int64_t n = 32, m = 24;
  auto a = wl.matrix<T>(n, m);
  auto p = wl.vector<T>(m);
  auto r = wl.vector<T>(n);
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().width = 8;
  ctx.config().tile_rows = 16;
  ctx.config().tile_cols = 16;
  const auto got = bicg_host_layer<T>(ctx, MatrixView<const T>(a.data(), n, m),
                                      VectorView<const T>(p.data(), m),
                                      VectorView<const T>(r.data(), n));
  const auto expect = bicg_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(p.data(), m),
                                  VectorView<const T>(r.data(), n));
  EXPECT_LT(rel_error(got.q, expect.q), 1e-4);
  EXPECT_LT(rel_error(got.s, expect.s), 1e-4);
}

TEST(AppsSpeedup, BicgStreamingReadsAOnce) {
  // The streaming version halves the A traffic; the speedup is bounded by
  // ~2 and the paper measures <= 1.45.
  Workload wl(706);
  const std::int64_t n = 256, m = 256;
  auto a = wl.matrix<float>(n, m);
  auto p = wl.vector<float>(m);
  auto r = wl.vector<float>(n);
  Board b(Mode::Cycle, 16, 64);
  auto q = b.zeros<float>(n, 2);
  auto s = b.zeros<float>(m, 3);
  bicg_composed<float>(b.ctx, n, m, b.upload(a, 0), b.upload(p, 1),
                       b.upload(r, 1), q, s);
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, Mode::Cycle);
  ctx.config().width = 16;
  ctx.config().tile_rows = 64;
  ctx.config().tile_cols = 64;
  const auto host = bicg_host_layer<float>(
      ctx, MatrixView<const float>(a.data(), n, m),
      VectorView<const float>(p.data(), m),
      VectorView<const float>(r.data(), n));
  const double speedup = static_cast<double>(host.cycles) /
                         static_cast<double>(b.ctx.total_cycles());
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 3.0);
}

TYPED_TEST(Apps, AtaxStreamingWithSizedChannelMatchesCpu) {
  using T = TypeParam;
  Workload wl(707);
  const std::int64_t n = 40, m = 24;
  const std::int64_t tile = 8;
  auto a = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  const auto expect = atax_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(x.data(), m));
  // The default budget holds a row of tiles: the compiler sizes the
  // direct A channel and streams the whole graph as one component.
  ASSERT_EQ(atax_components(4, tile, n, m, 1 << 16), 1u);
  const auto got = run_atax<T>(Mode::Functional, 4, tile, n, m, a, x);
  EXPECT_LT(rel_error(got, expect), 1e-3);
}

TYPED_TEST(Apps, AtaxUndersizedChannelDeadlocks) {
  using T = TypeParam;
  Workload wl(708);
  const std::int64_t n = 40, m = 24, tile = 8;
  auto a = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  // A direct A channel pinned much smaller than a row of tiles: the
  // composition stalls forever, exactly as the Sec. V-B analysis predicts.
  EXPECT_THROW(run_atax<T>(Mode::Functional, 4, tile, n, m, a, x, 1 << 16,
                           /*pin=*/tile),
               DeadlockError);
}

TYPED_TEST(Apps, AtaxSplitMatchesCpu) {
  using T = TypeParam;
  Workload wl(709);
  const std::int64_t n = 32, m = 20, tile = 8;
  auto a = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  const auto expect = atax_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(x.data(), m));
  // A budget below one row of tiles: the compiler splits the graph and
  // both GEMVs read A on their own.
  ASSERT_EQ(atax_components(4, tile, n, m, 16), 2u);
  const auto got = run_atax<T>(Mode::Functional, 4, tile, n, m, a, x, 16);
  EXPECT_LT(rel_error(got, expect), 1e-3);
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().width = 4;
  ctx.config().tile_rows = tile;
  ctx.config().tile_cols = tile;
  const auto host = atax_host_layer<T>(ctx, MatrixView<const T>(a.data(), n, m),
                                       VectorView<const T>(x.data(), m));
  EXPECT_LT(rel_error(host.y, expect), 1e-3);
}

TYPED_TEST(Apps, AtaxAutoPlannedMatchesCpuBothWays) {
  using T = TypeParam;
  Workload wl(715);
  const std::int64_t n = 40, m = 24, tile = 8;
  auto a = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  const auto expect = atax_cpu<T>(MatrixView<const T>(a.data(), n, m),
                                  VectorView<const T>(x.data(), m));
  // Generous on-chip budget: the planner sizes the channel and streams.
  ASSERT_EQ(atax_components(4, tile, n, m, 1 << 16), 1u);
  const auto streamed =
      run_atax<T>(Mode::Functional, 4, tile, n, m, a, x, 1 << 16);
  EXPECT_LT(rel_error(streamed, expect), 1e-3);
  // Tiny budget: the planner falls back to the split schedule.
  ASSERT_EQ(atax_components(4, tile, n, m, 16), 2u);
  const auto split = run_atax<T>(Mode::Functional, 4, tile, n, m, a, x, 16);
  EXPECT_LT(rel_error(split, expect), 1e-3);
}

// Compiled GEMVER on a fresh board; returns {B, x, w} and the cycles.
template <typename T>
GemverResult<T> run_gemver(Mode mode, int width, std::int64_t tile,
                           std::int64_t n, T alpha, T beta, Workload& wl) {
  Board bd(mode, width, tile);
  auto a = bd.upload(wl.matrix<T>(n, n), 0);
  auto u1 = bd.upload(wl.vector<T>(n), 1);
  auto v1 = bd.upload(wl.vector<T>(n), 2);
  auto u2 = bd.upload(wl.vector<T>(n), 3);
  auto v2 = bd.upload(wl.vector<T>(n), 1);
  auto y = bd.upload(wl.vector<T>(n), 2);
  auto z = bd.upload(wl.vector<T>(n), 3);
  auto b = bd.zeros<T>(n * n, 1);
  auto x = bd.zeros<T>(n, 2);
  auto w = bd.zeros<T>(n, 3);
  gemver_composed<T>(bd.ctx, n, alpha, beta, a, u1, v1, u2, v2, y, z, b, x,
                     w);
  return {b.to_host(), x.to_host(), w.to_host(), bd.ctx.total_cycles()};
}

TYPED_TEST(Apps, GemverStreamingMatchesCpu) {
  using T = TypeParam;
  Workload wl(710);
  const std::int64_t n = 32, tile = 8;
  auto a = wl.matrix<T>(n, n);
  auto u1 = wl.vector<T>(n);
  auto v1 = wl.vector<T>(n);
  auto u2 = wl.vector<T>(n);
  auto v2 = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  auto z = wl.vector<T>(n);
  const T alpha = T(1.25), beta = T(0.75);
  auto cv = [n](const std::vector<T>& v) {
    return VectorView<const T>(v.data(), n);
  };
  const auto expect =
      gemver_cpu<T>(alpha, beta, MatrixView<const T>(a.data(), n, n), cv(u1),
                    cv(v1), cv(u2), cv(v2), cv(y), cv(z));
  Workload same(710);  // same seed => same operands, drawn in order
  const auto got =
      run_gemver<T>(Mode::Functional, 4, tile, n, alpha, beta, same);
  EXPECT_LT(rel_error(got.b, expect.b), 1e-3);
  EXPECT_LT(rel_error(got.x, expect.x), 1e-3);
  EXPECT_LT(rel_error(got.w, expect.w), 1e-3);
}

TYPED_TEST(Apps, GemverHostLayerMatchesCpu) {
  using T = TypeParam;
  Workload wl(711);
  const std::int64_t n = 24;
  auto a = wl.matrix<T>(n, n);
  auto u1 = wl.vector<T>(n);
  auto v1 = wl.vector<T>(n);
  auto u2 = wl.vector<T>(n);
  auto v2 = wl.vector<T>(n);
  auto y = wl.vector<T>(n);
  auto z = wl.vector<T>(n);
  auto cv = [n](const std::vector<T>& v) {
    return VectorView<const T>(v.data(), n);
  };
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().width = 4;
  ctx.config().tile_rows = 8;
  ctx.config().tile_cols = 8;
  const auto expect =
      gemver_cpu<T>(T(2), T(0.5), MatrixView<const T>(a.data(), n, n), cv(u1),
                    cv(v1), cv(u2), cv(v2), cv(y), cv(z));
  const auto got = gemver_host_layer<T>(
      ctx, T(2), T(0.5), MatrixView<const T>(a.data(), n, n), cv(u1), cv(v1),
      cv(u2), cv(v2), cv(y), cv(z));
  EXPECT_LT(rel_error(got.b, expect.b), 1e-3);
  EXPECT_LT(rel_error(got.x, expect.x), 1e-3);
  EXPECT_LT(rel_error(got.w, expect.w), 1e-3);
}

TEST(AppsSpeedup, GemverStreamingBeatsHostLayer) {
  Workload wl(712);
  const std::int64_t n = 128, tile = 32;
  auto a = wl.matrix<float>(n, n);
  auto u1 = wl.vector<float>(n);
  auto v1 = wl.vector<float>(n);
  auto u2 = wl.vector<float>(n);
  auto v2 = wl.vector<float>(n);
  auto y = wl.vector<float>(n);
  auto z = wl.vector<float>(n);
  auto cv = [n](const std::vector<float>& v) {
    return VectorView<const float>(v.data(), n);
  };
  Workload same(712);
  const auto streaming =
      run_gemver<float>(Mode::Cycle, 16, tile, n, 1.5f, 0.5f, same);
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, stream::Mode::Cycle);
  ctx.config().width = 16;
  ctx.config().tile_rows = tile;
  ctx.config().tile_cols = tile;
  const auto host = gemver_host_layer<float>(
      ctx, 1.5f, 0.5f, MatrixView<const float>(a.data(), n, n), cv(u1),
      cv(v1), cv(u2), cv(v2), cv(y), cv(z));
  const double speedup = static_cast<double>(host.cycles) /
                         static_cast<double>(streaming.cycles);
  // Paper Fig. 11: GEMVER speedup ~2-3.
  EXPECT_GT(speedup, 1.6);
  EXPECT_LT(speedup, 5.0);
}

// Compiled GESUMMV on a fresh board; returns y and the cycles.
template <typename T>
GesummvResult<T> run_gesummv(Mode mode, int width, std::int64_t tile,
                             T alpha, T beta, std::int64_t n, std::int64_t m,
                             const std::vector<T>& a, const std::vector<T>& b,
                             const std::vector<T>& x) {
  Board bd(mode, width, tile);
  auto y = bd.zeros<T>(n, 3);
  gesummv_composed<T>(bd.ctx, n, m, alpha, beta, bd.upload(a, 0),
                      bd.upload(b, 1), bd.upload(x, 2), y);
  return {y.to_host(), bd.ctx.total_cycles()};
}

TYPED_TEST(Apps, GesummvStreamingMatchesCpu) {
  using T = TypeParam;
  Workload wl(716);
  const std::int64_t n = 36, m = 28, tile = 8;
  auto a = wl.matrix<T>(n, m);
  auto b = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  const auto expect = gesummv_cpu<T>(
      T(1.5), T(-0.5), MatrixView<const T>(a.data(), n, m),
      MatrixView<const T>(b.data(), n, m), VectorView<const T>(x.data(), m));
  const auto got = run_gesummv<T>(Mode::Functional, 4, tile, T(1.5), T(-0.5),
                                  n, m, a, b, x);
  EXPECT_LT(rel_error(got.y, expect), 1e-3);
}

TYPED_TEST(Apps, GesummvHostLayerMatchesCpu) {
  using T = TypeParam;
  Workload wl(717);
  const std::int64_t n = 24, m = 20;
  auto a = wl.matrix<T>(n, m);
  auto b = wl.matrix<T>(n, m);
  auto x = wl.vector<T>(m);
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().width = 4;
  ctx.config().tile_rows = 8;
  ctx.config().tile_cols = 8;
  const auto got = gesummv_host_layer<T>(
      ctx, T(2), T(0.5), MatrixView<const T>(a.data(), n, m),
      MatrixView<const T>(b.data(), n, m), VectorView<const T>(x.data(), m));
  const auto expect = gesummv_cpu<T>(
      T(2), T(0.5), MatrixView<const T>(a.data(), n, m),
      MatrixView<const T>(b.data(), n, m), VectorView<const T>(x.data(), m));
  EXPECT_LT(rel_error(got.y, expect), 1e-3);
}

TEST(AppsSpeedup, GesummvStreamingBeatsHostLayer) {
  // Both matrices stream once each, x is broadcast, and the three modules
  // (2 GEMVs + ADD) overlap — the host layer pays an extra intermediate
  // round trip and runs the calls back to back.
  Workload wl(718);
  const std::int64_t n = 256, tile = 64;
  auto a = wl.matrix<float>(n, n);
  auto b = wl.matrix<float>(n, n);
  auto x = wl.vector<float>(n);
  const auto streaming = run_gesummv<float>(Mode::Cycle, 16, tile, 1.5f,
                                            0.5f, n, n, a, b, x);
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, Mode::Cycle);
  ctx.config().width = 16;
  ctx.config().tile_rows = tile;
  ctx.config().tile_cols = tile;
  const auto host = gesummv_host_layer<float>(
      ctx, 1.5f, 0.5f, MatrixView<const float>(a.data(), n, n),
      MatrixView<const float>(b.data(), n, n),
      VectorView<const float>(x.data(), n));
  EXPECT_LT(rel_error(host.y, streaming.y), 1e-3);
  const double speedup = static_cast<double>(host.cycles) /
                         static_cast<double>(streaming.cycles);
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 3.5);
}

TEST(AppMdags, GesummvShowsTheAnalysisIsConservative) {
  // GESUMMV is a non-multitree (x reaches the ADD through both GEMVs, and
  // so the Sec. V rule flags it), yet the compiled runs above stream it
  // with small channels: the two sibling paths have *identical* lag (both
  // GEMVs emit block ti after the same tile-row), so neither side ever
  // builds up unbounded backlog. The vertex-disjoint-path criterion is
  // sufficient-for-danger, not necessary — the paper's "invalid graphs
  // CAN occur" phrasing, made precise.
  const auto g = gesummv_mdag(1024, 1024, 64);
  EXPECT_FALSE(mdag::is_multitree(g));
  EXPECT_FALSE(mdag::validate(g).valid);  // the conservative verdict
  // The planner still produces a safe plan (sized channels or a split).
  mdag::PlanOptions opt;
  opt.max_channel_depth = 1 << 20;
  const auto plan = mdag::derive_plan(g, opt);
  EXPECT_TRUE(plan.feasible);
}

// ---- MDAG cross-checks --------------------------------------------------

TEST(AppMdags, ValidityMatchesPaper) {
  EXPECT_TRUE(mdag::validate(axpydot_mdag(1024)).valid);
  EXPECT_TRUE(mdag::validate(bicg_mdag(1024, 512, 64)).valid);
  EXPECT_FALSE(mdag::validate(atax_mdag(1024, 1024, 64)).valid);
  EXPECT_FALSE(mdag::validate(gemver_mdag(1024, 64)).valid);
}

TEST(AppMdags, IoVolumesMatchSec5) {
  const std::int64_t n = 1024;
  EXPECT_EQ(mdag::total_io_ops(axpydot_mdag(n)), 3 * n + 1);
  // BICG: A once + replayed p + r + q + s.
  const auto bicg = bicg_mdag(n, n, 64);
  EXPECT_EQ(mdag::total_io_ops(bicg), n * n + n * (n / 64) + 3 * n);
}

}  // namespace
}  // namespace fblas::apps
