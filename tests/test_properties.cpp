// Property-based parameterized sweeps: every streaming routine must agree
// with the reference BLAS for arbitrary combinations of vectorization
// width, problem size and tile shape — including widths that do not
// divide the size, widths larger than the size, empty inputs, degenerate
// shapes, and both execution modes. Conservation invariants (every
// element pushed is popped) are asserted on every run.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "fblas/level3.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "refblas/level3.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::core {
namespace {

using stream::Graph;
using stream::Mode;

/// Checks the conservation invariant on every channel of a finished graph.
void expect_balanced(const Graph& g) {
  for (const auto& ch : g.channels()) {
    EXPECT_EQ(ch->total_pushed(), ch->total_popped())
        << "channel '" << ch->name() << "' left " << ch->size()
        << " elements buffered";
    EXPECT_EQ(ch->size(), 0u);
  }
}

// ---- Level 1 sweep ---------------------------------------------------------

class Level1Sweep
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t, int, int>> {
 protected:
  int width() const { return std::get<0>(GetParam()); }
  std::int64_t size() const { return std::get<1>(GetParam()); }
  Mode mode() const {
    return std::get<2>(GetParam()) == 0 ? Mode::Functional : Mode::Cycle;
  }
  bool single() const { return std::get<3>(GetParam()) == 0; }
};

/// Runs the map-routine checks for one scalar type.
template <typename T>
void check_map_routines(int w, std::int64_t n, Mode mode) {
  Workload wl(1000 + w + static_cast<unsigned>(n));
  auto hx = wl.vector<T>(n);
  auto hy = wl.vector<T>(n);
  {
    Graph g(mode);
    auto& in = g.channel<T>("x", 64);
    auto& out = g.channel<T>("o", 64);
    std::vector<T> got;
    g.spawn("feed", stream::feed(hx, in));
    g.spawn("scal", scal<T>({w}, n, T(3.25), in, out));
    g.spawn("collect", stream::collect<T>(n, out, got));
    g.run();
    auto expect = hx;
    ref::scal<T>(T(3.25), VectorView<T>(expect.data(), n));
    EXPECT_EQ(got, expect);
  }
  {
    Graph g(mode);
    auto& cx = g.channel<T>("x", 64);
    auto& cy = g.channel<T>("y", 64);
    auto& out = g.channel<T>("o", 64);
    std::vector<T> got;
    g.spawn("fx", stream::feed(hx, cx));
    g.spawn("fy", stream::feed(hy, cy));
    g.spawn("axpy", axpy<T>({w}, n, T(-0.75), cx, cy, out));
    g.spawn("collect", stream::collect<T>(n, out, got));
    g.run();
    auto expect = hy;
    ref::axpy<T>(T(-0.75), VectorView<const T>(hx.data(), n),
                 VectorView<T>(expect.data(), n));
    EXPECT_EQ(got, expect);
  }
}

TEST_P(Level1Sweep, MapRoutinesMatchOracle) {
  if (single()) {
    check_map_routines<float>(width(), size(), mode());
  } else {
    check_map_routines<double>(width(), size(), mode());
  }
}

TEST_P(Level1Sweep, ReduceRoutinesMatchOracle) {
  const int w = width();
  const std::int64_t n = size();
  if (single()) {
    // The reduction sweep below runs in double; for the float axis a
    // reduced check with float tolerance keeps both precisions covered.
    Workload wl(2500 + w + static_cast<unsigned>(n));
    auto hx = wl.vector<float>(n);
    auto hy = wl.vector<float>(n);
    Graph g(mode());
    auto& cx = g.channel<float>("x", 64);
    auto& cy = g.channel<float>("y", 64);
    auto& res = g.channel<float>("r", 2);
    std::vector<float> got;
    g.spawn("fx", stream::feed(hx, cx));
    g.spawn("fy", stream::feed(hy, cy));
    g.spawn("dot", dot<float>({w}, n, cx, cy, res));
    g.spawn("collect", stream::collect<float>(1, res, got));
    g.run();
    expect_balanced(g);
    double expect = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      expect += static_cast<double>(hx[static_cast<std::size_t>(i)]) *
                hy[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(got[0], expect, 1e-3 * std::max<std::int64_t>(n, 1));
    return;
  }
  Workload wl(2000 + w + static_cast<unsigned>(n));
  auto hx = wl.vector<double>(n);
  auto hy = wl.vector<double>(n);
  // dot
  {
    Graph g(mode());
    auto& cx = g.channel<double>("x", 64);
    auto& cy = g.channel<double>("y", 64);
    auto& res = g.channel<double>("r", 2);
    std::vector<double> got;
    g.spawn("fx", stream::feed(hx, cx));
    g.spawn("fy", stream::feed(hy, cy));
    g.spawn("dot", dot<double>({w}, n, cx, cy, res));
    g.spawn("collect", stream::collect<double>(1, res, got));
    g.run();
    expect_balanced(g);
    const double expect = ref::dot<double>(
        VectorView<const double>(hx.data(), n),
        VectorView<const double>(hy.data(), n));
    EXPECT_NEAR(got[0], expect, 1e-9 * std::max<std::int64_t>(n, 1));
  }
  // asum + iamax
  {
    Graph g(mode());
    auto& c1 = g.channel<double>("x1", 64);
    auto& c2 = g.channel<double>("x2", 64);
    auto& r1 = g.channel<double>("r1", 2);
    auto& r2 = g.channel<std::int64_t>("r2", 2);
    std::vector<double> o1;
    std::vector<std::int64_t> o2;
    g.spawn("f1", stream::feed(hx, c1));
    g.spawn("f2", stream::feed(hx, c2));
    g.spawn("asum", asum<double>({w}, n, c1, r1));
    g.spawn("iamax", iamax<double>({w}, n, c2, r2));
    g.spawn("c1", stream::collect<double>(1, r1, o1));
    g.spawn("c2", stream::collect<std::int64_t>(1, r2, o2));
    g.run();
    expect_balanced(g);
    EXPECT_NEAR(o1[0],
                ref::asum<double>(VectorView<const double>(hx.data(), n)),
                1e-9 * std::max<std::int64_t>(n, 1));
    EXPECT_EQ(o2[0],
              ref::iamax<double>(VectorView<const double>(hx.data(), n)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsSizesModes, Level1Sweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 16, 64),
                       ::testing::Values<std::int64_t>(0, 1, 2, 63, 64, 65,
                                                       1000),
                       ::testing::Values(0, 1), ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<Level1Sweep::ParamType>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_" +
             (std::get<2>(info.param) == 0 ? "func" : "cycle") + "_" +
             (std::get<3>(info.param) == 0 ? "f32" : "f64");
    });

// ---- GEMV sweep ------------------------------------------------------------

struct GemvCase {
  std::int64_t rows, cols, tile_r, tile_c;
  int width;
};

class GemvSweep : public ::testing::TestWithParam<GemvCase> {};

TEST_P(GemvSweep, AllVariantsMatchOracle) {
  const GemvCase& c = GetParam();
  Workload wl(3000 + static_cast<unsigned>(c.rows * 31 + c.cols));
  auto a = wl.matrix<double>(c.rows, c.cols);
  for (Transpose tr : {Transpose::None, Transpose::Trans}) {
    const std::int64_t xl = tr == Transpose::None ? c.cols : c.rows;
    const std::int64_t yl = tr == Transpose::None ? c.rows : c.cols;
    auto x = wl.vector<double>(xl);
    auto y = wl.vector<double>(yl);
    auto expect = y;
    ref::gemv<double>(tr, 1.5, MatrixView<const double>(a.data(), c.rows,
                                                        c.cols),
                      VectorView<const double>(x.data(), xl), -0.5,
                      VectorView<double>(expect.data(), yl));
    for (MatrixTiling tiling :
         {MatrixTiling::TilesByRows, MatrixTiling::TilesByCols}) {
      GemvConfig cfg{tr, tiling, c.width, c.tile_r, c.tile_c};
      Graph g;
      auto& ca = g.channel<double>("A", 64);
      auto& cx = g.channel<double>("x", 64);
      auto& cy = g.channel<double>("y", 64);
      auto& out = g.channel<double>("o", 64);
      std::vector<double> got;
      g.spawn("read_A",
              stream::read_matrix<double>(
                  MatrixView<const double>(a.data(), c.rows, c.cols),
                  gemv_a_schedule(cfg), 1, c.width, ca));
      g.spawn("read_x", stream::read_vector<double>(
                            VectorView<const double>(x.data(), xl),
                            gemv_x_repeat(cfg, c.rows, c.cols), c.width, cx));
      g.spawn("read_y", stream::read_vector<double>(
                            VectorView<const double>(y.data(), yl), 1,
                            c.width, cy));
      g.spawn("gemv", gemv<double>(cfg, c.rows, c.cols, 1.5, -0.5, ca, cx,
                                   cy, out));
      g.spawn("collect", stream::collect<double>(yl, out, got));
      g.run();
      expect_balanced(g);
      EXPECT_LT(rel_error(got, expect), 1e-10)
          << "rows=" << c.rows << " cols=" << c.cols << " tr=" << int(tr)
          << " tiling=" << int(tiling);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvSweep,
    ::testing::Values(GemvCase{1, 1, 1, 1, 1},      // scalar-sized
                      GemvCase{1, 17, 4, 4, 2},     // single row
                      GemvCase{17, 1, 4, 4, 2},     // single column
                      GemvCase{16, 16, 16, 16, 4},  // one exact tile
                      GemvCase{16, 16, 64, 64, 4},  // tile larger than A
                      GemvCase{30, 20, 7, 9, 5},    // nothing divides
                      GemvCase{64, 48, 16, 8, 16},  // rectangular tiles
                      GemvCase{23, 57, 23, 57, 8}), // tiles == shape
    [](const ::testing::TestParamInfo<GemvCase>& info) {
      const auto& c = info.param;
      return "r" + std::to_string(c.rows) + "c" + std::to_string(c.cols) +
             "_t" + std::to_string(c.tile_r) + "x" +
             std::to_string(c.tile_c) + "_w" + std::to_string(c.width);
    });

// ---- GEMM sweep ------------------------------------------------------------

struct GemmCase {
  std::int64_t m, n, k;
  int pr, pc;
  std::int64_t tr, tc;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesOracle) {
  const GemmCase& c = GetParam();
  Workload wl(4000 + static_cast<unsigned>(c.m * 7 + c.n * 3 + c.k));
  auto a = wl.matrix<double>(c.m, c.k);
  auto b = wl.matrix<double>(c.k, c.n);
  auto c0 = wl.matrix<double>(c.m, c.n);
  auto expect = c0;
  ref::gemm<double>(Transpose::None, Transpose::None, 2.0,
                    MatrixView<const double>(a.data(), c.m, c.k),
                    MatrixView<const double>(b.data(), c.k, c.n), 0.25,
                    MatrixView<double>(expect.data(), c.m, c.n));
  const GemmConfig cfg{c.pr, c.pc, c.tr, c.tc};
  Graph g;
  auto& ca = g.channel<double>("A", 256);
  auto& cb = g.channel<double>("B", 256);
  auto& cc = g.channel<double>("C", 256);
  auto& out = g.channel<double>("o", 256);
  std::vector<double> got(c.m * c.n);
  g.spawn("read_A", read_a_gemm<double>(
                        MatrixView<const double>(a.data(), c.m, c.k), cfg,
                        c.n, ca));
  g.spawn("read_B", read_b_gemm<double>(
                        MatrixView<const double>(b.data(), c.k, c.n), cfg,
                        c.m, cb));
  g.spawn("read_C",
          stream::read_matrix<double>(
              MatrixView<const double>(c0.data(), c.m, c.n),
              gemm_c_schedule(cfg), 1, cfg.pe_cols, cc));
  g.spawn("gemm",
          gemm<double>(cfg, c.m, c.n, c.k, 2.0, 0.25, ca, cb, cc, out));
  g.spawn("store",
          stream::write_matrix<double>(MatrixView<double>(got.data(), c.m,
                                                          c.n),
                                       gemm_c_schedule(cfg), cfg.pe_cols,
                                       out));
  g.run();
  expect_balanced(g);
  EXPECT_LT(rel_error(got, expect), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmCase{1, 1, 1, 1, 1, 1, 1},
                      GemmCase{1, 8, 8, 1, 2, 1, 4},
                      GemmCase{8, 1, 8, 2, 1, 4, 1},
                      GemmCase{8, 8, 1, 2, 2, 4, 4},
                      GemmCase{9, 7, 5, 2, 2, 4, 4},
                      GemmCase{16, 16, 16, 4, 2, 8, 8},
                      GemmCase{12, 20, 8, 3, 5, 6, 10},
                      GemmCase{32, 24, 16, 4, 4, 16, 8}),
    [](const ::testing::TestParamInfo<GemmCase>& info) {
      const auto& c = info.param;
      return "m" + std::to_string(c.m) + "n" + std::to_string(c.n) + "k" +
             std::to_string(c.k) + "_g" + std::to_string(c.pr) + "x" +
             std::to_string(c.pc) + "_t" + std::to_string(c.tr) + "x" +
             std::to_string(c.tc);
    });

// ---- Cross-width composition property --------------------------------------

TEST(CompositionProperty, MismatchedWidthsStillCorrect) {
  // Modules with different vectorization widths compose correctly: the
  // channels decouple their rates (backpressure handles the mismatch).
  Workload wl(5000);
  const std::int64_t n = 777;
  auto hx = wl.vector<double>(n);
  for (const auto mode : {Mode::Functional, Mode::Cycle}) {
    Graph g(mode);
    auto& a = g.channel<double>("a", 16);
    auto& b = g.channel<double>("b", 16);
    auto& c = g.channel<double>("c", 16);
    std::vector<double> got;
    g.spawn("feed", stream::feed(hx, a));
    g.spawn("wide", scal<double>({64}, n, 2.0, a, b));
    g.spawn("narrow", scal<double>({3}, n, 0.5, b, c));
    g.spawn("collect", stream::collect<double>(n, c, got));
    g.run();
    expect_balanced(g);
    EXPECT_EQ(got, hx);
  }
}

TEST(CompositionProperty, LongChainOfRoutines) {
  // A 6-deep chain: scal -> axpy -> rot -> swap -> copy -> dot, matching
  // the composed oracle computation.
  Workload wl(5001);
  const std::int64_t n = 256;
  auto hx = wl.vector<float>(n);
  auto hy = wl.vector<float>(n);
  Graph g;
  auto& cx0 = g.channel<float>("x0", 32);
  auto& cy0 = g.channel<float>("y0", 32);
  auto& cx1 = g.channel<float>("x1", 32);
  auto& cy1 = g.channel<float>("y1", 32);
  auto& cx2 = g.channel<float>("x2", 32);
  auto& cy2 = g.channel<float>("y2", 32);
  auto& cxb = g.channel<float>("xb", 32);
  auto& res = g.channel<float>("res", 2);
  std::vector<float> got;
  g.spawn("fx", stream::feed(hx, cx0));
  g.spawn("fy", stream::feed(hy, cy0));
  g.spawn("fxb", stream::feed(hx, cxb));
  g.spawn("scal", scal<float>({8}, n, 2.0f, cx0, cx1));
  g.spawn("axpy", axpy<float>({4}, n, 1.0f, cx1, cy0, cy1));   // y1 = 2x + y
  g.spawn("rot", rot<float>({16}, n, 0.6f, 0.8f, cy1, cxb, cx2, cy2));
  g.spawn("dot", dot<float>({8}, n, cx2, cy2, res));
  g.spawn("collect", stream::collect<float>(1, res, got));
  g.run();
  // Oracle.
  std::vector<float> ex = hx, ey = hy;
  ref::scal<float>(2.0f, VectorView<float>(ex.data(), n));
  ref::axpy<float>(1.0f, VectorView<const float>(ex.data(), n),
                   VectorView<float>(ey.data(), n));
  std::vector<float> rx = ey, ry = hx;
  ref::rot<float>(VectorView<float>(rx.data(), n),
                  VectorView<float>(ry.data(), n), 0.6f, 0.8f);
  const float expect = ref::dot<float>(VectorView<const float>(rx.data(), n),
                                       VectorView<const float>(ry.data(), n));
  EXPECT_NEAR(got[0], expect, 1e-2);
}

// ---- NRM2 extreme values ---------------------------------------------------
// The scaled sum-of-squares recurrence must survive the whole exponent
// range. Naive x^2 accumulation overflows to Inf near sqrt(max) and
// flushes denormal inputs to zero; both streaming and reference NRM2 use
// the same slassq recurrence, so they must agree exactly.

template <typename T>
T stream_nrm2(int w, const std::vector<T>& hx) {
  const std::int64_t n = static_cast<std::int64_t>(hx.size());
  Graph g;
  auto& cx = g.channel<T>("x", 64);
  auto& cr = g.channel<T>("r", 2);
  std::vector<T> got;
  g.spawn("feed", stream::feed(hx, cx));
  g.spawn("nrm2", nrm2<T>({w}, n, cx, cr));
  g.spawn("collect", stream::collect<T>(1, cr, got));
  g.run();
  expect_balanced(g);
  return got[0];
}

template <typename T>
void check_nrm2_extremes() {
  const T big = std::sqrt(std::numeric_limits<T>::max()) / T(2);
  const T tiny = std::numeric_limits<T>::denorm_min() * T(1 << 10);
  for (const int w : {1, 4, 16}) {
    {
      // 64 elements of ~sqrt(max)/2: the naive partial sum overflows
      // after four squares; the true norm (big * 8) is representable.
      const std::vector<T> hx(64, big);
      const T got = stream_nrm2<T>(w, hx);
      EXPECT_TRUE(std::isfinite(got));
      EXPECT_EQ(got, ref::nrm2<T>(VectorView<const T>(
                         hx.data(), static_cast<std::int64_t>(hx.size()))));
      EXPECT_EQ(got, big * T(8));
    }
    {
      // Denormal inputs: every square underflows to exactly zero, so the
      // naive norm is 0 — the scaled recurrence keeps the full value.
      const std::vector<T> hx(64, tiny);
      EXPECT_EQ(tiny * tiny, T(0));  // what naive accumulation would add
      const T got = stream_nrm2<T>(w, hx);
      EXPECT_GT(got, T(0));
      EXPECT_EQ(got, ref::nrm2<T>(VectorView<const T>(
                         hx.data(), static_cast<std::int64_t>(hx.size()))));
    }
    {
      // Mixed magnitudes spanning the exponent range: the largest value
      // dominates and the rescale path must not lose it.
      const std::vector<T> hx{T(1), tiny, big, T(-2), tiny, big};
      const T got = stream_nrm2<T>(w, hx);
      EXPECT_TRUE(std::isfinite(got));
      EXPECT_EQ(got, ref::nrm2<T>(VectorView<const T>(
                         hx.data(), static_cast<std::int64_t>(hx.size()))));
      EXPECT_GE(got, big);
    }
  }
}

TEST(Nrm2Extremes, FloatSurvivesOverflowAndDenormals) {
  check_nrm2_extremes<float>();
}

TEST(Nrm2Extremes, DoubleSurvivesOverflowAndDenormals) {
  check_nrm2_extremes<double>();
}

// ---- Adversarial inputs ----------------------------------------------------
// IEEE semantics under poisoned data: NaN/Inf must propagate (never be
// silently swallowed), empty vectors must be well-defined, and negative
// increments — unsupported by the streaming address generators — must be
// rejected loudly, not misread memory.

TEST(AdversarialInputs, NaNPropagatesThroughLevel1) {
  const std::int64_t n = 33;  // not a multiple of any width below
  Workload wl(6000);
  auto hx = wl.vector<float>(n);
  auto hy = wl.vector<float>(n);
  hx[7] = std::numeric_limits<float>::quiet_NaN();
  for (const int w : {1, 8}) {
    {
      Graph g;
      auto& cx = g.channel<float>("x", 32);
      auto& co = g.channel<float>("o", 32);
      std::vector<float> got;
      g.spawn("feed", stream::feed(hx, cx));
      g.spawn("scal", scal<float>({w}, n, 2.0f, cx, co));
      g.spawn("collect", stream::collect<float>(n, co, got));
      g.run();
      EXPECT_TRUE(std::isnan(got[7]));
      EXPECT_EQ(got[6], 2.0f * hx[6]);  // poison stays where it was
    }
    {
      Graph g;
      auto& cx = g.channel<float>("x", 32);
      auto& cy = g.channel<float>("y", 32);
      auto& cd = g.channel<float>("d", 2);
      std::vector<float> got;
      g.spawn("fx", stream::feed(hx, cx));
      g.spawn("fy", stream::feed(hy, cy));
      g.spawn("dot", dot<float>({w}, n, cx, cy, cd));
      g.spawn("collect", stream::collect<float>(1, cd, got));
      g.run();
      EXPECT_TRUE(std::isnan(got[0]));
    }
    {
      Graph g;
      auto& c1 = g.channel<float>("x1", 32);
      auto& c2 = g.channel<float>("x2", 32);
      auto& r1 = g.channel<float>("r1", 2);
      auto& r2 = g.channel<float>("r2", 2);
      std::vector<float> o1, o2;
      g.spawn("f1", stream::feed(hx, c1));
      g.spawn("f2", stream::feed(hx, c2));
      g.spawn("asum", asum<float>({w}, n, c1, r1));
      g.spawn("nrm2", nrm2<float>({w}, n, c2, r2));
      g.spawn("c1", stream::collect<float>(1, r1, o1));
      g.spawn("c2", stream::collect<float>(1, r2, o2));
      g.run();
      EXPECT_TRUE(std::isnan(o1[0]));
      EXPECT_TRUE(std::isnan(o2[0]));  // the scaled recurrence keeps NaN
    }
  }
}

TEST(AdversarialInputs, InfinityPropagatesThroughReductions) {
  const std::int64_t n = 17;
  Workload wl(6001);
  auto hx = wl.vector<double>(n);
  hx[5] = std::numeric_limits<double>::infinity();
  Graph g;
  auto& c1 = g.channel<double>("x1", 32);
  auto& c2 = g.channel<double>("x2", 32);
  auto& r1 = g.channel<double>("r1", 2);
  auto& r2 = g.channel<double>("r2", 2);
  std::vector<double> o1, o2;
  g.spawn("f1", stream::feed(hx, c1));
  g.spawn("f2", stream::feed(hx, c2));
  g.spawn("asum", asum<double>({4}, n, c1, r1));
  g.spawn("nrm2", nrm2<double>({4}, n, c2, r2));
  g.spawn("c1", stream::collect<double>(1, r1, o1));
  g.spawn("c2", stream::collect<double>(1, r2, o2));
  g.run();
  EXPECT_TRUE(std::isinf(o1[0]));
  EXPECT_TRUE(std::isinf(o2[0]));  // Inf survives the rescale path
}

TEST(AdversarialInputs, ZeroLengthVectorsAreWellDefined) {
  Graph g;
  auto& c1 = g.channel<double>("x1", 4);
  auto& c2 = g.channel<double>("x2", 4);
  auto& c3 = g.channel<double>("x3", 4);
  auto& r1 = g.channel<double>("r1", 2);
  auto& r2 = g.channel<double>("r2", 2);
  auto& r3 = g.channel<std::int64_t>("r3", 2);
  std::vector<double> o1, o2;
  std::vector<std::int64_t> o3;
  g.spawn("asum", asum<double>({8}, 0, c1, r1));
  g.spawn("nrm2", nrm2<double>({8}, 0, c2, r2));
  g.spawn("iamax", iamax<double>({8}, 0, c3, r3));
  g.spawn("c1", stream::collect<double>(1, r1, o1));
  g.spawn("c2", stream::collect<double>(1, r2, o2));
  g.spawn("c3", stream::collect<std::int64_t>(1, r3, o3));
  g.run();
  expect_balanced(g);
  EXPECT_EQ(o1[0], 0.0);
  EXPECT_EQ(o2[0], 0.0);
  EXPECT_EQ(o3[0], -1);
}

TEST(AdversarialInputs, NegativeIncrementsAreRejected) {
  // The streaming address generators only walk forward; a classical
  // BLAS negative increment must fail as a ConfigError at the view, which
  // the host API raises from the call itself (the operand views are
  // checked at enqueue) — never as a silent out-of-bounds walk.
  std::vector<float> v(8, 1.0f);
  EXPECT_THROW(VectorView<float>(v.data(), 8, -1), ConfigError);
  EXPECT_THROW(VectorView<float>(v.data(), 8, 0), ConfigError);

  host::Device dev;
  host::Context ctx(dev);
  host::Buffer<float> x(dev, 8, 0);
  x.write(v);
  EXPECT_THROW(ctx.scal_async<float>(8, 2.0f, x, -1), ConfigError);
  EXPECT_TRUE(ctx.idle());    // no command was queued
  EXPECT_EQ(x.to_host(), v);  // operand untouched by the rejected call
}

}  // namespace
}  // namespace fblas::core
