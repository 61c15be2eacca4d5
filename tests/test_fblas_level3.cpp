// Streaming Level-3 modules tested against the reference BLAS oracle:
// systolic-organized GEMM, SYRK via GEMM + the triangle writer, SYR2K,
// TRSM.
#include <gtest/gtest.h>

#include <vector>

#include "common/workload.hpp"
#include "fblas/level2.hpp"
#include "fblas/level3.hpp"
#include "host/detail.hpp"
#include "refblas/level3.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::core {
namespace {

using stream::Graph;
using stream::Mode;

template <typename T>
std::vector<T> run_gemm(const GemmConfig& cfg, std::int64_t m, std::int64_t n,
                        std::int64_t k, T alpha, T beta,
                        const std::vector<T>& a, const std::vector<T>& b,
                        const std::vector<T>& c, Mode mode = Mode::Functional,
                        std::uint64_t* cycles = nullptr) {
  Graph g(mode);
  auto& ca = g.channel<T>("A", 256);
  auto& cb = g.channel<T>("B", 256);
  auto& cc = g.channel<T>("Cin", 256);
  auto& out = g.channel<T>("out", 256);
  std::vector<T> result(m * n);
  g.spawn("read_a", read_a_gemm<T>(MatrixView<const T>(a.data(), m, k), cfg,
                                   n, ca));
  g.spawn("read_b", read_b_gemm<T>(MatrixView<const T>(b.data(), k, n), cfg,
                                   m, cb));
  if (beta != T(0)) {
    g.spawn("read_c",
            stream::read_matrix<T>(MatrixView<const T>(c.data(), m, n),
                                   gemm_c_schedule(cfg), 1, cfg.pe_cols, cc));
  }
  g.spawn("gemm", gemm<T>(cfg, m, n, k, alpha, beta, ca, cb, cc, out));
  g.spawn("store_c",
          stream::write_matrix<T>(MatrixView<T>(result.data(), m, n),
                                  gemm_c_schedule(cfg), cfg.pe_cols, out));
  g.run();
  if (cycles != nullptr) *cycles = g.cycles();
  return result;
}

template <typename T>
class StreamGemm : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(StreamGemm, Precisions);

TYPED_TEST(StreamGemm, MatchesOracleAcrossShapesAndTiles) {
  using T = TypeParam;
  Workload wl(301);
  struct Case {
    std::int64_t m, n, k;
    GemmConfig cfg;
  };
  const std::vector<Case> cases = {
      {8, 8, 8, {2, 2, 4, 4}},
      {16, 12, 20, {2, 2, 4, 4}},   // edge tiles on n
      {13, 9, 7, {2, 2, 4, 4}},     // nothing divides anything
      {16, 16, 16, {4, 4, 8, 8}},
      {10, 10, 5, {1, 1, 4, 4}},    // degenerate 1x1 "grid"
  };
  for (const auto& cs : cases) {
    auto a = wl.matrix<T>(cs.m, cs.k);
    auto b = wl.matrix<T>(cs.k, cs.n);
    auto c0 = wl.matrix<T>(cs.m, cs.n);
    auto expect = c0;
    ref::gemm<T>(Transpose::None, Transpose::None, T(1.5),
                 MatrixView<const T>(a.data(), cs.m, cs.k),
                 MatrixView<const T>(b.data(), cs.k, cs.n), T(0.5),
                 MatrixView<T>(expect.data(), cs.m, cs.n));
    auto got = run_gemm<T>(cs.cfg, cs.m, cs.n, cs.k, T(1.5), T(0.5), a, b, c0);
    EXPECT_LT(rel_error(got, expect), 1e-4)
        << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k;
  }
}

TYPED_TEST(StreamGemm, BetaZeroNeverReadsC) {
  using T = TypeParam;
  Workload wl(302);
  const std::int64_t m = 8, n = 8, k = 4;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c;  // empty: would crash if popped
  std::vector<T> expect(m * n, T(0));
  ref::gemm<T>(Transpose::None, Transpose::None, T(2),
               MatrixView<const T>(a.data(), m, k),
               MatrixView<const T>(b.data(), k, n), T(0),
               MatrixView<T>(expect.data(), m, n));
  auto got = run_gemm<T>(GemmConfig{2, 2, 4, 4}, m, n, k, T(2), T(0), a, b, c);
  EXPECT_LT(rel_error(got, expect), 1e-4);
}

TYPED_TEST(StreamGemm, CycleCountReflectsPeGridThroughput) {
  using T = TypeParam;
  Workload wl(303);
  const std::int64_t m = 16, n = 16, k = 16;
  auto a = wl.matrix<T>(m, k);
  auto b = wl.matrix<T>(k, n);
  std::vector<T> c;
  auto run_with = [&](GemmConfig cfg) {
    std::uint64_t cycles = 0;
    run_gemm<T>(cfg, m, n, k, T(1), T(0), a, b, c, Mode::Cycle, &cycles);
    return cycles;
  };
  // 4x more PEs at the same tile size => ~4x fewer compute cycles.
  const auto small = run_with(GemmConfig{2, 2, 8, 8});
  const auto big = run_with(GemmConfig{4, 4, 8, 8});
  EXPECT_GT(static_cast<double>(small) / static_cast<double>(big), 2.5);
}

TYPED_TEST(StreamGemm, SyrkViaGemmWithTriangularStore) {
  using T = TypeParam;
  Workload wl(304);
  const std::int64_t n = 12, k = 6;
  auto a = wl.matrix<T>(n, k);
  // Build A^T explicitly for the B-feed (the host API does this with a
  // transposed view read).
  std::vector<T> at(k * n);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t p = 0; p < k; ++p) at[p * n + i] = a[i * k + p];
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    std::vector<T> expect(n * n, T(0));
    ref::syrk<T>(uplo, Transpose::None, T(1),
                 MatrixView<const T>(a.data(), n, k), T(0),
                 MatrixView<T>(expect.data(), n, n));
    GemmConfig cfg{2, 2, 4, 4};
    Graph g;
    auto& ca = g.channel<T>("A", 128);
    auto& cb = g.channel<T>("B", 128);
    auto& cc = g.channel<T>("Cin", 4);
    auto& out = g.channel<T>("out", 128);
    std::vector<T> result(n * n, T(0));
    g.spawn("read_a", read_a_gemm<T>(MatrixView<const T>(a.data(), n, k), cfg,
                                     n, ca));
    g.spawn("read_b", read_b_gemm<T>(MatrixView<const T>(at.data(), k, n),
                                     cfg, n, cb));
    g.spawn("gemm", gemm<T>(cfg, n, n, k, T(1), T(0), ca, cb, cc, out));
    g.spawn("store", host::detail::write_matrix_uplo<T>(
                         MatrixView<T>(result.data(), n, n),
                         gemm_c_schedule(cfg), uplo, cfg.pe_cols, out));
    g.run();
    MatrixView<T> R(result.data(), n, n), E(expect.data(), n, n);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const bool in_tri = uplo == Uplo::Lower ? j <= i : j >= i;
        if (in_tri) {
          EXPECT_NEAR(R(i, j), E(i, j), 1e-3) << i << "," << j;
        } else {
          EXPECT_EQ(R(i, j), T(0)) << "outside triangle touched";
        }
      }
    }
  }
}

TYPED_TEST(StreamGemm, Syr2kMatchesOracle) {
  using T = TypeParam;
  Workload wl(305);
  const std::int64_t n = 10, k = 7;
  auto a = wl.matrix<T>(n, k);
  auto b = wl.matrix<T>(n, k);
  std::vector<T> at(k * n), bt(k * n);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      at[p * n + i] = a[i * k + p];
      bt[p * n + i] = b[i * k + p];
    }
  }
  std::vector<T> expect(n * n, T(0));
  ref::syr2k<T>(Uplo::Lower, Transpose::None, T(1.5),
                MatrixView<const T>(a.data(), n, k),
                MatrixView<const T>(b.data(), n, k), T(0),
                MatrixView<T>(expect.data(), n, n));
  GemmConfig cfg{2, 2, 4, 4};
  Graph g;
  auto& ca = g.channel<T>("A", 128);
  auto& cb = g.channel<T>("B", 128);
  auto& cat = g.channel<T>("At", 128);
  auto& cbt = g.channel<T>("Bt", 128);
  auto& cc = g.channel<T>("Cin", 4);
  auto& out = g.channel<T>("out", 128);
  std::vector<T> result(n * n, T(0));
  g.spawn("read_a", read_a_gemm<T>(MatrixView<const T>(a.data(), n, k), cfg,
                                   n, ca));
  g.spawn("read_bcol", read_a_gemm<T>(MatrixView<const T>(b.data(), n, k),
                                      cfg, n, cb));
  g.spawn("read_at", read_b_gemm<T>(MatrixView<const T>(at.data(), k, n), cfg,
                                    n, cat));
  g.spawn("read_bt", read_b_gemm<T>(MatrixView<const T>(bt.data(), k, n), cfg,
                                    n, cbt));
  g.spawn("syr2k",
          syr2k<T>(cfg, n, k, T(1.5), T(0), ca, cb, cat, cbt, cc, out));
  g.spawn("store", host::detail::write_matrix_uplo<T>(
                       MatrixView<T>(result.data(), n, n),
                       gemm_c_schedule(cfg), Uplo::Lower, cfg.pe_cols, out));
  g.run();
  MatrixView<T> R(result.data(), n, n), E(expect.data(), n, n);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(R(i, j), E(i, j), 1e-3) << i << "," << j;
    }
  }
}

template <typename T>
std::vector<T> run_trsm(const TrsmConfig& cfg, std::int64_t m, std::int64_t n,
                        T alpha, const std::vector<T>& a,
                        const std::vector<T>& b) {
  Graph g;
  auto& ca = g.channel<T>("A", 128);
  auto& cb = g.channel<T>("B", 128);
  auto& out = g.channel<T>("X", 128);
  std::vector<T> rows_in_solve_order;
  // B rows must arrive in solve order.
  std::vector<T> b_solve(m * n);
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = cfg.uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n; ++c) b_solve[s * n + c] = b[i * n + c];
  }
  g.spawn("read_a", read_triangular<T>(MatrixView<const T>(a.data(), m, m),
                                       cfg.uplo, cfg.width, ca));
  g.spawn("feed_b", stream::feed(b_solve, cb));
  g.spawn("trsm", trsm<T>(cfg, m, n, alpha, ca, cb, out));
  g.spawn("collect", stream::collect<T>(m * n, out, rows_in_solve_order));
  g.run();
  std::vector<T> x(m * n);
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = cfg.uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n; ++c) {
      x[i * n + c] = rows_in_solve_order[s * n + c];
    }
  }
  return x;
}

TYPED_TEST(StreamGemm, TrsmBothUplosMatchOracle) {
  using T = TypeParam;
  Workload wl(306);
  const std::int64_t m = 14, n = 9;
  for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (Diag dg : {Diag::NonUnit, Diag::Unit}) {
      auto a = wl.triangular<T>(m, uplo, dg);
      auto b = wl.matrix<T>(m, n);
      auto expect = b;
      ref::trsm<T>(Side::Left, uplo, Transpose::None, dg, T(1.5),
                   MatrixView<const T>(a.data(), m, m),
                   MatrixView<T>(expect.data(), m, n));
      TrsmConfig cfg{uplo, dg, 8};
      auto got = run_trsm<T>(cfg, m, n, T(1.5), a, b);
      EXPECT_LT(rel_error(got, expect), 1e-3)
          << "uplo=" << int(uplo) << " diag=" << int(dg);
    }
  }
}

TYPED_TEST(StreamGemm, ConfigValidation) {
  using T = TypeParam;
  (void)sizeof(T);
  GemmConfig bad{4, 4, 10, 8};  // TR not a multiple of PR
  EXPECT_THROW(bad.validate(), ConfigError);
  GemmConfig good{4, 4, 12, 8};
  EXPECT_NO_THROW(good.validate());
  EXPECT_DOUBLE_EQ(good.ratio(), 6.0);
}

TYPED_TEST(StreamGemm, IoOpsFormula) {
  using T = TypeParam;
  (void)sizeof(T);
  GemmConfig cfg{4, 4, 16, 16};
  // m=n=k=64, 4x4 C tiles: A read 4 times, B read 4 times, C written once.
  EXPECT_EQ(gemm_io_ops(cfg, 64, 64, 64, false),
            64 * 64 * 4 + 64 * 64 * 4 + 64 * 64);
  EXPECT_EQ(gemm_io_ops(cfg, 64, 64, 64, true),
            64 * 64 * 4 + 64 * 64 * 4 + 2 * 64 * 64);
}

}  // namespace
}  // namespace fblas::core
