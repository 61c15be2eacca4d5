// ABFT result verification: checksum checkers at the unit level, and the
// end-to-end silent-data-corruption story — an unverified run provably
// misses silent faults, a verified run catches every one and recovers
// bit-identically through the existing retry/rollback/fallback runtime.
//
// Silent corruption decisions hash (seed, command seq, attempt), like
// every other injected fault, so each test here is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "common/error.hpp"
#include "common/workload.hpp"
#include "fblas/level2.hpp"
#include "host/buffer.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "mdag/compile.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "verify/graph_checker.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "refblas/level3.hpp"
#include "verify/abft.hpp"
#include "verify/options.hpp"
#include "verify/policy.hpp"

namespace fblas {
namespace {

constexpr double kScale = 32.0;  // default verify::Options tolerance_scale

host::RetryPolicy fast_retry(int max_retries, bool cpu_fallback = false) {
  host::RetryPolicy p;
  p.max_retries = max_retries;
  p.backoff = std::chrono::microseconds(0);
  p.cpu_fallback = cpu_fallback;
  return p;
}

// --- verify::Options: the unified knob surface ---------------------------

TEST(VerifyOptions, BuilderRoundTripAndValidation) {
  const verify::Options o = verify::Options::sampled(0.5)
                                .tolerance_scale(8.0)
                                .seed(7)
                                .trap_nonfinite()
                                .adaptive();
  EXPECT_EQ(o.policy(), verify::VerifyPolicy::Sampled);
  EXPECT_DOUBLE_EQ(o.sample_rate(), 0.5);
  EXPECT_DOUBLE_EQ(o.tolerance_scale(), 8.0);
  EXPECT_EQ(o.seed(), 7u);
  EXPECT_TRUE(o.trap_nonfinite());
  EXPECT_TRUE(o.adaptive());
  EXPECT_TRUE(o.enabled());
  EXPECT_FALSE(verify::Options::off().enabled());
  EXPECT_EQ(verify::Options::always().policy(), verify::VerifyPolicy::Always);
  EXPECT_EQ(o, o);
  EXPECT_NE(o, verify::Options::always());

  EXPECT_NO_THROW(o.validate());
  EXPECT_THROW(verify::Options::sampled(1.5).validate(), ConfigError);
  EXPECT_THROW(verify::Options::sampled(-0.1).validate(), ConfigError);
  EXPECT_THROW(verify::Options::always().tolerance_scale(0.0).validate(),
               ConfigError);
}

// --- Composition predictions ----------------------------------------------

TEST(VerifyChecksum, TrsvPredictionMatchesSolutionChecksum) {
  // A one-TRSV composition's predicted output stream: x = op(A)^{-1} b
  // has no linear pullback onto b (the inverse is dense), so the
  // prediction forward-solves the triangular system in double — every
  // uplo/trans/diag variant must agree with refblas on sum(x).
  const std::int64_t n = 13;
  Workload wl(90);
  host::Device dev;
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Transpose trans : {Transpose::None, Transpose::Trans}) {
      for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
        const auto ha = wl.triangular<double>(n, uplo, diag);
        const auto hb = wl.vector<double>(n);
        host::Buffer<double> a(dev, n * n, 0), b(dev, n, 1), x(dev, n, 2);
        a.write(ha);
        b.write(hb);
        host::Composition<double> c("trsv");
        const int ra = c.input_triangular("read_A", a, uplo, trans);
        const int rb = c.input("read_b", b);
        const int wx = c.output("write_x", x);
        const int tr = c.trsv("trsv", uplo, trans, diag);
        c.connect(ra, tr, mdag::StreamSig::vec(n * (n + 1) / 2));
        c.connect(rb, tr, mdag::StreamSig::vec(n));
        c.connect(tr, wx, mdag::StreamSig::vec(n));
        const auto p = host::predict_checksums(
            c, mdag::compile(c.graph(), c.semantics(), c.compile_options(4)));
        ASSERT_EQ(p.audits.size(), 1u);
        const verify::EdgeChecksum pred = p.audits[0].second;

        std::vector<double> sol = hb;  // ref::trsv solves in place
        ref::trsv<double>(uplo, trans, diag,
                          MatrixView<const double>(ha.data(), n, n),
                          VectorView<double>(sol.data(), n));
        double direct = 0.0, mag = 0.0;
        for (double v : sol) {
          direct += v;
          mag += std::abs(v);
        }
        EXPECT_NEAR(pred.pred, direct,
                    1e-9 * std::max(1.0, std::abs(direct)))
            << "uplo=" << static_cast<int>(uplo)
            << " trans=" << static_cast<int>(trans)
            << " diag=" << static_cast<int>(diag);
        EXPECT_NEAR(pred.mag, mag, 1e-9 * std::max(1.0, mag));
        // The bound scales with the n^2 multiply-accumulates of the solve
        // on top of the n terms of b.
        EXPECT_EQ(pred.terms, n * n + n);
      }
    }
  }
}

TEST(VerifyComposed, TrsvCompositionChecksumLocalizesCorruption) {
  // A compiled TRSV composition: triangular reader -> solver -> writer.
  // Clean runs verify against the forward-solve prediction; a corrupted
  // in-flight value is rejected with the first divergent edge naming the
  // injector's ground-truth channel, and retries recover bit-identically.
  const std::int64_t n = 48;
  Workload wl(91);
  const auto ha = wl.triangular<float>(n, Uplo::Lower, Diag::NonUnit);
  const auto hb = wl.vector<float>(n);

  auto run = [&](bool with_fault, int retries) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_fault) {
      host::FaultConfig fc;
      fc.seed = 35;
      fc.channel_corrupt_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(retries));
    ctx.config().verification = verify::Options::always();
    host::Buffer<float> a(dev, n * n, 0), b(dev, n, 1), x(dev, n, 2);
    a.write(ha);
    b.write(hb);
    x.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));

    host::Composition<float> c("trsv_solve");
    const int ra = c.input_triangular("read_A", a, Uplo::Lower);
    const int rb = c.input("read_b", b);
    const int wx = c.output("store_x", x);
    const int tr = c.trsv("trsv", Uplo::Lower);
    c.connect(ra, tr, mdag::StreamSig::vec(n * (n + 1) / 2));
    c.connect(rb, tr, mdag::StreamSig::vec(n));
    c.connect(tr, wx, mdag::StreamSig::vec(n));
    std::string diagnosis;
    host::Event e = ctx.run_composition_async(c);
    try {
      e.wait();
    } catch (const VerificationError& err) {
      diagnosis = err.what();
    }
    return std::make_tuple(x.to_host(), diagnosis, ctx.exec_stats(),
                           dev.faults().last_victim());
  };

  // Clean, verified run agrees with refblas.
  const auto [clean, clean_diag, clean_stats, cv] = run(false, 0);
  EXPECT_TRUE(clean_diag.empty());
  EXPECT_EQ(clean_stats.verify_failures, 0u);
  std::vector<float> ref = hb;
  ref::trsv<float>(Uplo::Lower, Transpose::None, Diag::NonUnit,
                   MatrixView<const float>(ha.data(), n, n),
                   VectorView<float>(ref.data(), n));
  ASSERT_EQ(clean.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(clean[i], ref[i], 1e-3) << "at index " << i;
  }

  // Corrupted without retries: rejected, localized to the ground truth.
  const auto [dirty, diag, dstats, victim] = run(true, 0);
  ASSERT_FALSE(diag.empty());
  EXPECT_NE(diag.find("composition 'trsv_solve'"), std::string::npos);
  EXPECT_NE(diag.find("first divergent edge"), std::string::npos);
  ASSERT_FALSE(victim.empty());
  EXPECT_NE(diag.find("edge '" + victim + "'"), std::string::npos);
  EXPECT_EQ(dstats.sdc_caught, 1u);

  // Corrupted with a retry budget: bit-identical to the clean run.
  const auto [rec, rec_diag, rstats, rv] = run(true, 2);
  EXPECT_TRUE(rec_diag.empty());
  EXPECT_EQ(rec, clean);
  EXPECT_EQ(rstats.sdc_caught, 1u);
  EXPECT_EQ(rstats.retries, 1u);
}

// --- GraphChecker over a GER-shaped module graph ---------------------------
// The rank-1 update partition the mdag planner emits: read_A / read_x /
// read_y feeding the GER module, writing the updated panel out. The out
// edge is predicted from the DRAM operands alone.

template <typename T>
void run_ger_checked(verify::GraphChecker& chk, std::int64_t rows,
                     std::int64_t cols, T alpha, const std::vector<T>& a,
                     const std::vector<T>& x, const std::vector<T>& y,
                     std::vector<T>& out_a, std::uint64_t corrupt_at,
                     std::string* victim) {
  const core::GerConfig cfg{core::MatrixTiling::TilesByRows, 4, 16, 16};
  stream::Graph g(stream::Mode::Functional);
  auto& ca = g.channel<T>("A", 128);
  auto& cx = g.channel<T>("x", 128);
  auto& cy = g.channel<T>("y", 128);
  auto& out = g.channel<T>("out", 128);
  const auto sched = core::ger_a_schedule(cfg);
  g.spawn("read_A",
          stream::read_matrix<T>(MatrixView<const T>(a.data(), rows, cols),
                                 sched, 1, cfg.width, ca));
  g.spawn("read_x",
          stream::read_vector<T>(VectorView<const T>(x.data(), rows),
                                 core::ger_x_repeat(cfg, rows, cols),
                                 cfg.width, cx));
  g.spawn("read_y",
          stream::read_vector<T>(VectorView<const T>(y.data(), cols),
                                 core::ger_y_repeat(cfg, rows, cols),
                                 cfg.width, cy));
  g.spawn("ger", core::ger<T>(cfg, rows, cols, alpha, ca, cx, cy, out));
  g.spawn("write_A",
          stream::write_matrix<T>(MatrixView<T>(out_a.data(), rows, cols),
                                  sched, cfg.width, out));
  if (corrupt_at != 0) g.scheduler().corrupt_push(corrupt_at);
  chk.arm(g);
  g.run();
  chk.capture(g);
  if (victim != nullptr && g.scheduler().corruption_fired()) {
    *victim = g.scheduler().corrupted_channel();
  }
}

TEST(VerifyChecksum, GerGraphCheckerAcceptsCleanAndLocalizesCorruption) {
  using T = float;
  const std::int64_t rows = 13, cols = 9;
  const T alpha = T(0.5);
  Workload wl(96);
  const auto ha = wl.matrix<T>(rows, cols);
  const auto hx = wl.vector<T>(rows);
  const auto hy = wl.vector<T>(cols);
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  const core::GerConfig cfg{core::MatrixTiling::TilesByRows, 4, 16, 16};

  // Predictions computed here in double, as the composition compiler's
  // forward replay does: sum, magnitude and terms of each stream.
  const auto checksum = [](const auto& v, std::int64_t repeat) {
    verify::EdgeChecksum c;
    for (const auto x : v) {
      c.pred += static_cast<double>(x);
      c.mag += std::abs(static_cast<double>(x));
    }
    c.pred *= static_cast<double>(repeat);
    c.mag *= static_cast<double>(repeat);
    c.terms = static_cast<std::int64_t>(v.size()) * repeat;
    return c;
  };
  std::vector<double> updated(ha.size());
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      const auto k = static_cast<std::size_t>(i * cols + j);
      updated[k] = static_cast<double>(ha[k]) +
                   static_cast<double>(alpha) *
                       static_cast<double>(hx[static_cast<std::size_t>(i)]) *
                       static_cast<double>(hy[static_cast<std::size_t>(j)]);
    }
  }
  auto expect_edges = [&](verify::GraphChecker& chk) {
    chk.reset("ger");
    // Edges in topological order: operands, then the module's output.
    chk.expect("A", checksum(ha, 1), eps);
    chk.expect("x", checksum(hx, core::ger_x_repeat(cfg, rows, cols)), eps);
    chk.expect("y", checksum(hy, core::ger_y_repeat(cfg, rows, cols)), eps);
    verify::EdgeChecksum out = checksum(updated, 1);
    out.terms = rows * cols + rows * cols;  // A0 plus the x_i y_j products
    chk.expect("out", out, eps);
  };

  {  // Clean run: all four edges match their predictions.
    verify::GraphChecker chk;
    expect_edges(chk);
    std::vector<T> out(static_cast<std::size_t>(rows * cols), T(0));
    run_ger_checked<T>(chk, rows, cols, alpha, ha, hx, hy, out, 0, nullptr);
    EXPECT_NO_THROW(chk.check(kScale));
    // The realized panel is the reference rank-1 update.
    auto aref = ha;
    ref::ger(alpha, VectorView<const T>(hx.data(), rows),
             VectorView<const T>(hy.data(), cols),
             MatrixView<T>(aref.data(), rows, cols));
    EXPECT_EQ(out, aref);
  }
  {  // One in-flight value flipped: the checker rejects and names exactly
     // the channel the corruption crossed.
    verify::GraphChecker chk;
    expect_edges(chk);
    std::vector<T> out(static_cast<std::size_t>(rows * cols), T(0));
    std::string victim;
    run_ger_checked<T>(chk, rows, cols, alpha, ha, hx, hy, out, 40, &victim);
    ASSERT_FALSE(victim.empty());
    try {
      chk.check(kScale);
      FAIL() << "expected VerificationError";
    } catch (const VerificationError& err) {
      const std::string msg = err.what();
      EXPECT_NE(msg.find("composition 'ger'"), std::string::npos);
      EXPECT_NE(msg.find("edge '" + victim + "'"), std::string::npos);
      EXPECT_NE(msg.find("first divergent edge"), std::string::npos);
    }
  }
}

// --- Checker unit tests --------------------------------------------------
// Each checker must accept the reference result of the routine it guards
// (no false positives on clean data) and reject a single corrupted
// element (no false negatives on damage far above rounding).

TEST(VerifyCheckers, GemmRowAndColumnChecksums) {
  const std::int64_t m = 12, n = 10, k = 8;
  Workload wl(70);
  const auto ha = wl.matrix<double>(m, k);
  const auto hb = wl.matrix<double>(k, n);
  const auto hc = wl.matrix<double>(m, n);
  const auto chk = verify::gemm_prepare<double>(
      Transpose::None, Transpose::None, m, n, k, 1.5,
      MatrixView<const double>(ha.data(), m, k),
      MatrixView<const double>(hb.data(), k, n), 0.5,
      MatrixView<const double>(hc.data(), m, n));

  auto c = hc;
  ref::gemm(Transpose::None, Transpose::None, 1.5,
            MatrixView<const double>(ha.data(), m, k),
            MatrixView<const double>(hb.data(), k, n), 0.5,
            MatrixView<double>(c.data(), m, n));
  EXPECT_NO_THROW(verify::gemm_check<double>(
      chk, MatrixView<const double>(c.data(), m, n), kScale));

  auto bad = c;
  bad[static_cast<std::size_t>(3 * n + 7)] += 1e-3;
  try {
    verify::gemm_check<double>(chk, MatrixView<const double>(bad.data(), m, n),
                               kScale);
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gemm"), std::string::npos);
    EXPECT_NE(msg.find("silent data corruption"), std::string::npos);
  }
}

TEST(VerifyCheckers, GemmTransposedOperandsChecksum) {
  const std::int64_t m = 9, n = 11, k = 7;
  Workload wl(71);
  const auto ha = wl.matrix<double>(k, m);  // A^T storage
  const auto hb = wl.matrix<double>(n, k);  // B^T storage
  const auto hc = wl.matrix<double>(m, n);
  const auto chk = verify::gemm_prepare<double>(
      Transpose::Trans, Transpose::Trans, m, n, k, -0.75,
      MatrixView<const double>(ha.data(), k, m),
      MatrixView<const double>(hb.data(), n, k), 2.0,
      MatrixView<const double>(hc.data(), m, n));

  auto c = hc;
  ref::gemm(Transpose::Trans, Transpose::Trans, -0.75,
            MatrixView<const double>(ha.data(), k, m),
            MatrixView<const double>(hb.data(), n, k), 2.0,
            MatrixView<double>(c.data(), m, n));
  EXPECT_NO_THROW(verify::gemm_check<double>(
      chk, MatrixView<const double>(c.data(), m, n), kScale));
  c[1] *= 1.0 + 1e-6;
  EXPECT_THROW(verify::gemm_check<double>(
                   chk, MatrixView<const double>(c.data(), m, n), kScale),
               VerificationError);
}

TEST(VerifyCheckers, SyrkTriangleMaskedChecksums) {
  const std::int64_t n = 10, k = 6;
  Workload wl(72);
  const auto ha = wl.matrix<double>(n, k);
  const auto hc = wl.matrix<double>(n, n);
  const auto chk = verify::syrk_prepare<double>(
      Uplo::Lower, Transpose::None, n, k, 1.25,
      MatrixView<const double>(ha.data(), n, k), 0.5,
      MatrixView<const double>(hc.data(), n, n));

  auto c = hc;
  ref::syrk(Uplo::Lower, Transpose::None, 1.25,
            MatrixView<const double>(ha.data(), n, k), 0.5,
            MatrixView<double>(c.data(), n, n));
  EXPECT_NO_THROW(verify::check_rowsums<double>(
      chk, "syrk", MatrixView<const double>(c.data(), n, n), kScale));

  // Corruption inside the stored (lower) triangle is caught...
  auto bad = c;
  bad[static_cast<std::size_t>(7 * n + 2)] += 1e-4;
  EXPECT_THROW(
      verify::check_rowsums<double>(
          chk, "syrk", MatrixView<const double>(bad.data(), n, n), kScale),
      VerificationError);
  // ...while the strict upper triangle is outside SYRK's write-set, so
  // the tri mask must ignore it (BLAS never touches it).
  bad = c;
  bad[static_cast<std::size_t>(2 * n + 7)] += 1e+4;
  EXPECT_NO_THROW(verify::check_rowsums<double>(
      chk, "syrk", MatrixView<const double>(bad.data(), n, n), kScale));
}

TEST(VerifyCheckers, Syr2kUpperChecksums) {
  const std::int64_t n = 8, k = 5;
  Workload wl(73);
  const auto ha = wl.matrix<double>(n, k);
  const auto hb = wl.matrix<double>(n, k);
  const auto hc = wl.matrix<double>(n, n);
  const auto chk = verify::syr2k_prepare<double>(
      Uplo::Upper, Transpose::None, n, k, 0.5,
      MatrixView<const double>(ha.data(), n, k),
      MatrixView<const double>(hb.data(), n, k), 1.0,
      MatrixView<const double>(hc.data(), n, n));

  auto c = hc;
  ref::syr2k(Uplo::Upper, Transpose::None, 0.5,
             MatrixView<const double>(ha.data(), n, k),
             MatrixView<const double>(hb.data(), n, k), 1.0,
             MatrixView<double>(c.data(), n, n));
  EXPECT_NO_THROW(verify::check_rowsums<double>(
      chk, "syr2k", MatrixView<const double>(c.data(), n, n), kScale));
  c[static_cast<std::size_t>(3 * n + 6)] -= 1e-3;  // stored upper element
  EXPECT_THROW(
      verify::check_rowsums<double>(
          chk, "syr2k", MatrixView<const double>(c.data(), n, n), kScale),
      VerificationError);
}

TEST(VerifyCheckers, TrsmResidualChecksums) {
  const std::int64_t m = 12, n = 6;
  Workload wl(74);
  auto ha = wl.matrix<double>(m, m);
  // Diagonally dominant lower triangle: a well-conditioned solve.
  for (std::int64_t i = 0; i < m; ++i) ha[static_cast<std::size_t>(i * m + i)] += m;
  const auto hb = wl.matrix<double>(m, n);
  const auto chk = verify::trsm_prepare<double>(
      Side::Left, m, n, 2.0, MatrixView<const double>(hb.data(), m, n));

  auto x = hb;
  ref::trsm(Side::Left, Uplo::Lower, Transpose::None, Diag::NonUnit, 2.0,
            MatrixView<const double>(ha.data(), m, m),
            MatrixView<double>(x.data(), m, n));
  EXPECT_NO_THROW(verify::trsm_check<double>(
      chk, Side::Left, Uplo::Lower, Transpose::None, Diag::NonUnit, m, n,
      MatrixView<const double>(ha.data(), m, m),
      MatrixView<const double>(x.data(), m, n), kScale));
  x[static_cast<std::size_t>(5 * n + 3)] += 1e-4;
  EXPECT_THROW(verify::trsm_check<double>(
                   chk, Side::Left, Uplo::Lower, Transpose::None,
                   Diag::NonUnit, m, n,
                   MatrixView<const double>(ha.data(), m, m),
                   MatrixView<const double>(x.data(), m, n), kScale),
               VerificationError);
}

TEST(VerifyCheckers, GemvAndGerChecksums) {
  const std::int64_t rows = 14, cols = 9;
  Workload wl(75);
  const auto ha = wl.matrix<double>(rows, cols);
  const auto hx = wl.vector<double>(cols);
  const auto hy = wl.vector<double>(rows);

  const auto gv = verify::gemv_prepare<double>(
      Transpose::None, rows, cols, 1.1,
      MatrixView<const double>(ha.data(), rows, cols),
      VectorView<const double>(hx.data(), cols), -0.4,
      VectorView<const double>(hy.data(), rows));
  auto y = hy;
  ref::gemv(Transpose::None, 1.1, MatrixView<const double>(ha.data(), rows, cols),
            VectorView<const double>(hx.data(), cols), -0.4,
            VectorView<double>(y.data(), rows));
  EXPECT_NO_THROW(verify::check_sum<double>(
      gv, "gemv", VectorView<const double>(y.data(), rows), kScale));
  y[4] += 1e-5;
  EXPECT_THROW(verify::check_sum<double>(
                   gv, "gemv", VectorView<const double>(y.data(), rows),
                   kScale),
               VerificationError);

  const auto hyc = wl.vector<double>(cols);
  const auto gr = verify::ger_prepare<double>(
      rows, cols, 0.8, VectorView<const double>(hy.data(), rows),
      VectorView<const double>(hyc.data(), cols),
      MatrixView<const double>(ha.data(), rows, cols));
  auto a = ha;
  ref::ger(0.8, VectorView<const double>(hy.data(), rows),
           VectorView<const double>(hyc.data(), cols),
           MatrixView<double>(a.data(), rows, cols));
  EXPECT_NO_THROW(verify::check_rowsums<double>(
      gr, "ger", MatrixView<const double>(a.data(), rows, cols), kScale));
  a[3] *= 1.0 + 1e-7;
  EXPECT_THROW(
      verify::check_rowsums<double>(
          gr, "ger", MatrixView<const double>(a.data(), rows, cols), kScale),
      VerificationError);
}

TEST(VerifyCheckers, SingleElementChecksFloat) {
  const std::int64_t n = 64;
  Workload wl(76);
  const auto hx = wl.vector<float>(n);
  const auto hy = wl.vector<float>(n);
  const VectorView<const float> x(hx.data(), n), y(hy.data(), n);

  const float d = ref::dot(x, y);
  EXPECT_NO_THROW(verify::dot_check<float>(x, y, d, kScale));
  EXPECT_THROW(verify::dot_check<float>(x, y, d + 0.5f, kScale),
               VerificationError);

  const float nrm = ref::nrm2(x);
  EXPECT_NO_THROW(verify::nrm2_check<float>(x, nrm, kScale));
  EXPECT_THROW(verify::nrm2_check<float>(x, -nrm, kScale), VerificationError);
  EXPECT_THROW(verify::nrm2_check<float>(x, nrm * 4.0f, kScale),
               VerificationError);

  const float s = ref::asum(x);
  EXPECT_NO_THROW(verify::asum_check<float>(x, s, kScale));
  EXPECT_THROW(verify::asum_check<float>(x, s * 1.5f, kScale),
               VerificationError);

  const std::int64_t idx = ref::iamax(x);
  EXPECT_NO_THROW(verify::iamax_check<float>(x, idx));
  EXPECT_THROW(verify::iamax_check<float>(x, (idx + 1) % n),
               VerificationError);
  EXPECT_THROW(verify::iamax_check<float>(x, n), VerificationError);
  EXPECT_NO_THROW(
      verify::iamax_check<float>(VectorView<const float>(hx.data(), 0), -1));
}

TEST(VerifyCheckers, NonFinitePredictionsSkipInsteadOfRejecting) {
  // NaN in the inputs poisons the checksum prediction; that is the taint
  // channel's territory, not a corruption verdict — the checker skips.
  const std::int64_t n = 16;
  Workload wl(77);
  auto hx = wl.vector<double>(n);
  hx[5] = std::numeric_limits<double>::quiet_NaN();
  const auto chk =
      verify::scal_prepare<double>(2.0, VectorView<const double>(hx.data(), n));
  auto out = hx;
  for (auto& v : out) v *= 2.0;
  EXPECT_NO_THROW(verify::check_sum<double>(
      chk, "scal", VectorView<const double>(out.data(), n), kScale));
}

TEST(VerifySampling, DeterministicAndProportional) {
  EXPECT_FALSE(verify::sampled(1, 42, 0.0));
  EXPECT_TRUE(verify::sampled(1, 42, 1.0));
  int hits = 0;
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) {
    const bool a = verify::sampled(9, seq, 0.25);
    const bool b = verify::sampled(9, seq, 0.25);
    EXPECT_EQ(a, b);  // pure in (seed, seq)
    hits += a ? 1 : 0;
  }
  EXPECT_GT(hits, 180);  // ~250 expected
  EXPECT_LT(hits, 320);
}

// --- End-to-end: silent corruption through the host runtime --------------

TEST(VerifyRuntime, UnverifiedBaselineMissesSilentCorruption) {
  // One silent fault, no verification: the command completes Ok, the
  // result is wrong, and nothing in the stats hints at the damage —
  // exactly the failure mode ABFT exists for.
  const std::int64_t m = 24, n = 20, k = 16;
  Workload wl(80);
  const auto ha = wl.matrix<float>(m, k);
  const auto hb = wl.matrix<float>(k, n);
  const auto hc = wl.matrix<float>(m, n);

  auto run = [&](bool with_fault) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_fault) {
      host::FaultConfig fc;
      fc.seed = 21;
      fc.silent_corrupt_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
    }
    host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
    a.write(ha);
    b.write(hb);
    c.write(hc);
    host::Event e = ctx.gemm_async<float>(Transpose::None, Transpose::None,
                                          m, n, k, 1.5f, a, b, 0.5f, c);
    e.wait();
    return std::make_tuple(c.to_host(), e.status(), ctx.exec_stats());
  };

  const auto [clean, clean_st, clean_stats] = run(false);
  const auto [dirty, dirty_st, dirty_stats] = run(true);
  EXPECT_TRUE(clean_st.ok());
  EXPECT_TRUE(dirty_st.ok());  // the device lied and nobody noticed
  EXPECT_NE(clean, dirty);
  EXPECT_EQ(dirty_stats.faults_injected, 1u);
  EXPECT_EQ(dirty_stats.sdc_caught, 0u);
  EXPECT_EQ(dirty_stats.verified, 0u);
}

TEST(VerifyRuntime, AlwaysCatchesSilentCorruptionAndRecoversBitIdentical) {
  // Two budgeted silent faults under Always + retry, for every routine
  // kind with a buffer output (the one-triangle kinds are covered by
  // SyrkSteeredCorruptionAlwaysLandsInTheTriangle): both corrupted
  // attempts are rejected by the kind's checker, rolled back, and the
  // third (clean) attempt produces bits identical to a fault-free run.
  // Strided x, both transpositions, triangles and sides make a checker
  // that reads the wrong operand or shape fail here.
  const std::int64_t n = 24, m = 20, k = 16;
  struct Ops {
    host::Buffer<float> x, y, A, B, C;
  };
  // A well-conditioned dim x dim triangle at the start of A.
  const auto triangular = [&](Ops& o, std::int64_t dim, Uplo uplo) {
    auto t = Workload(86).triangular<float>(dim, uplo, Diag::NonUnit);
    t.resize(static_cast<std::size_t>(n * n));
    o.A.write(t);
  };
  struct Case {
    const char* name;
    std::function<host::Event(host::Context&, Ops&)> call;
  };
  const Case cases[] = {
      {"rot",
       [&](host::Context& ctx, Ops& o) {
         return ctx.rot_async<float>(n, o.x, 2, o.y, 1, 0.8f, 0.6f);
       }},
      {"swap",
       [&](host::Context& ctx, Ops& o) {
         return ctx.swap_async<float>(n, o.x, 2, o.y, 1);
       }},
      {"scal",
       [&](host::Context& ctx, Ops& o) {
         return ctx.scal_async<float>(n, 1.5f, o.x, 2);
       }},
      {"copy",
       [&](host::Context& ctx, Ops& o) {
         return ctx.copy_async<float>(n, o.x, 2, o.y, 1);
       }},
      {"axpy",
       [&](host::Context& ctx, Ops& o) {
         return ctx.axpy_async<float>(n, -0.5f, o.x, 2, o.y, 1);
       }},
      {"gemv/N",
       [&](host::Context& ctx, Ops& o) {
         return ctx.gemv_async<float>(Transpose::None, m, n, 1.25f, o.A, o.x,
                                      2, 0.5f, o.y, 1);
       }},
      {"gemv/T",
       [&](host::Context& ctx, Ops& o) {
         return ctx.gemv_async<float>(Transpose::Trans, m, n, 1.25f, o.A,
                                      o.x, 2, 0.5f, o.y, 1);
       }},
      {"trsv/L",
       [&](host::Context& ctx, Ops& o) {
         triangular(o, n, Uplo::Lower);
         return ctx.trsv_async<float>(Uplo::Lower, Transpose::None,
                                      Diag::NonUnit, n, o.A, o.x, 2);
       }},
      {"trsv/U",
       [&](host::Context& ctx, Ops& o) {
         triangular(o, n, Uplo::Upper);
         return ctx.trsv_async<float>(Uplo::Upper, Transpose::Trans,
                                      Diag::NonUnit, n, o.A, o.x, 2);
       }},
      {"ger",
       [&](host::Context& ctx, Ops& o) {
         return ctx.ger_async<float>(m, n, 0.75f, o.x, 2, o.y, 1, o.A);
       }},
      {"gemm",
       [&](host::Context& ctx, Ops& o) {
         return ctx.gemm_async<float>(Transpose::None, Transpose::None, m, n,
                                      k, 1.5f, o.A, o.B, 0.5f, o.C);
       }},
      {"trsm/L",
       [&](host::Context& ctx, Ops& o) {
         triangular(o, m, Uplo::Lower);
         return ctx.trsm_async<float>(Side::Left, Uplo::Lower,
                                      Transpose::None, Diag::NonUnit, m, n,
                                      1.5f, o.A, o.B);
       }},
      {"trsm/R",
       [&](host::Context& ctx, Ops& o) {
         triangular(o, n, Uplo::Upper);
         return ctx.trsm_async<float>(Side::Right, Uplo::Upper,
                                      Transpose::Trans, Diag::NonUnit, m, n,
                                      1.5f, o.A, o.B);
       }},
  };

  auto run = [&](const Case& cs, bool with_faults) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_faults) {
      host::FaultConfig fc;
      fc.seed = 22;
      fc.silent_corrupt_rate = 1.0;
      fc.max_faults = 2;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(3));
    ctx.config().verification = verify::Options::always();
    Workload wl(81);
    Ops o{{dev, 2 * n, 0}, {dev, 2 * n, 1}, {dev, n * n, 0},
          {dev, n * n, 1}, {dev, n * n, 2}};
    o.x.write(wl.vector<float>(2 * n));
    o.y.write(wl.vector<float>(2 * n));
    o.A.write(wl.matrix<float>(n, n));
    o.B.write(wl.matrix<float>(n, n));
    o.C.write(wl.matrix<float>(n, n));
    host::Event e = cs.call(ctx, o);
    EXPECT_NO_THROW(e.wait());
    return std::make_tuple(
        std::vector<std::vector<float>>{o.x.to_host(), o.y.to_host(),
                                        o.A.to_host(), o.B.to_host(),
                                        o.C.to_host()},
        e.status(), ctx.exec_stats());
  };

  for (const Case& cs : cases) {
    SCOPED_TRACE(cs.name);
    const auto [clean, clean_st, clean_stats] = run(cs, false);
    const auto [rec, rec_st, rec_stats] = run(cs, true);
    EXPECT_EQ(clean, rec);  // recovered, bit-identical
    EXPECT_TRUE(rec_st.ok());
    EXPECT_EQ(rec_st.verify_rejections, 2u);
    EXPECT_EQ(rec_stats.faults_injected, 2u);
    EXPECT_EQ(rec_stats.sdc_caught, rec_stats.faults_injected);
    EXPECT_EQ(rec_stats.verify_failures, 2u);
    EXPECT_EQ(rec_stats.retries, 2u);
    EXPECT_EQ(rec_stats.verified, 3u);  // every attempt was checked
    EXPECT_EQ(clean_stats.verified, 1u);
    EXPECT_EQ(clean_stats.sdc_caught, 0u);
  }
}

TEST(VerifyRuntime, VerifyRejectionWithoutRetryFailsTransactionally) {
  // No retry budget: the rejection surfaces as VerificationError, but the
  // write-set was rolled back first — the buffer holds pre-command bytes,
  // never the corrupted result.
  const std::int64_t n = 64;
  const auto hx = Workload(82).vector<float>(n);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 23;
  fc.silent_corrupt_rate = 1.0;
  dev.inject_faults(fc);
  ctx.config().verification = verify::Options::always();
  host::Buffer<float> x(dev, n, 0);
  x.write(hx);
  host::Event e = ctx.scal_async<float>(n, 2.0f, x, 1);
  EXPECT_THROW(e.wait(), VerificationError);
  EXPECT_EQ(x.to_host(), hx);  // not half-scaled, not corrupted
  const host::CommandStatus st = e.status();
  EXPECT_TRUE(st.failed());
  EXPECT_EQ(st.verify_rejections, 1u);
  EXPECT_NE(st.message.find("ABFT verification failed"), std::string::npos);
  EXPECT_EQ(ctx.exec_stats().sdc_caught, 1u);
}

TEST(VerifyRuntime, VerifyExhaustionDegradesToCpuFallback) {
  // Unlimited silent corruption: every device attempt is rejected; after
  // retries the CPU reference path serves the (correct) result and the
  // command reports Degraded — same path as any other persistent fault.
  const std::int64_t n = 96;
  Workload wl(83);
  auto hx = wl.vector<float>(n);
  auto hy = wl.vector<float>(n);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 24;
  fc.silent_corrupt_rate = 1.0;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(2, /*cpu_fallback=*/true));
  ctx.config().verification = verify::Options::always();
  host::Buffer<float> x(dev, n, 0), y(dev, n, 1);
  x.write(hx);
  y.write(hy);
  host::Event e = ctx.axpy_async<float>(n, 2.0f, x, 1, y, 1);
  EXPECT_NO_THROW(e.wait());

  ref::axpy(2.0f, VectorView<const float>(hx.data(), n),
            VectorView<float>(hy.data(), n));
  EXPECT_EQ(y.to_host(), hy);
  const host::CommandStatus st = e.status();
  EXPECT_TRUE(st.degraded());
  EXPECT_NE(st.message.find("degraded to CPU fallback"), std::string::npos);
  EXPECT_NE(st.message.find("ABFT verification failed"), std::string::npos);
  EXPECT_EQ(st.verify_rejections, 3u);  // initial attempt + 2 retries
  EXPECT_EQ(ctx.exec_stats().degraded, 1u);
}

// The acceptance workload: a mixed GEMM / GEMV / Level-1 stream under 5%
// silent corruption. VerifyPolicy::Always must catch every injected SDC
// (sdc_caught == faults_injected) and recover bit-identically to a
// fault-free run; the unverified baseline must provably miss them.
std::tuple<std::vector<std::vector<float>>, host::ExecStats>
run_mixed_workload(int workers, bool with_faults, verify::VerifyPolicy vp) {
  const std::int64_t m = 32, n = 28, k = 24, len = 256;
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, workers);
  if (with_faults) {
    host::FaultConfig fc;
    fc.seed = 4;
    fc.silent_corrupt_rate = 0.05;
    dev.inject_faults(fc);
  }
  ctx.set_retry_policy(fast_retry(4));
  ctx.config().verification.policy(vp);

  Workload wl(84);
  host::Buffer<float> a(dev, m * k, 0), b(dev, k * n, 1), c(dev, m * n, 2);
  host::Buffer<float> ga(dev, m * len, 0), gx(dev, len, 1), gy(dev, m, 2);
  host::Buffer<float> v0(dev, len, 0), v1(dev, len, 1);
  a.write(wl.matrix<float>(m, k));
  b.write(wl.matrix<float>(k, n));
  c.write(wl.matrix<float>(m, n));
  ga.write(wl.matrix<float>(m, len));
  gx.write(wl.vector<float>(len));
  gy.write(wl.vector<float>(m));
  v0.write(wl.vector<float>(len));
  v1.write(wl.vector<float>(len));

  float dots[8] = {};
  for (int round = 0; round < 8; ++round) {
    ctx.gemm_async<float>(Transpose::None, Transpose::None, m, n, k, 1.01f,
                          a, b, 0.5f, c);
    ctx.gemv_async<float>(Transpose::None, m, len, 0.125f, ga, gx, 1, 0.875f,
                          gy, 1);
    ctx.scal_async<float>(len, 1.0009f, v0, 1);
    ctx.axpy_async<float>(len, 0.01f, v0, 1, v1, 1);
    ctx.dot_async<float>(len, v0, 1, v1, 1, &dots[round]);
  }
  ctx.finish();
  std::vector<std::vector<float>> out{c.to_host(), gy.to_host(),
                                      v0.to_host(), v1.to_host(),
                                      std::vector<float>(dots, dots + 8)};
  return {out, ctx.exec_stats()};
}

TEST(VerifyRuntime, MixedWorkloadFivePercentSdcAllCaughtSerial) {
  const auto [clean, clean_stats] =
      run_mixed_workload(0, false, verify::VerifyPolicy::Off);
  const auto [guarded, guarded_stats] =
      run_mixed_workload(0, true, verify::VerifyPolicy::Always);
  const auto [naked, naked_stats] =
      run_mixed_workload(0, true, verify::VerifyPolicy::Off);

  // Seed 4 draws silent faults across the 40 commands (deterministic).
  EXPECT_GT(guarded_stats.faults_injected, 0u);
  EXPECT_EQ(guarded_stats.sdc_caught, guarded_stats.faults_injected);
  EXPECT_EQ(clean, guarded);  // every SDC caught and recovered, bit-identical
  EXPECT_EQ(guarded_stats.degraded, 0u);

  // The same fault stream without verification: wrong bits, zero caught.
  EXPECT_GT(naked_stats.faults_injected, 0u);
  EXPECT_EQ(naked_stats.sdc_caught, 0u);
  EXPECT_NE(clean, naked);
}

TEST(VerifyRuntime, MixedWorkloadFivePercentSdcAllCaughtWorkerPool) {
  // Identical guarantees on the 4-worker out-of-order executor: fault and
  // sampling decisions hash (seed, seq), not thread interleaving.
  const auto [clean, clean_stats] =
      run_mixed_workload(0, false, verify::VerifyPolicy::Off);
  const auto [guarded, guarded_stats] =
      run_mixed_workload(4, true, verify::VerifyPolicy::Always);
  EXPECT_GT(guarded_stats.faults_injected, 0u);
  EXPECT_EQ(guarded_stats.sdc_caught, guarded_stats.faults_injected);
  EXPECT_EQ(clean, guarded);

  const auto [serial, serial_stats] =
      run_mixed_workload(0, true, verify::VerifyPolicy::Always);
  EXPECT_EQ(serial, guarded);
  EXPECT_EQ(serial_stats.faults_injected, guarded_stats.faults_injected);
  EXPECT_EQ(serial_stats.sdc_caught, guarded_stats.sdc_caught);
}

TEST(VerifyRuntime, SampledVerifiesDeterministicFraction) {
  const auto [out_a, stats_a] =
      run_mixed_workload(0, false, verify::VerifyPolicy::Sampled);
  const auto [out_b, stats_b] =
      run_mixed_workload(4, false, verify::VerifyPolicy::Sampled);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(stats_a.verified, stats_b.verified);  // same commands sampled
  EXPECT_GT(stats_a.verified, 0u);
  EXPECT_LT(stats_a.verified, 40u);  // a fraction, not all
  EXPECT_EQ(stats_a.verify_failures, 0u);
}

TEST(VerifyRuntime, AlwaysOnCleanRunNeverRejects) {
  // No-false-positive sweep: every wired routine, both precisions, with
  // Always verification and no faults — nothing may be rejected. Each of
  // the 19 checked routine calls per precision is checked exactly once;
  // ROTM and SDSDOT have no checker and add nothing, so a descriptor that
  // loses its checker (or gains one) changes the count.
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().verification = verify::Options::always();
  const std::int64_t n = 48, k = 16;
  Workload wl(85);

  auto sweep = [&](auto tag) {
    using T = decltype(tag);
    host::Buffer<T> x(dev, n, 0), y(dev, n, 1), z(dev, n, 2);
    host::Buffer<T> A(dev, n * n, 0), B(dev, n * n, 1), C(dev, n * n, 2);
    x.write(wl.vector<T>(n));
    y.write(wl.vector<T>(n));
    z.write(wl.vector<T>(n));
    A.write(wl.matrix<T>(n, n));
    B.write(wl.matrix<T>(n, n));
    C.write(wl.matrix<T>(n, n));

    ctx.scal<T>(n, T(1.5), x);
    ctx.axpy<T>(n, T(0.5), x, y);
    ctx.copy<T>(n, x, z);
    ctx.swap<T>(n, y, z);
    ctx.rot<T>(n, x, y, T(0.8), T(0.6));
    (void)ctx.dot<T>(n, x, y);
    (void)ctx.nrm2<T>(n, x);
    (void)ctx.asum<T>(n, x);
    (void)ctx.iamax<T>(n, x);
    ctx.gemv<T>(Transpose::Trans, n, n, T(0.9), A, x, T(0.1), y);
    ctx.ger<T>(n, n, T(0.05), x, y, C);
    ctx.syr<T>(Uplo::Lower, n, T(0.04), x, C);
    ctx.syr2<T>(Uplo::Upper, n, T(0.03), x, y, C);
    ctx.gemm<T>(Transpose::None, Transpose::Trans, n, n, n, T(0.02), A, B,
                T(0.5), C);
    ctx.syrk<T>(Uplo::Lower, Transpose::None, n, k, T(0.1), A, T(0.9), C);
    ctx.syr2k<T>(Uplo::Upper, Transpose::None, n, k, T(0.1), A, B, T(0.9),
                 C);
    // Well-conditioned triangular systems for the solves.
    {
      auto ha = wl.matrix<T>(n, n);
      for (std::int64_t i = 0; i < n; ++i)
        ha[static_cast<std::size_t>(i * n + i)] += T(n);
      A.write(ha);
    }
    ctx.trsv<T>(Uplo::Lower, Transpose::None, Diag::NonUnit, n, A, x);
    ctx.trsm<T>(Side::Left, Uplo::Lower, Transpose::None, Diag::NonUnit, n,
                n, T(1.0), A, B);
    ctx.trsm<T>(Side::Right, Uplo::Upper, Transpose::Trans, Diag::NonUnit, n,
                n, T(1.0), A, C);
    ctx.rotm<T>(n, x, y, {T(-1), T(0.6), T(-0.8), T(0.8), T(0.6)});
    if constexpr (std::is_same_v<T, float>) {
      (void)ctx.sdsdot(n, 0.25f, x, y);
    }
  };
  EXPECT_NO_THROW(sweep(float{}));
  EXPECT_NO_THROW(sweep(double{}));
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.verified, 2u * 19u);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.sdc_caught, 0u);
}

// --- Composed commands: checksum-carrying streaming compositions ----------
// The three paper applications run as single host commands whose
// intermediates never touch DRAM; the GraphChecker compares per-channel
// taps against predictions replayed on the host from the DRAM inputs.

TEST(VerifyComposed, CleanCompositionsMatchCpuReferences) {
  const std::int64_t n = 20, m = 16, len = 96;
  Workload wl(91);
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().verification = verify::Options::always();

  const auto ha = wl.matrix<double>(n, m);
  const auto hx = wl.vector<double>(m);
  const MatrixView<const double> A(ha.data(), n, m);

  {  // ATAX: y = A^T (A x)
    host::Buffer<double> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
    a.write(ha);
    x.write(hx);
    y.write(std::vector<double>(static_cast<std::size_t>(m), -1.0));
    apps::atax_composed<double>(ctx, n, m, a, x, y);
    const auto yref =
        apps::atax_cpu<double>(A, VectorView<const double>(hx.data(), m));
    const auto got = y.to_host();
    for (std::int64_t i = 0; i < m; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_NEAR(got[idx], yref[idx],
                  1e-9 * std::max(1.0, std::abs(yref[idx])));
    }
  }
  {  // BICG: q = A p, s = A^T r
    const auto hp = wl.vector<double>(m);
    const auto hr = wl.vector<double>(n);
    host::Buffer<double> a(dev, n * m, 0), p(dev, m, 1), r(dev, n, 2);
    host::Buffer<double> q(dev, n, 1), s(dev, m, 2);
    a.write(ha);
    p.write(hp);
    r.write(hr);
    q.write(std::vector<double>(static_cast<std::size_t>(n), 0.0));
    s.write(std::vector<double>(static_cast<std::size_t>(m), 0.0));
    apps::bicg_composed<double>(ctx, n, m, a, p, r, q, s);
    const auto ref = apps::bicg_cpu<double>(
        A, VectorView<const double>(hp.data(), m),
        VectorView<const double>(hr.data(), n));
    const auto gq = q.to_host();
    const auto gs = s.to_host();
    for (std::int64_t i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_NEAR(gq[idx], ref.q[idx],
                  1e-9 * std::max(1.0, std::abs(ref.q[idx])));
    }
    for (std::int64_t i = 0; i < m; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      EXPECT_NEAR(gs[idx], ref.s[idx],
                  1e-9 * std::max(1.0, std::abs(ref.s[idx])));
    }
  }
  {  // AXPYDOT: beta = (w - alpha v)^T u
    const auto hw = wl.vector<double>(len);
    const auto hv = wl.vector<double>(len);
    const auto hu = wl.vector<double>(len);
    host::Buffer<double> w(dev, len, 0), v(dev, len, 1), u(dev, len, 2);
    w.write(hw);
    v.write(hv);
    u.write(hu);
    const double beta = apps::axpydot_composed<double>(ctx, len, w, v, u, 0.3);
    const double bref = apps::axpydot_cpu<double>(
        VectorView<const double>(hw.data(), len),
        VectorView<const double>(hv.data(), len),
        VectorView<const double>(hu.data(), len), 0.3);
    EXPECT_NEAR(beta, bref, 1e-9 * std::max(1.0, std::abs(bref)));
  }

  // Every composed command was checked, none rejected.
  const auto stats = ctx.exec_stats();
  EXPECT_EQ(stats.verified, 3u);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.sdc_caught, 0u);
}

TEST(VerifyComposed, PerCallOptionsOverrideOnlyThatCommand) {
  // The verify::Options overload of run_composition scopes its override
  // to the one enqueue: the context's own (Off) policy is untouched
  // before and after.
  const std::int64_t n = 12, m = 8;
  Workload wl(97);
  host::Device dev;
  host::Context ctx(dev);
  ASSERT_FALSE(ctx.config().verification.enabled());

  host::Buffer<double> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  a.write(wl.matrix<double>(n, m));
  x.write(wl.vector<double>(m));
  y.write(std::vector<double>(static_cast<std::size_t>(m), 0.0));
  ctx.run_composition(apps::atax_composition<double>(ctx, n, m, a, x, y),
                      verify::Options::always());
  EXPECT_FALSE(ctx.config().verification.enabled());  // guard restored
  EXPECT_EQ(ctx.exec_stats().verified, 1u);

  apps::atax_composed_async<double>(ctx, n, m, a, x, y).wait();
  EXPECT_EQ(ctx.exec_stats().verified, 1u);  // second command unverified
}

TEST(VerifyComposed, ChannelCorruptionLocalizedToFirstDivergentEdge) {
  // One in-flight value flipped on an intermediate channel: no write-set
  // snapshot can see it, but the edge checksums localize it. Without a
  // retry budget the rejection surfaces transactionally.
  const std::int64_t n = 32, m = 24;
  Workload wl(92);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 31;
  fc.channel_corrupt_rate = 1.0;
  fc.max_faults = 1;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(0));
  ctx.config().verification = verify::Options::always();

  const auto ha = wl.matrix<float>(n, m);
  const auto hx = wl.vector<float>(m);
  const auto hy0 = wl.vector<float>(m);  // pre-command bytes in y
  host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  a.write(ha);
  x.write(hx);
  y.write(hy0);
  host::Event e = apps::atax_composed_async<float>(ctx, n, m, a, x, y);
  try {
    e.wait();
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("composition 'atax'"), std::string::npos);
    // The checker's diagnosis names exactly the channel the injector hit
    // (ground truth recorded by the runtime when the corruption fired).
    const std::string victim = dev.faults().last_victim();
    ASSERT_FALSE(victim.empty());
    EXPECT_NE(msg.find("edge '" + victim + "'"), std::string::npos);
    EXPECT_NE(msg.find("first divergent edge"), std::string::npos);
  }
  EXPECT_EQ(y.to_host(), hy0);  // rolled back; corrupted bits never landed
  EXPECT_TRUE(e.status().failed());
  EXPECT_EQ(ctx.exec_stats().faults_injected, 1u);
  EXPECT_EQ(ctx.exec_stats().sdc_caught, 1u);
}

TEST(VerifyComposed, ChannelCorruptionRecoversBitIdentical) {
  const std::int64_t n = 32, m = 24;
  Workload wl(93);
  const auto ha = wl.matrix<float>(n, m);
  const auto hp = wl.vector<float>(m);
  const auto hr = wl.vector<float>(n);

  auto run = [&](bool with_fault) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_fault) {
      host::FaultConfig fc;
      fc.seed = 32;
      fc.channel_corrupt_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(3));
    ctx.config().verification = verify::Options::always();
    host::Buffer<float> a(dev, n * m, 0), p(dev, m, 1), r(dev, n, 2);
    host::Buffer<float> q(dev, n, 1), s(dev, m, 2);
    a.write(ha);
    p.write(hp);
    r.write(hr);
    q.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
    s.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));
    apps::bicg_composed<float>(ctx, n, m, a, p, r, q, s);
    return std::make_tuple(q.to_host(), s.to_host(), ctx.exec_stats());
  };

  const auto [cq, cs, cstats] = run(false);
  const auto [rq, rs, rstats] = run(true);
  EXPECT_EQ(cq, rq);  // recovered, bit-identical to the fault-free run
  EXPECT_EQ(cs, rs);
  EXPECT_EQ(rstats.faults_injected, 1u);
  EXPECT_EQ(rstats.sdc_caught, 1u);
  EXPECT_EQ(rstats.retries, 1u);
  EXPECT_EQ(cstats.sdc_caught, 0u);
}

// Mixed composed workload: all three compositions, repeated, under
// in-flight channel corruption. Every injected fault must be caught
// (sdc_caught == faults_injected) and the final state must match a
// fault-free run bit-for-bit — serially and on the worker pool.
std::tuple<std::vector<std::vector<float>>, host::ExecStats>
run_composed_workload(int workers, bool with_faults) {
  const std::int64_t n = 32, m = 24, len = 400;
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, workers);
  if (with_faults) {
    host::FaultConfig fc;
    fc.seed = 6;
    fc.channel_corrupt_rate = 0.4;
    fc.max_faults = 4;
    dev.inject_faults(fc);
  }
  ctx.set_retry_policy(fast_retry(4));
  ctx.config().verification = verify::Options::always();

  Workload wl(94);
  host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  host::Buffer<float> p(dev, m, 1), r(dev, n, 2), q(dev, n, 0), s(dev, m, 1);
  host::Buffer<float> w(dev, len, 0), v(dev, len, 1), u(dev, len, 2);
  a.write(wl.matrix<float>(n, m));
  x.write(wl.vector<float>(m));
  y.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));
  p.write(wl.vector<float>(m));
  r.write(wl.vector<float>(n));
  q.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  s.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));
  w.write(wl.vector<float>(len));
  v.write(wl.vector<float>(len));
  u.write(wl.vector<float>(len));

  float betas[4] = {};
  for (int round = 0; round < 4; ++round) {
    apps::atax_composed_async<float>(ctx, n, m, a, x, y);
    apps::bicg_composed_async<float>(ctx, n, m, a, p, r, q, s);
    apps::axpydot_composed_async<float>(ctx, len, w, v, u, 0.3f,
                                        &betas[round]);
  }
  ctx.finish();
  std::vector<std::vector<float>> out{y.to_host(), q.to_host(), s.to_host(),
                                      std::vector<float>(betas, betas + 4)};
  return {out, ctx.exec_stats()};
}

TEST(VerifyComposed, MixedCompositionWorkloadAllCaughtSerialAndPool) {
  const auto [clean, clean_stats] = run_composed_workload(0, false);
  const auto [serial, serial_stats] = run_composed_workload(0, true);
  EXPECT_GT(serial_stats.faults_injected, 0u);
  EXPECT_EQ(serial_stats.sdc_caught, serial_stats.faults_injected);
  EXPECT_EQ(clean, serial);
  EXPECT_EQ(serial_stats.degraded, 0u);
  EXPECT_EQ(clean_stats.verify_failures, 0u);

  // Same guarantees out of order: fault and sampling decisions hash
  // (seed, seq), not thread interleaving.
  const auto [pool, pool_stats] = run_composed_workload(4, true);
  EXPECT_EQ(pool_stats.sdc_caught, pool_stats.faults_injected);
  EXPECT_EQ(clean, pool);
  EXPECT_EQ(pool_stats.faults_injected, serial_stats.faults_injected);
}

// --- SilentCorrupt steering: the one-triangle blind spot ------------------

TEST(VerifyRuntime, SyrkSteeredCorruptionAlwaysLandsInTheTriangle) {
  // SYR, SYR2, SYRK and SYR2K only write one triangle; an unsteered
  // injector could mangle a byte in the never-written half, where the
  // tri-masked checksums are blind by design (BLAS semantics say those
  // bytes are dead). The steering derived from the triangle-storing port
  // remaps every draw into the stored triangle, so the fault is always
  // live and always caught, for both triangles.
  const std::int64_t n = 24, k = 10;
  Workload wl(95);
  const auto ha = wl.matrix<float>(n, k);
  const auto hb = wl.matrix<float>(n, k);
  const auto hc = wl.matrix<float>(n, n);
  const auto hx = wl.vector<float>(n);
  const auto hy = wl.vector<float>(n);
  enum class Routine { Syr, Syr2, Syrk, Syr2k };

  auto run = [&](bool with_faults, Uplo uplo, Routine r) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_faults) {
      host::FaultConfig fc;
      fc.seed = 33;
      fc.silent_corrupt_rate = 1.0;
      fc.max_faults = 3;
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(4));
    ctx.config().verification = verify::Options::always();
    host::Buffer<float> A(dev, n * k, 0), B(dev, n * k, 1), C(dev, n * n, 2),
        x(dev, n, 3), y(dev, n, 1);
    A.write(ha);
    B.write(hb);
    C.write(hc);
    x.write(hx);
    y.write(hy);
    switch (r) {
      case Routine::Syr:
        ctx.syr<float>(uplo, n, 0.75f, x, 1, C);
        break;
      case Routine::Syr2:
        ctx.syr2<float>(uplo, n, -0.5f, x, 1, y, 1, C);
        break;
      case Routine::Syrk:
        ctx.syrk<float>(uplo, Transpose::None, n, k, 1.25f, A, 0.5f, C);
        break;
      case Routine::Syr2k:
        ctx.syr2k<float>(uplo, Transpose::None, n, k, 0.5f, A, B, 0.9f, C);
        break;
    }
    return std::make_pair(C.to_host(), ctx.exec_stats());
  };

  for (const Routine r :
       {Routine::Syr, Routine::Syr2, Routine::Syrk, Routine::Syr2k}) {
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      const auto [clean, clean_stats] = run(false, uplo, r);
      const auto [rec, rec_stats] = run(true, uplo, r);
      const auto where = ::testing::Message()
                         << "routine " << static_cast<int>(r) << " uplo "
                         << (uplo == Uplo::Lower ? "L" : "U");
      EXPECT_EQ(rec_stats.faults_injected, 3u) << where;
      EXPECT_EQ(rec_stats.sdc_caught, rec_stats.faults_injected) << where;
      EXPECT_EQ(clean, rec) << where;  // caught every time, recovered bits
      EXPECT_EQ(clean_stats.sdc_caught, 0u) << where;
    }
  }
}

// --- Adaptive sampling: the rate follows the device's behavior ------------

TEST(VerifyRuntime, AdaptiveSamplingReactsToRejections) {
  const std::int64_t len = 64;
  const auto hx = Workload(96).vector<float>(len);
  auto run = [&](bool with_faults) {
    host::Device dev;
    host::Context ctx(dev);
    if (with_faults) {
      host::FaultConfig fc;
      fc.seed = 34;
      fc.silent_corrupt_rate = 1.0;  // unlimited: every attempt corrupted
      dev.inject_faults(fc);
    }
    ctx.set_retry_policy(fast_retry(1, /*cpu_fallback=*/true));
    ctx.config().verification = verify::Options::sampled(0.25).adaptive();
    host::Buffer<float> x(dev, len, 0);
    for (int i = 0; i < 40; ++i) {
      x.write(hx);  // fresh operand: missed corruption cannot accumulate
      ctx.scal<float>(len, 2.0f, x);
    }
    return ctx.exec_stats();
  };

  // Clean device: every sampled check passes, so the live rate decays
  // below the configured base (never below the floor of base/4).
  const auto clean = run(false);
  EXPECT_GT(clean.verified, 0u);
  EXPECT_GT(clean.adaptive_sample_rate, 0.0);
  EXPECT_LT(clean.adaptive_sample_rate, 0.25);
  EXPECT_GE(clean.adaptive_sample_rate, 0.25 / 4 - 1e-12);
  EXPECT_EQ(clean.verify_failures, 0u);

  // Hostile device: the first caught corruption escalates the rate (x4
  // per rejection), driving coverage toward Always.
  const auto hostile = run(true);
  EXPECT_GT(hostile.verify_failures, 0u);
  EXPECT_GT(hostile.degraded, 0u);
  EXPECT_GT(hostile.adaptive_sample_rate, 0.25);
  EXPECT_GT(hostile.verified, clean.verified);
}

// --- Taint channel: NaN/Inf provenance at module boundaries --------------

TEST(VerifyTaint, TrapNamesTheProducingModule) {
  const std::int64_t n = 32;
  auto hx = Workload(86).vector<float>(n);
  hx[7] = std::numeric_limits<float>::quiet_NaN();
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().verification.trap_nonfinite();
  host::Buffer<float> x(dev, n, 0);
  x.write(hx);
  host::Event e = ctx.scal_async<float>(n, 2.0f, x, 1);
  try {
    e.wait();
    FAIL() << "expected TaintError";
  } catch (const TaintError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("non-finite value"), std::string::npos);
    EXPECT_NE(msg.find("module 'read_x'"), std::string::npos);
    EXPECT_NE(msg.find("channel 'x'"), std::string::npos);
  }
  EXPECT_TRUE(e.status().failed());
  // Deterministic, not transient: no retry could ever change the outcome.
  EXPECT_EQ(ctx.exec_stats().retries, 0u);
}

TEST(VerifyTaint, VerifiedNaNRunSkipsChecksInsteadOfRejecting) {
  // Without the trap, NaN data flows through (IEEE semantics) and the
  // checkers skip their poisoned comparisons: Ok result, NaN output, no
  // spurious corruption verdict.
  const std::int64_t n = 32;
  auto hx = Workload(87).vector<float>(n);
  hx[3] = std::numeric_limits<float>::infinity();
  host::Device dev;
  host::Context ctx(dev);
  ctx.set_retry_policy(fast_retry(2));
  ctx.config().verification = verify::Options::always();
  host::Buffer<float> x(dev, n, 0);
  x.write(hx);
  host::Event e = ctx.scal_async<float>(n, 0.5f, x, 1);
  EXPECT_NO_THROW(e.wait());
  EXPECT_TRUE(e.status().ok());
  EXPECT_TRUE(std::isinf(x.to_host()[3]));
  EXPECT_EQ(ctx.exec_stats().verify_failures, 0u);
}

}  // namespace
}  // namespace fblas
