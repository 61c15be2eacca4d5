// The generic MDAG composition compiler, end to end: descriptions are
// rejected at enqueue with the validity diagnostic, the compiled apps
// reproduce their golden plans, cycle counts, output bits and checksum
// predictions, a pinned channel depth is honoured exactly (an undersized
// pin deadlocks), the composed GEMVER/GESUMMV match refblas (serially and
// on the worker pool), and in-flight corruption is caught on every
// compiled composition (sdc_caught == faults_injected) with the
// divergence localized to the injector's ground-truth channel.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "apps/gesummv.hpp"
#include "common/error.hpp"
#include "common/workload.hpp"
#include "fblas/level2.hpp"
#include "host/buffer.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "verify/options.hpp"

namespace fblas {
namespace {

host::RetryPolicy fast_retry(int max_retries, bool cpu_fallback = false) {
  host::RetryPolicy p;
  p.max_retries = max_retries;
  p.backoff = std::chrono::microseconds(0);
  p.cpu_fallback = cpu_fallback;
  return p;
}

template <typename T>
void expect_close(const std::vector<T>& got, const std::vector<T>& want,
                  double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(got[i]), static_cast<double>(want[i]),
                tol)
        << "at index " << i;
  }
}

// --- Rejection at enqueue -------------------------------------------------

TEST(ComposeCompiler, NonMultitreeRejectionSurfacesValidityDiagnostic) {
  // The ATAX shape (two vertex-disjoint A-paths into the transposed GEMV)
  // with a channel budget too small to buffer a row of tiles and
  // require_streaming(): the compiler must refuse the description at the
  // run_composition_async call itself — no command enqueued, no Event —
  // and explain *why* with the multitree analysis.
  const std::int64_t n = 24, m = 16;
  Workload wl(41);
  host::Device dev;
  host::Context ctx(dev);
  host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  a.write(wl.matrix<float>(n, m));
  x.write(wl.vector<float>(m));
  y.write(std::vector<float>(static_cast<std::size_t>(m), 0.0f));

  const host::RoutineConfig& rc = ctx.config();
  const core::GemvConfig cfg{Transpose::None,
                             core::MatrixTiling::TilesByRows, rc.width,
                             rc.tile_rows, rc.tile_rows};
  host::Composition<float> c("atax_strict");
  c.require_streaming().max_channel_depth(16);
  const int ra = c.input("read_A", a);
  const int rx = c.input("read_x", x);
  const int wy = c.output("store_y", y);
  const int g1 = c.gemv("gemv", 1.0f, 0.0f);
  const int g2 = c.gemv("gemv_T", 1.0f, 0.0f, Transpose::Trans);
  const auto a_sig = mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg));
  c.connect(ra, g1, a_sig);
  c.connect(ra, g2, a_sig);
  c.connect(rx, g1,
            mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg, n, m)));
  c.connect(g1, g2, mdag::StreamSig::vec(n));
  c.connect(g2, wy, mdag::StreamSig::vec(m));

  try {
    ctx.run_composition_async(c);
    FAIL() << "expected ConfigError at enqueue";
  } catch (const ConfigError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("single streaming component"), std::string::npos);
    EXPECT_NE(msg.find("vertex-disjoint"), std::string::npos);
  }
  // Nothing ran, nothing landed.
  ctx.finish();
  EXPECT_EQ(ctx.exec_stats().executed, 0u);

  // The same description with the budget restored streams fine.
  c.max_channel_depth(1 << 16);
  EXPECT_NO_THROW(ctx.run_composition(c));
}

// --- Golden values ---------------------------------------------------------
//
// Recorded from the compiled pipelines while they were still checked bit
// for bit against hand-wired stream graphs, which they matched exactly.
// Any change to an unpinned plan, a lowering or a module moves at least
// one of them.

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(const std::vector<float>& v,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  return fnv1a(v.data(), v.size() * sizeof(float), h);
}

TEST(ComposeGolden, AxpydotOutputBits) {
  const std::int64_t n = 300;
  Workload wl(42);
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, 0);
  host::Buffer<float> w(dev, n, 0), v(dev, n, 1), u(dev, n, 2);
  w.write(wl.vector<float>(n));
  v.write(wl.vector<float>(n));
  u.write(wl.vector<float>(n));
  const float beta = apps::axpydot_composed<float>(ctx, n, w, v, u, 0.37f);
  EXPECT_EQ(fnv1a(&beta, sizeof beta), 0x74b3c9ddabe6294aull);
}

TEST(ComposeGolden, AtaxOutputBits) {
  const std::int64_t n = 40, m = 28;
  Workload wl(43);
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, 0);
  host::Buffer<float> a(dev, n * m, 0), x(dev, m, 1), y(dev, m, 2);
  a.write(wl.matrix<float>(n, m));
  x.write(wl.vector<float>(m));
  apps::atax_composed<float>(ctx, n, m, a, x, y);
  EXPECT_EQ(fnv1a(y.to_host()), 0xa3f3663dae748beeull);
}

TEST(ComposeGolden, BicgOutputBits) {
  const std::int64_t n = 36, m = 24;
  Workload wl(44);
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, 0);
  host::Buffer<float> a(dev, n * m, 0), p(dev, m, 1), r(dev, n, 2);
  host::Buffer<float> q(dev, n, 1), s(dev, m, 2);
  a.write(wl.matrix<float>(n, m));
  p.write(wl.vector<float>(m));
  r.write(wl.vector<float>(n));
  apps::bicg_composed<float>(ctx, n, m, a, p, r, q, s);
  EXPECT_EQ(fnv1a(s.to_host(), fnv1a(q.to_host())), 0xcc005e78944aa1caull);
}

// The Fig. 11 parity shapes: Stratix 10, W = 16, 64 x 64 tiles, cycle
// mode, operands from Workload seeds 15-19.
struct ParityBoard {
  host::Device dev{sim::DeviceId::Stratix10};
  host::Context ctx{dev, stream::Mode::Cycle};
  ParityBoard() {
    ctx.config().width = 16;
    ctx.config().tile_rows = 64;
    ctx.config().tile_cols = 64;
  }
  host::Buffer<float> upload(const std::vector<float>& host, int bank) {
    host::Buffer<float> b(dev, static_cast<std::int64_t>(host.size()),
                          bank % dev.bank_count());
    b.write(host);
    return b;
  }
  // Compiles `c` as run_composition does.
  mdag::Compiled compile(const host::Composition<float>& c) const {
    return mdag::compile(c.graph(), c.semantics(),
                         c.compile_options(ctx.config().width));
  }
  // Checks the plan of `c` against the golden one, runs it and checks
  // the cycle count.
  void expect(const host::Composition<float>& c, const std::string& summary,
              const std::vector<std::int64_t>& edge_depth,
              std::uint64_t cycles) {
    const mdag::Compiled cp = compile(c);
    EXPECT_EQ(cp.summary, summary);
    EXPECT_EQ(cp.edge_depth, edge_depth);
    ctx.run_composition(c);
    EXPECT_EQ(ctx.total_cycles(), cycles);
  }
};

TEST(ComposeGolden, AxpydotParityPlanAndCycles) {
  const std::int64_t n = 1 << 15;
  Workload wl(15);
  ParityBoard b;
  auto w = b.upload(wl.vector<float>(n), 0);
  auto v = b.upload(wl.vector<float>(n), 1);
  auto u = b.upload(wl.vector<float>(n), 2);
  float beta = 0.0f;
  b.expect(apps::axpydot_composition<float>(n, w, v, u, 2.0f, &beta),
           "compiled '1 component(s), 0 cut edge(s), 0 sized channel(s)': "
           "composition is a valid multitree: fully streaming",
           {64, 64, 64, 64, 16}, 2527);
}

TEST(ComposeGolden, AtaxParityPlanAndCycles) {
  const std::int64_t n = 256, m = 256;
  Workload wl(16);
  ParityBoard b;
  auto a = b.upload(wl.matrix<float>(n, m), 0);
  auto x = b.upload(wl.vector<float>(m), 1);
  auto y = b.upload(std::vector<float>(static_cast<std::size_t>(m)), 2);
  b.expect(apps::atax_composition<float>(b.ctx, n, m, a, x, y),
           "compiled '1 component(s), 0 cut edge(s), 1 sized channel(s)': "
           "fully streaming with 1 sized channel(s): [read_A -> gemv_T] >= "
           "16384",
           {64, 16448, 64, 64, 64}, 5142);
}

TEST(ComposeGolden, BicgParityPlanAndCycles) {
  const std::int64_t n = 256, m = 256;
  Workload wl(17);
  ParityBoard b;
  auto a = b.upload(wl.matrix<float>(n, m), 0);
  auto p = b.upload(wl.vector<float>(m), 1);
  auto r = b.upload(wl.vector<float>(n), 2);
  auto q = b.upload(std::vector<float>(static_cast<std::size_t>(n)), 3);
  auto s = b.upload(std::vector<float>(static_cast<std::size_t>(m)), 3);
  b.expect(apps::bicg_composition<float>(b.ctx, n, m, a, p, r, q, s),
           "compiled '1 component(s), 0 cut edge(s), 0 sized channel(s)': "
           "composition is a valid multitree: fully streaming",
           {64, 64, 64, 64, 64, 64}, 4130);
}

TEST(ComposeGolden, GesummvParityPlanAndCycles) {
  const std::int64_t n = 256, m = 256;
  Workload wl(18);
  ParityBoard b;
  auto a = b.upload(wl.matrix<float>(n, m), 0);
  auto bb = b.upload(wl.matrix<float>(n, m), 1);
  auto x = b.upload(wl.vector<float>(m), 2);
  auto y = b.upload(std::vector<float>(static_cast<std::size_t>(n)), 3);
  b.expect(apps::gesummv_composition<float>(b.ctx, n, m, 1.5f, -0.5f, a, bb,
                                            x, y),
           "compiled '1 component(s), 0 cut edge(s), 1 sized channel(s)': "
           "fully streaming with 1 sized channel(s): [gemv_A -> add] >= 256",
           {64, 64, 64, 64, 320, 64, 64}, 4106);
}

TEST(ComposeGolden, GemverParityPlanAndCycles) {
  const std::int64_t n = 256;
  Workload wl(19);
  ParityBoard b;
  auto a = b.upload(wl.matrix<float>(n, n), 0);
  auto u1 = b.upload(wl.vector<float>(n), 1);
  auto v1 = b.upload(wl.vector<float>(n), 2);
  auto u2 = b.upload(wl.vector<float>(n), 3);
  auto v2 = b.upload(wl.vector<float>(n), 1);
  auto y = b.upload(wl.vector<float>(n), 2);
  auto z = b.upload(wl.vector<float>(n), 3);
  const std::vector<float> zn(static_cast<std::size_t>(n));
  auto B = b.upload(std::vector<float>(static_cast<std::size_t>(n * n)), 1);
  auto x = b.upload(zn, 2);
  auto w = b.upload(zn, 3);
  b.expect(apps::gemver_composition<float>(b.ctx, n, 1.5f, 0.5f, a, u1, v1,
                                           u2, v2, y, z, B, x, w),
           "compiled '2 component(s), 2 cut edge(s), 0 sized channel(s)': "
           "composition is a valid multitree: fully streaming",
           {64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 0, 0, 64, 64}, 8241);
}

/// FNV-1a over every (pred, mag, terms) of a prediction set: the taps of
/// each component in tap order, then the writer audits.
std::uint64_t prediction_hash(const host::CompositionPredictions& p) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](const auto& c) {
    h = fnv1a(&c.pred, sizeof c.pred, h);
    h = fnv1a(&c.mag, sizeof c.mag, h);
    h = fnv1a(&c.terms, sizeof c.terms, h);
  };
  for (const auto& component : p.taps) {
    const std::uint64_t n = component.size();
    h = fnv1a(&n, sizeof n, h);
    for (const auto& c : component) add(c);
  }
  for (const auto& [node, c] : p.audits) {
    h = fnv1a(&node, sizeof node, h);
    add(c);
  }
  return h;
}

TEST(ComposeGolden, PredictionBits) {
  // Every (pred, mag, terms) a verified run of the five apps is checked
  // against, at the parity shapes above: the channel taps of each
  // component in tap order, then the writer audits. Recorded from the
  // prediction pass that still copied every reader edge and replayed
  // the transposed GEMV column by column; restructuring the pass must
  // not move a bit.
  const auto predicted = [&](ParityBoard& b,
                             const host::Composition<float>& c) {
    return prediction_hash(host::predict_checksums(c, b.compile(c)));
  };
  const std::int64_t n = 256;
  const std::vector<float> zn(static_cast<std::size_t>(n));
  {
    Workload wl(15);
    ParityBoard b;
    const std::int64_t len = 1 << 15;
    auto w = b.upload(wl.vector<float>(len), 0);
    auto v = b.upload(wl.vector<float>(len), 1);
    auto u = b.upload(wl.vector<float>(len), 2);
    float beta = 0.0f;
    EXPECT_EQ(predicted(b, apps::axpydot_composition<float>(len, w, v, u,
                                                            2.0f, &beta)),
              0xc3847bdff3d865d6ull)
        << "AXPYDOT";
  }
  {
    Workload wl(16);
    ParityBoard b;
    auto a = b.upload(wl.matrix<float>(n, n), 0);
    auto x = b.upload(wl.vector<float>(n), 1);
    auto y = b.upload(zn, 2);
    EXPECT_EQ(predicted(b, apps::atax_composition<float>(b.ctx, n, n, a, x, y)),
              0x36f0d8b1923c6099ull)
        << "ATAX";
  }
  {
    Workload wl(17);
    ParityBoard b;
    auto a = b.upload(wl.matrix<float>(n, n), 0);
    auto p = b.upload(wl.vector<float>(n), 1);
    auto r = b.upload(wl.vector<float>(n), 2);
    auto q = b.upload(zn, 3);
    auto s = b.upload(zn, 3);
    EXPECT_EQ(predicted(b, apps::bicg_composition<float>(b.ctx, n, n, a, p, r,
                                                         q, s)),
              0xd6c0ee79243eaa38ull)
        << "BICG";
  }
  {
    Workload wl(18);
    ParityBoard b;
    auto a = b.upload(wl.matrix<float>(n, n), 0);
    auto bb = b.upload(wl.matrix<float>(n, n), 1);
    auto x = b.upload(wl.vector<float>(n), 2);
    auto y = b.upload(zn, 3);
    EXPECT_EQ(predicted(b, apps::gesummv_composition<float>(
                               b.ctx, n, n, 1.5f, -0.5f, a, bb, x, y)),
              0x39269cc4e710db6dull)
        << "GESUMMV";
  }
  {
    Workload wl(19);
    ParityBoard b;
    auto a = b.upload(wl.matrix<float>(n, n), 0);
    auto u1 = b.upload(wl.vector<float>(n), 1);
    auto v1 = b.upload(wl.vector<float>(n), 2);
    auto u2 = b.upload(wl.vector<float>(n), 3);
    auto v2 = b.upload(wl.vector<float>(n), 1);
    auto y = b.upload(wl.vector<float>(n), 2);
    auto z = b.upload(wl.vector<float>(n), 3);
    auto B = b.upload(std::vector<float>(static_cast<std::size_t>(n * n)), 1);
    auto x = b.upload(zn, 2);
    auto w = b.upload(zn, 3);
    EXPECT_EQ(predicted(b, apps::gemver_composition<float>(
                               b.ctx, n, 1.5f, 0.5f, a, u1, v1, u2, v2, y, z,
                               B, x, w)),
              0xeb8157c0a63c0d4aull)
        << "GEMVER";
  }
}

TEST(ComposeGolden, TrsvPredictionBits) {
  // The prediction of a one-TRSV composition, every uplo/trans/diag
  // variant, with b read straight from DRAM and with b scaled on the way
  // in (a SCAL between the reader and the solver).
  constexpr std::int64_t n = 45;
  std::vector<std::string> got;
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Transpose trans : {Transpose::None, Transpose::Trans}) {
      for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
        for (const bool scaled : {false, true}) {
          Workload wl(20);
          ParityBoard b;
          auto a = b.upload(wl.triangular<float>(n, uplo, diag), 0);
          auto bv = b.upload(wl.vector<float>(n), 1);
          auto x = b.upload(std::vector<float>(n), 2);
          host::Composition<float> c("trsv");
          const int ra = c.input_triangular("read_A", a, uplo, trans);
          const int rb = c.input("read_b", bv);
          const int wx = c.output("write_x", x);
          const int tr = c.trsv("trsv", uplo, trans, diag);
          c.connect(ra, tr, mdag::StreamSig::vec(n * (n + 1) / 2));
          if (scaled) {
            const int sc = c.scal("scal", -1.25f);
            c.connect(rb, sc, mdag::StreamSig::vec(n));
            c.connect(sc, tr, mdag::StreamSig::vec(n));
          } else {
            c.connect(rb, tr, mdag::StreamSig::vec(n));
          }
          c.connect(tr, wx, mdag::StreamSig::vec(n));
          std::ostringstream os;
          os << std::hex
             << prediction_hash(host::predict_checksums(c, b.compile(c)));
          got.push_back(os.str());
        }
      }
    }
  }
  // Per variant (LNN, LNU, LTN, LTU, UNN, UNU, UTN, UTU): b from DRAM,
  // then b through SCAL.
  const std::vector<std::string> want = {
      "27c908b15dbb8244", "25e02c4ffceea6c8",
      "bed966838732240", "4e4f156acf6664b3",
      "9c21f810406098e8", "e486113c065f2de8",
      "8867ec0032f978ac", "ee317134ef38e56f",
      "5be775b25e148b9f", "224946ea38417613",
      "4d52104594048bdb", "9c911908775209c8",
      "8b840a34e3b3dbe7", "e64d51cbf8934563",
      "2a06ab494ee686f", "ffc898bef2b8d704",
  };
  EXPECT_EQ(got, want);
}

TEST(ComposeCompiler, UpperTrsvStreamsOnlyOnDirectEdges) {
  // An Upper solve (of op(A)) takes b and leaves x in reverse order. Only
  // a reader or writer on an uncut edge straight at the solver's port
  // streams that order; a SCAL on b or on x, or b fanned out to a second
  // consumer, would stream natural order into a solve that expects it
  // reversed, and checksums cannot see a permutation. Such compositions
  // are refused at enqueue, naming the edge; every Lower one, and the
  // direct Upper one, match refblas.
  constexpr std::int64_t n = 8;
  constexpr float alpha = -1.25f;
  enum class Route { Direct, ScaledB, ScaledX, FannedB };
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Transpose trans : {Transpose::None, Transpose::Trans}) {
      for (const Route route : {Route::Direct, Route::ScaledB,
                                Route::ScaledX, Route::FannedB}) {
        Workload wl(21);
        const auto ha = wl.triangular<float>(n, uplo, Diag::NonUnit);
        const auto hb = wl.vector<float>(n);
        host::Device dev;
        host::Context ctx(dev);
        host::Buffer<float> a(dev, n * n, 0), b(dev, n, 1), x(dev, n, 2),
            y(dev, n, 3);
        a.write(ha);
        b.write(hb);
        host::Composition<float> c("trsv");
        const int ra = c.input_triangular("read_A", a, uplo, trans);
        const int rb = c.input("read_b", b);
        const int wx = c.output("write_x", x);
        const int tr = c.trsv("trsv", uplo, trans, Diag::NonUnit);
        const auto vec = mdag::StreamSig::vec(n);
        c.connect(ra, tr, mdag::StreamSig::vec(n * (n + 1) / 2));
        std::string edge;
        if (route == Route::ScaledB) {
          const int sc = c.scal("scal", alpha);
          c.connect(rb, sc, vec);
          c.connect(sc, tr, vec);
          c.connect(tr, wx, vec);
          edge = "scal->trsv";
        } else if (route == Route::ScaledX) {
          const int sc = c.scal("scal", alpha);
          c.connect(rb, tr, vec);
          c.connect(tr, sc, vec);
          c.connect(sc, wx, vec);
          edge = "trsv->scal";
        } else {
          c.connect(rb, tr, vec);
          c.connect(tr, wx, vec);
          edge = "read_b->trsv";
          if (route == Route::FannedB) {
            const int sc = c.scal("scal", alpha);
            c.connect(rb, sc, vec);
            c.connect(sc, c.output("write_y", y), vec);
          }
        }
        const bool upper = (uplo == Uplo::Upper) == (trans == Transpose::None);
        if (upper && route != Route::Direct) {
          try {
            ctx.run_composition_async(c);
            ADD_FAILURE() << "expected ConfigError naming " << edge;
          } catch (const ConfigError& err) {
            EXPECT_NE(std::string(err.what()).find(edge), std::string::npos)
                << err.what();
          }
          ctx.finish();
          EXPECT_EQ(ctx.exec_stats().executed, 0u);
          continue;
        }
        ctx.run_composition(c);
        std::vector<float> want = hb;
        VectorView<float> wv(want.data(), n);
        if (route == Route::ScaledB) ref::scal(alpha, wv);
        ref::trsv(uplo, trans, Diag::NonUnit,
                  MatrixView<const float>(ha.data(), n, n), wv);
        if (route == Route::ScaledX) ref::scal(alpha, wv);
        const auto got = x.to_host();
        for (std::int64_t i = 0; i < n; ++i) {
          EXPECT_NEAR(got[i], want[i], 1e-4f * (1.0f + std::abs(want[i])))
              << "i=" << i;
        }
        if (route == Route::FannedB) {
          const auto gy = y.to_host();
          for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(gy[i], alpha * hb[i]);
        }
      }
    }
  }
}

// --- Pinned channel depths --------------------------------------------------
//
// The ATAX deadlock demo through the compiler: N = 64, M = 48, TN = 16,
// W = 4, so the Sec. V-B bound is M*TN = 768 and the measured boundary
// (bench/ablation_channels) is 767.

// One board per run: a failed command also fails every later command
// that touches its buffers.
struct PinnedAtax {
  static constexpr std::int64_t n = 64, m = 48, tile = 16;
  host::Device dev;
  host::Context ctx{dev, stream::Mode::Cycle};
  host::Buffer<float> a{dev, n * m, 0}, x{dev, m, 1}, y{dev, m, 2};
  std::vector<float> ha, hx;

  PinnedAtax() {
    ctx.config().width = 4;
    ctx.config().tile_rows = tile;
    ctx.config().tile_cols = tile;
    // Retries and a CPU fallback are armed so the tests can show that a
    // deadlock uses neither.
    ctx.set_retry_policy(fast_retry(3, /*cpu_fallback=*/true));
    Workload wl(9);
    ha = wl.matrix<float>(n, m);
    hx = wl.vector<float>(m);
    a.write(ha);
    x.write(hx);
  }
  host::Composition<float> pinned(std::int64_t depth) {
    auto c = apps::atax_composition<float>(ctx, n, m, a, x, y);
    c.pin_channel_depth(apps::kAtaxDirectAEdge, depth);
    return c;
  }
};

TEST(ComposePin, UndersizedPinDeadlocksWithoutRetryOrFallback) {
  // Far below the bound, and one below the measured boundary.
  for (const std::int64_t depth : {PinnedAtax::tile, std::int64_t{766}}) {
    PinnedAtax t;
    EXPECT_THROW(t.ctx.run_composition(t.pinned(depth)), DeadlockError)
        << "pin " << depth;
    EXPECT_EQ(t.ctx.exec_stats().retries, 0u);
    EXPECT_EQ(t.ctx.exec_stats().degraded, 0u);
  }
}

TEST(ComposePin, PinAtTheBoundCompletesAndMatchesCpu) {
  for (const std::int64_t depth : {767, 768, 4 * 768}) {
    PinnedAtax t;
    t.ctx.run_composition(t.pinned(depth));
    expect_close(t.y.to_host(),
                 apps::atax_cpu<float>(
                     MatrixView<const float>(t.ha.data(), t.n, t.m),
                     VectorView<const float>(t.hx.data(), t.m)),
                 1e-3);
    EXPECT_EQ(t.ctx.exec_stats().retries, 0u);
  }
}

TEST(ComposePin, PinOverridesTheChannelBudget) {
  // Unpinned, a 16-element budget splits ATAX; the pin keeps it one
  // streaming component (require_streaming would reject a split).
  PinnedAtax t;
  auto c = t.pinned(768);
  c.max_channel_depth(16).require_streaming();
  EXPECT_NO_THROW(t.ctx.run_composition(c));
}

TEST(ComposePin, PinBelowOneIsConfigErrorNamingTheEdge) {
  PinnedAtax t;
  try {
    t.ctx.run_composition_async(t.pinned(0));
    FAIL() << "expected ConfigError at enqueue";
  } catch (const ConfigError& err) {
    EXPECT_NE(std::string(err.what()).find("read_A->gemv_T"),
              std::string::npos)
        << err.what();
  }
  t.ctx.finish();
  EXPECT_EQ(t.ctx.exec_stats().executed, 0u);
}

TEST(ComposePin, PinOnACutEdgeIsConfigErrorNamingTheEdge) {
  // GEMVER's compiled plan cuts ger2 -> gemv_w through DRAM (Fig. 9).
  const std::int64_t n = 32;
  host::Device dev;
  host::Context ctx(dev);
  ctx.config().tile_rows = 8;
  ctx.config().tile_cols = 8;
  host::Buffer<float> a(dev, n * n), u1(dev, n), v1(dev, n), u2(dev, n),
      v2(dev, n), y(dev, n), z(dev, n), B(dev, n * n), x(dev, n), w(dev, n);
  auto c = apps::gemver_composition<float>(ctx, n, 1.5f, 0.5f, a, u1, v1, u2,
                                           v2, y, z, B, x, w);
  int cut = -1;
  const mdag::Mdag& g = c.graph();
  for (int e = 0; e < static_cast<int>(g.edges().size()); ++e) {
    if (g.node(g.edge(e).from).name == "ger2" &&
        g.node(g.edge(e).to).name == "gemv_w") {
      cut = e;
    }
  }
  ASSERT_GE(cut, 0);
  c.pin_channel_depth(cut, 1 << 12);
  try {
    ctx.run_composition_async(c);
    FAIL() << "expected ConfigError at enqueue";
  } catch (const ConfigError& err) {
    EXPECT_NE(std::string(err.what()).find("ger2->gemv_w"), std::string::npos)
        << err.what();
  }
  ctx.finish();
  EXPECT_EQ(ctx.exec_stats().executed, 0u);
}

// --- Composed GEMVER / GESUMMV against refblas ---------------------------

// Runs both new compositions `rounds` times (alternating, to interleave
// on the pool) and returns every output buffer.
std::tuple<std::vector<std::vector<float>>, host::ExecStats>
run_gemver_gesummv(int workers, bool with_faults, bool verified = true) {
  const std::int64_t n = 24, m = 20;
  const float alpha = 0.6f, beta = -0.8f;
  Workload wl(45);
  host::Device dev;
  host::Context ctx(dev, stream::Mode::Functional, workers);
  if (with_faults) {
    host::FaultConfig fc;
    fc.seed = 51;
    fc.channel_corrupt_rate = 0.4;
    fc.max_faults = 4;
    dev.inject_faults(fc);
  }
  ctx.set_retry_policy(fast_retry(4));
  if (verified) ctx.config().verification = verify::Options::always();

  host::Buffer<float> A(dev, n * n, 0);
  host::Buffer<float> u1(dev, n, 1), v1(dev, n, 2), u2(dev, n, 1),
      v2(dev, n, 2), yy(dev, n, 1), zz(dev, n, 2);
  host::Buffer<float> B(dev, n * n, 1), X(dev, n, 2), W(dev, n, 1);
  A.write(wl.matrix<float>(n, n));
  u1.write(wl.vector<float>(n));
  v1.write(wl.vector<float>(n));
  u2.write(wl.vector<float>(n));
  v2.write(wl.vector<float>(n));
  yy.write(wl.vector<float>(n));
  zz.write(wl.vector<float>(n));

  host::Buffer<float> GA(dev, n * m, 0), GB(dev, n * m, 1), gx(dev, m, 2),
      gy(dev, n, 1);
  GA.write(wl.matrix<float>(n, m));
  GB.write(wl.matrix<float>(n, m));
  gx.write(wl.vector<float>(m));

  // Outputs are zeroed once, up front: a host-side Buffer::write is not a
  // tracked command, so touching these buffers inside the loop would race
  // with the still-in-flight rounds on the worker pool. The commands'
  // own WAW hazards keep the rounds ordered.
  B.write(std::vector<float>(static_cast<std::size_t>(n * n), 0.0f));
  X.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  W.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  gy.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  for (int round = 0; round < 3; ++round) {
    apps::gemver_composed_async<float>(ctx, n, alpha, beta, A, u1, v1, u2,
                                       v2, yy, zz, B, X, W);
    apps::gesummv_composed_async<float>(ctx, n, m, alpha, beta, GA, GB, gx,
                                        gy);
  }
  ctx.finish();
  std::vector<std::vector<float>> out{B.to_host(), X.to_host(), W.to_host(),
                                      gy.to_host()};
  return {out, ctx.exec_stats()};
}

TEST(ComposeApps, GemverAndGesummvMatchRefblasSerially) {
  const auto [out, stats] = run_gemver_gesummv(0, false);
  EXPECT_EQ(stats.verify_failures, 0u);

  const std::int64_t n = 24, m = 20;
  const float alpha = 0.6f, beta = -0.8f;
  Workload wl(45);  // same seed => same operands as the device run
  const auto hA = wl.matrix<float>(n, n);
  const auto hu1 = wl.vector<float>(n);
  const auto hv1 = wl.vector<float>(n);
  const auto hu2 = wl.vector<float>(n);
  const auto hv2 = wl.vector<float>(n);
  const auto hy = wl.vector<float>(n);
  const auto hz = wl.vector<float>(n);
  const auto ref = apps::gemver_cpu<float>(
      alpha, beta, MatrixView<const float>(hA.data(), n, n),
      VectorView<const float>(hu1.data(), n),
      VectorView<const float>(hv1.data(), n),
      VectorView<const float>(hu2.data(), n),
      VectorView<const float>(hv2.data(), n),
      VectorView<const float>(hy.data(), n),
      VectorView<const float>(hz.data(), n));
  const double tol = 1e-3 * static_cast<double>(n);
  expect_close(out[0], ref.b, tol);
  expect_close(out[1], ref.x, tol);
  expect_close(out[2], ref.w, tol);

  const auto hGA = wl.matrix<float>(n, m);
  const auto hGB = wl.matrix<float>(n, m);
  const auto hgx = wl.vector<float>(m);
  const auto gref = apps::gesummv_cpu<float>(
      alpha, beta, MatrixView<const float>(hGA.data(), n, m),
      MatrixView<const float>(hGB.data(), n, m),
      VectorView<const float>(hgx.data(), m));
  expect_close(out[3], gref, tol);
}

TEST(ComposeApps, GemverAndGesummvIdenticalOnWorkerPool) {
  const auto [serial, serial_stats] = run_gemver_gesummv(0, false);
  const auto [pool, pool_stats] = run_gemver_gesummv(4, false);
  EXPECT_EQ(serial, pool);
  EXPECT_EQ(pool_stats.verify_failures, 0u);
  EXPECT_EQ(serial_stats.executed, pool_stats.executed);
}

// --- Fault injection across the compiled compositions ---------------------

TEST(ComposeFaults, EveryInjectedFaultCaughtAndRecoveredBitIdentical) {
  const auto [clean, clean_stats] = run_gemver_gesummv(0, false);
  const auto [faulted, fstats] = run_gemver_gesummv(0, true);
  EXPECT_GT(fstats.faults_injected, 0u);
  EXPECT_EQ(fstats.sdc_caught, fstats.faults_injected);
  EXPECT_EQ(clean, faulted);  // retries converge to the fault-free bits
  EXPECT_EQ(clean_stats.sdc_caught, 0u);

  const auto [pool, pstats] = run_gemver_gesummv(4, true);
  EXPECT_EQ(pstats.sdc_caught, pstats.faults_injected);
  EXPECT_EQ(clean, pool);
}

TEST(ComposeFaults, GemverCorruptionLocalizedToGroundTruthChannel) {
  // One corrupted FIFO element somewhere in the compiled two-component
  // GEMVER pipeline; the tap plan must name exactly the channel the
  // injector recorded as ground truth.
  const std::int64_t n = 20;
  Workload wl(46);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 52;
  fc.channel_corrupt_rate = 1.0;
  fc.max_faults = 1;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(0));
  ctx.config().verification = verify::Options::always();

  host::Buffer<float> A(dev, n * n, 0);
  host::Buffer<float> u1(dev, n, 1), v1(dev, n, 2), u2(dev, n, 1),
      v2(dev, n, 2), yy(dev, n, 1), zz(dev, n, 2);
  host::Buffer<float> B(dev, n * n, 1), X(dev, n, 2), W(dev, n, 1);
  A.write(wl.matrix<float>(n, n));
  u1.write(wl.vector<float>(n));
  v1.write(wl.vector<float>(n));
  u2.write(wl.vector<float>(n));
  v2.write(wl.vector<float>(n));
  yy.write(wl.vector<float>(n));
  zz.write(wl.vector<float>(n));
  B.write(std::vector<float>(static_cast<std::size_t>(n * n), 0.0f));
  X.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  W.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));

  host::Event e = apps::gemver_composed_async<float>(
      ctx, n, 0.5f, 1.5f, A, u1, v1, u2, v2, yy, zz, B, X, W);
  try {
    e.wait();
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("composition 'gemver'"), std::string::npos);
    EXPECT_NE(msg.find("first divergent edge"), std::string::npos);
    const std::string victim = dev.faults().last_victim();
    ASSERT_FALSE(victim.empty());
    EXPECT_NE(msg.find("edge '" + victim + "'"), std::string::npos);
  }
  EXPECT_EQ(ctx.exec_stats().faults_injected, 1u);
  EXPECT_EQ(ctx.exec_stats().sdc_caught, 1u);
}

TEST(ComposeFaults, GesummvCorruptionLocalizedToGroundTruthChannel) {
  const std::int64_t n = 24, m = 18;
  Workload wl(47);
  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 53;
  fc.channel_corrupt_rate = 1.0;
  fc.max_faults = 1;
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(0));
  ctx.config().verification = verify::Options::always();

  host::Buffer<float> a(dev, n * m, 0), b(dev, n * m, 1), x(dev, m, 2),
      y(dev, n, 1);
  a.write(wl.matrix<float>(n, m));
  b.write(wl.matrix<float>(n, m));
  x.write(wl.vector<float>(m));
  y.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));

  host::Event e =
      apps::gesummv_composed_async<float>(ctx, n, m, 0.7f, 0.2f, a, b, x, y);
  try {
    e.wait();
    FAIL() << "expected VerificationError";
  } catch (const VerificationError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("composition 'gesummv'"), std::string::npos);
    const std::string victim = dev.faults().last_victim();
    ASSERT_FALSE(victim.empty());
    EXPECT_NE(msg.find("edge '" + victim + "'"), std::string::npos);
  }
  EXPECT_EQ(ctx.exec_stats().sdc_caught, 1u);
}

// --- Degradation: the synthesized refblas fallback ------------------------

TEST(ComposeFaults, PersistentCorruptionDegradesToSynthesizedCpuFallback) {
  // Unlimited corruption exhausts the retry budget; the command must
  // complete through the compiler's topologically-synthesized refblas
  // replay and still produce the exact refblas result. Sizes chosen so
  // every attempt streams well past the injector's deepest strike point
  // (the k-th pushed value, k <= 1024) — no attempt can escape clean.
  const std::int64_t n = 32, m = 24;
  const float alpha = 1.1f, beta = -0.4f;
  Workload wl(48);
  const auto ha = wl.matrix<float>(n, m);
  const auto hb = wl.matrix<float>(n, m);
  const auto hx = wl.vector<float>(m);

  host::Device dev;
  host::Context ctx(dev);
  host::FaultConfig fc;
  fc.seed = 54;
  fc.channel_corrupt_rate = 1.0;  // every attempt corrupted
  dev.inject_faults(fc);
  ctx.set_retry_policy(fast_retry(2, /*cpu_fallback=*/true));
  ctx.config().verification = verify::Options::always();

  host::Buffer<float> a(dev, n * m, 0), b(dev, n * m, 1), x(dev, m, 2),
      y(dev, n, 1);
  a.write(ha);
  b.write(hb);
  x.write(hx);
  y.write(std::vector<float>(static_cast<std::size_t>(n), 0.0f));
  apps::gesummv_composed<float>(ctx, n, m, alpha, beta, a, b, x, y);

  EXPECT_EQ(ctx.exec_stats().degraded, 1u);
  EXPECT_EQ(ctx.exec_stats().retries, 2u);
  const auto ref = apps::gesummv_cpu<float>(
      alpha, beta, MatrixView<const float>(ha.data(), n, m),
      MatrixView<const float>(hb.data(), n, m),
      VectorView<const float>(hx.data(), m));
  EXPECT_EQ(y.to_host(), ref);  // fallback IS refblas, bit for bit
}

}  // namespace
}  // namespace fblas
