// composed_faulty: one caller on one board with kWorkers workers runs
// compiled compositions (apps::*_composed_async: ATAX, BICG, GEMVER,
// GESUMMV at n = 256, AXPYDOT at n = 65536) under
// verify::Options::always(), with a seeded FaultInjector (launch
// failures, channel corruption, silent corruption) and a RetryPolicy of
// two retries plus CPU fallback. A unit is one composed command. Every
// stream edge carries a checksum tap, and the recovery path (compile at
// enqueue, snapshot/rollback, retry, refblas fallback) runs beside the
// happy path.
#include <cmath>
#include <exception>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "apps/gesummv.hpp"
#include "common/workload.hpp"
#include "fblas/level2.hpp"
#include "host/buffer.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "mdag/compile.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fblas;

constexpr std::int64_t kN = 256, kL = 65536;
constexpr int kWorkers = 2;  // plus the caller: 3 threads
constexpr int kRounds = 4;   // each round runs the five apps once
constexpr int kApps = 5;
constexpr float kAlpha = 0.75f, kBeta = -0.5f;
// The tests' tolerances: rel_error < 1e-4 for the GEMV-based outputs
// (test_host), and |beta - ref| < 1e-3 n for AXPYDOT's dot (test_apps),
// whose 65536 terms cancel to a small result for some inputs.
constexpr double kTol = 1e-4;
constexpr double kDotTol = 1e-3 * kL;
// Simulated cycles and makespan of one epoch under the fixed fault plan
// below (failed attempts burn cycles too). Identical for every seed.
constexpr std::uint64_t kGoldenCycles = 128588;
constexpr std::uint64_t kGoldenMakespan = 33140;

// Per epoch this plan injects launch failures that retry to success,
// silent and in-flight corruption the checkers catch, and (through a
// one-command sick-board window, rates x25) one command whose three
// attempts all fail, so it completes Degraded through the CPU fallback.
host::FaultConfig fault_plan() {
  host::FaultConfig fc;
  fc.seed = 2;
  fc.launch_fail_rate = 0.04;
  fc.channel_corrupt_rate = 0.08;
  fc.silent_corrupt_rate = 0.04;
  fc.device_fault_window.device = 0;
  fc.device_fault_window.begin = 13;
  fc.device_fault_window.end = 14;
  fc.device_fault_window.multiplier = 25;
  return fc;
}

// Device buffers of the five apps.
enum Buf {
  AtA, AtX, AtY,
  BiA, BiP, BiR, BiQ, BiS,
  GvA, GvU1, GvV1, GvU2, GvV2, GvY, GvZ, GvB, GvX, GvW,
  GsA, GsB, GsX, GsY,
  AdW, AdV, AdU,
  kBufs
};
constexpr std::int64_t kSize[kBufs] = {
    kN * kN, kN, kN,
    kN * kN, kN, kN, kN, kN,
    kN * kN, kN, kN, kN, kN, kN, kN, kN * kN, kN, kN,
    kN * kN, kN * kN, kN, kN,
    kL, kL, kL};
// Buffers each app writes (AXPYDOT writes a host scalar instead).
const std::vector<std::vector<int>> kOutputs = {
    {AtY}, {BiQ, BiS}, {GvB, GvX, GvW}, {GsY}, {}};
const char* const kAppName[kApps] = {
    "apps::atax_composed_async", "apps::bicg_composed_async",
    "apps::gemver_composed_async", "apps::gesummv_composed_async",
    "apps::axpydot_composed_async"};

using Outputs = std::vector<std::vector<float>>;

class ComposedFaulty final : public Workload {
 public:
  void prepare(std::uint64_t seed, Tally& warmup) override;
  void epoch(Tally& t, Spans* spans) override {
    run_epoch(t, spans, fault_plan(), true, false);
  }
  void probe(std::vector<Metric>& out, Tally& t) override;
  // One caller waits for each command, so one worker runs at a time.
  std::size_t worker_cpus() const override { return 1; }

 private:
  struct Session;  // one board, context and buffer set
  std::unique_ptr<Session> open(Spans* spans, Tally& t,
                                const host::FaultConfig& faults,
                                const verify::Options& vo) const;
  host::Event issue(Session& s, int app) const;
  Outputs outputs(const Session& s, int app) const;
  /// The unit sequence under `faults`. With `gate_units` every unit is
  /// compared with the references; without, outputs are only recorded
  /// (into *record_ when set).
  host::ExecStats run_epoch(Tally& t, Spans* spans,
                            const host::FaultConfig& faults, bool gate_units,
                            bool traced);
  /// Wall of each app's refblas reference (what a degraded command's
  /// fallback replays), in ms.
  std::vector<double> refblas_ms() const;

  std::vector<std::vector<float>> init_;
  std::vector<Outputs> cpu_;       // per app: refblas reference
  std::vector<Outputs> clean_;     // per unit: fault-free device bits
  std::vector<Outputs> fallback_;  // per unit: CPU-fallback bits
  std::vector<Outputs>* record_ = nullptr;
  std::vector<std::uint64_t> cycles_;  // per unit, warm-up epoch
  bool warm_ = false;
};

struct ComposedFaulty::Session {
  std::unique_ptr<host::Device> dev;
  std::unique_ptr<host::Context> ctx;
  std::vector<host::Buffer<float>> bufs;
  float beta = 0.0f;  // AXPYDOT result
};

std::unique_ptr<ComposedFaulty::Session> ComposedFaulty::open(
    Spans* spans, Tally& t, const host::FaultConfig& faults,
    const verify::Options& vo) const {
  const auto t0 = Clock::now();
  Scope scope(spans, "setup", "setup", t.units);
  auto s = std::make_unique<Session>();
  s->dev = std::make_unique<host::Device>(sim::DeviceId::Stratix10);
  if (faults.launch_fail_rate > 0 || faults.channel_corrupt_rate > 0 ||
      faults.silent_corrupt_rate > 0) {
    s->dev->inject_faults(faults);
  }
  s->ctx = std::make_unique<host::Context>(*s->dev, stream::Mode::Cycle,
                                           kWorkers);
  s->ctx->config().verification = vo;
  host::RetryPolicy retry;
  retry.max_retries = 2;
  retry.cpu_fallback = true;
  s->ctx->set_retry_policy(retry);
  s->bufs.reserve(kBufs);
  for (int i = 0; i < kBufs; ++i) {
    s->bufs.emplace_back(*s->dev, kSize[i], i % s->dev->bank_count());
    Scope w(spans, "Buffer::write", "transfer", t.units);
    s->bufs.back().write(init_[static_cast<std::size_t>(i)]);
  }
  t.setup_done(t0);
  return s;
}

host::Event ComposedFaulty::issue(Session& s, int app) const {
  auto& b = s.bufs;
  host::Context& ctx = *s.ctx;
  switch (app) {
    case 0:
      return apps::atax_composed_async<float>(ctx, kN, kN, b[AtA], b[AtX],
                                              b[AtY]);
    case 1:
      return apps::bicg_composed_async<float>(ctx, kN, kN, b[BiA], b[BiP],
                                              b[BiR], b[BiQ], b[BiS]);
    case 2:
      return apps::gemver_composed_async<float>(
          ctx, kN, kAlpha, kBeta, b[GvA], b[GvU1], b[GvV1], b[GvU2], b[GvV2],
          b[GvY], b[GvZ], b[GvB], b[GvX], b[GvW]);
    case 3:
      return apps::gesummv_composed_async<float>(ctx, kN, kN, kAlpha, kBeta,
                                                 b[GsA], b[GsB], b[GsX],
                                                 b[GsY]);
    default:
      return apps::axpydot_composed_async<float>(ctx, kL, b[AdW], b[AdV],
                                                 b[AdU], kAlpha, &s.beta);
  }
}

Outputs ComposedFaulty::outputs(const Session& s, int app) const {
  Outputs out;
  for (int id : kOutputs[static_cast<std::size_t>(app)]) {
    out.push_back(s.bufs[static_cast<std::size_t>(id)].to_host());
  }
  if (app == 4) out.push_back({s.beta});
  return out;
}

void ComposedFaulty::prepare(std::uint64_t seed, Tally& warmup) {
  fblas::Workload wl(seed);
  for (int i = 0; i < kBufs; ++i) init_.push_back(wl.vector<float>(kSize[i]));
  auto M = [&](int i) {
    return MatrixView<const float>(init_[static_cast<std::size_t>(i)].data(),
                                   kN, kN);
  };
  auto V = [&](int i) {
    const auto& v = init_[static_cast<std::size_t>(i)];
    return VectorView<const float>(v.data(),
                                   static_cast<std::int64_t>(v.size()));
  };
  const auto bi = apps::bicg_cpu<float>(M(BiA), V(BiP), V(BiR));
  const auto gv = apps::gemver_cpu<float>(kAlpha, kBeta, M(GvA), V(GvU1),
                                          V(GvV1), V(GvU2), V(GvV2), V(GvY),
                                          V(GvZ));
  cpu_ = {{apps::atax_cpu<float>(M(AtA), V(AtX))},
          {bi.q, bi.s},
          {gv.b, gv.x, gv.w},
          {apps::gesummv_cpu<float>(kAlpha, kBeta, M(GsA), M(GsB), V(GsX))},
          {{apps::axpydot_cpu<float>(V(AdW), V(AdV), V(AdU), kAlpha)}}};

  // Reference bits: the same commands without faults, and with every
  // device attempt failing (so each one completes through the fallback).
  Tally scratch;
  record_ = &clean_;
  run_epoch(scratch, nullptr, host::FaultConfig{}, false, false);
  host::FaultConfig all_fail;
  all_fail.seed = 1;
  all_fail.launch_fail_rate = 1.0;
  record_ = &fallback_;
  run_epoch(scratch, nullptr, all_fail, false, false);
  record_ = nullptr;
  for (const auto& e : scratch.errors) warmup.fail(e);
  warm_ = false;
  run_epoch(warmup, nullptr, fault_plan(), true, false);
  warm_ = true;
}

host::ExecStats ComposedFaulty::run_epoch(Tally& t, Spans* spans,
                                          const host::FaultConfig& faults,
                                          bool gate_units, bool traced) {
  auto s = open(spans, t, faults, verify::Options::always());
  host::Context& ctx = *s->ctx;
  std::shared_ptr<trace::Recorder> rec;
  if (traced) rec = ctx.tracing();
  EpochLedger led;
  for (int k = 0; k < kRounds * kApps; ++k) {
    const int app = k % kApps;
    const std::uint64_t u = t.units;
    Scope unit(spans, "composed_command", "unit", u);
    const std::uint64_t cyc0 = ctx.total_cycles();
    const std::uint64_t ex0 = ctx.exec_stats().executed;
    bool gate = true;
    double ms = 0;
    host::Event ev;
    try {
      const auto t0 = Clock::now();
      {
        Scope sp(spans, kAppName[app], "runtime", u);
        ev = issue(*s, app);
      }
      {
        Scope sp(spans, "Event::wait", "runtime", u);
        ev.wait();
      }
      ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    } catch (const std::exception& e) {
      t.fail(std::string("composed command threw: ") + e.what());
      gate = false;
    }
    ++led.issued;
    const host::CommandStatus st = ev.status();
    if (st.failed()) gate = false;
    if (st.degraded()) {
      ++led.seen_degraded;
      ++t.degraded_commands;
    }
    const std::uint64_t cycles = ctx.total_cycles() - cyc0;
    const std::uint64_t commands = ctx.exec_stats().executed - ex0;

    Outputs got;
    {
      Scope sp(spans, "Buffer::to_host", "transfer", u);
      got = outputs(*s, app);
    }
    if (record_ != nullptr) record_->push_back(got);
    if (gate_units) {
      if (corrupt_now(t)) mangle(got[0]);
      Scope sp(spans, "refblas compare", "check", u);
      // Recovery is invariant: a command that retried to success holds
      // the fault-free bits, one that degraded holds the fallback's.
      const auto uk = static_cast<std::size_t>(k);
      const Outputs& bits = st.degraded() ? fallback_[uk] : clean_[uk];
      const Outputs& want = cpu_[static_cast<std::size_t>(app)];
      for (std::size_t i = 0; i < got.size(); ++i) {
        const bool near =
            app == 4 ? std::abs(double(got[i][0]) - want[i][0]) < kDotTol
                     : close(got[i], want[i], kTol);
        gate = gate && same_bits(got[i], bits[i]) && near;
      }
      if (!gate) t.fail(std::string(kAppName[app]) + " result is wrong");
      if (!warm_) {
        cycles_.push_back(cycles);
      } else if (cycles != cycles_[static_cast<std::size_t>(k)]) {
        gate = false;
        t.fail("composed command cycles differ from the warm-up epoch");
      }
    }
    t.unit_done(ms, commands, cycles, gate, st.degraded());
  }
  const host::ExecStats es = ctx.exec_stats();
  if (gate_units) {
    led.total_cycles = ctx.total_cycles();
    led.makespan_cycles = ctx.makespan_cycles();
    led.executed = es.executed;
    led.degraded = es.degraded;
    led.verify_failures = es.verify_failures;
    led.sdc_caught = es.sdc_caught;
    check_epoch(t, led, kGoldenCycles, kGoldenMakespan);
  }
  if (rec) {
    const trace::MetricsSnapshot m = rec->metrics();
    if (m.completes != es.executed || m.degraded != es.degraded ||
        m.retries != es.retries || m.verify_checks != es.verified ||
        m.verify_rejects != es.verify_failures) {
      t.fail("trace::MetricsSnapshot does not reconcile with ExecStats");
    }
  }
  return es;
}

// --- Per-layer probes: compiler, refblas fallback, recovery, verify -------

/// The five apps' compositions exactly as src/apps builds them, for
/// timing mdag::compile on its own.
std::vector<host::Composition<float>> compositions(
    std::vector<host::Buffer<float>>& b, float* beta,
    const host::RoutineConfig& rc) {
  using mdag::StreamSig;
  const core::GemvConfig ncfg{Transpose::None, core::MatrixTiling::TilesByRows,
                              rc.width, rc.tile_rows, rc.tile_rows};
  const core::GemvConfig tcfg{Transpose::Trans,
                              core::MatrixTiling::TilesByRows, rc.width,
                              rc.tile_rows, rc.tile_rows};
  const core::GerConfig gcfg{core::MatrixTiling::TilesByRows, rc.width,
                             rc.tile_rows, rc.tile_rows};
  const auto a_sig = StreamSig::mat(kN, kN, core::gemv_a_schedule(ncfg));
  const auto x_sig = StreamSig::vec(kN, core::gemv_x_repeat(ncfg, kN, kN));
  std::vector<host::Composition<float>> out;

  host::Composition<float> atax("atax");
  {
    const int ra = atax.input("read_A", b[AtA]);
    const int rx = atax.input("read_x", b[AtX]);
    const int wy = atax.output("store_y", b[AtY]);
    const int g1 = atax.gemv("gemv", 1.0f, 0.0f);
    const int g2 = atax.gemv("gemv_T", 1.0f, 0.0f, Transpose::Trans);
    atax.connect(ra, g1, a_sig);
    atax.connect(ra, g2, a_sig);
    atax.connect(rx, g1, x_sig);
    atax.connect(g1, g2, StreamSig::vec(kN));
    atax.connect(g2, wy, StreamSig::vec(kN));
  }
  out.push_back(atax);

  host::Composition<float> bicg("bicg");
  {
    const int ra = bicg.input("read_A", b[BiA]);
    const int rp = bicg.input("read_p", b[BiP]);
    const int rr = bicg.input("read_r", b[BiR]);
    const int wq = bicg.output("store_q", b[BiQ]);
    const int ws = bicg.output("store_s", b[BiS]);
    const int g1 = bicg.gemv("gemv", 1.0f, 0.0f);
    const int g2 = bicg.gemv("gemv_T", 1.0f, 0.0f, Transpose::Trans);
    bicg.connect(ra, g1, a_sig);
    bicg.connect(ra, g2, a_sig);
    bicg.connect(rp, g1, x_sig);
    bicg.connect(rr, g2,
                 StreamSig::vec(kN, core::gemv_x_repeat(tcfg, kN, kN)));
    bicg.connect(g1, wq, StreamSig::vec(kN));
    bicg.connect(g2, ws, StreamSig::vec(kN));
  }
  out.push_back(bicg);

  host::Composition<float> gemver("gemver");
  {
    gemver.prefer_split();
    const int ra = gemver.input("read_A", b[GvA]);
    const int ru1 = gemver.input("read_u1", b[GvU1]);
    const int rv1 = gemver.input("read_v1", b[GvV1]);
    const int ru2 = gemver.input("read_u2", b[GvU2]);
    const int rv2 = gemver.input("read_v2", b[GvV2]);
    const int ry = gemver.input("read_y", b[GvY]);
    const int rz = gemver.input("read_z", b[GvZ]);
    const int wb = gemver.output("store_B", b[GvB]);
    const int wx = gemver.output("store_x", b[GvX]);
    const int ww = gemver.output("store_w", b[GvW]);
    const int g1 = gemver.ger("ger1", 1.0f);
    const int g2 = gemver.ger("ger2", 1.0f);
    const int gt = gemver.gemv("gemv_T", kBeta, 1.0f, Transpose::Trans);
    const int gw = gemver.gemv("gemv_w", kAlpha, 0.0f);
    const auto m_sig = StreamSig::mat(kN, kN, core::ger_a_schedule(gcfg));
    const auto gx = StreamSig::vec(kN, core::ger_x_repeat(gcfg, kN, kN));
    const auto gy = StreamSig::vec(kN, core::ger_y_repeat(gcfg, kN, kN));
    gemver.connect(ra, g1, m_sig);
    gemver.connect(ru1, g1, gx);
    gemver.connect(rv1, g1, gy);
    gemver.connect(g1, g2, m_sig);
    gemver.connect(ru2, g2, gx);
    gemver.connect(rv2, g2, gy);
    gemver.connect(g2, wb, m_sig);
    gemver.connect(g2, gt, m_sig);
    gemver.connect(ry, gt,
                   StreamSig::vec(kN, core::gemv_x_repeat(tcfg, kN, kN)));
    gemver.connect(rz, gt, StreamSig::vec(kN));
    gemver.connect(g2, gw, m_sig);
    gemver.connect(gt, gw, StreamSig::vec(kN), x_sig);
    gemver.connect(gt, wx, StreamSig::vec(kN));
    gemver.connect(gw, ww, StreamSig::vec(kN));
  }
  out.push_back(gemver);

  host::Composition<float> gesummv("gesummv");
  {
    const int ra = gesummv.input("read_A", b[GsA]);
    const int rb = gesummv.input("read_B", b[GsB]);
    const int rx = gesummv.input("read_x", b[GsX]);
    const int wy = gesummv.output("store_y", b[GsY]);
    const int g1 = gesummv.gemv("gemv_A", kAlpha, 0.0f);
    const int g2 = gesummv.gemv("gemv_B", kBeta, 0.0f);
    const int ad = gesummv.axpy("add", 1.0f);
    gesummv.connect(ra, g1, a_sig);
    gesummv.connect(rb, g2, a_sig);
    gesummv.connect(rx, g1, x_sig);
    gesummv.connect(rx, g2, x_sig);
    gesummv.connect(g1, ad, StreamSig::vec(kN));
    gesummv.connect(g2, ad, StreamSig::vec(kN));
    gesummv.connect(ad, wy, StreamSig::vec(kN));
  }
  out.push_back(gesummv);

  host::Composition<float> axpydot("axpydot");
  {
    const int rv = axpydot.input("read_v", b[AdV]);
    const int rw = axpydot.input("read_w", b[AdW]);
    const int ru = axpydot.input("read_u", b[AdU]);
    const int wb = axpydot.output_scalar("write_beta", beta);
    const int ax = axpydot.axpy("axpy", -kAlpha);
    const int dt = axpydot.dot("dot");
    axpydot.connect(rv, ax, StreamSig::vec(kL));
    axpydot.connect(rw, ax, StreamSig::vec(kL));
    axpydot.connect(ax, dt, StreamSig::vec(kL));
    axpydot.connect(ru, dt, StreamSig::vec(kL));
    axpydot.connect(dt, wb, StreamSig::vec(1));
  }
  out.push_back(axpydot);
  return out;
}

std::vector<double> ComposedFaulty::refblas_ms() const {
  auto M = [&](int i) {
    return MatrixView<const float>(init_[static_cast<std::size_t>(i)].data(),
                                   kN, kN);
  };
  auto V = [&](int i) {
    const auto& v = init_[static_cast<std::size_t>(i)];
    return VectorView<const float>(v.data(),
                                   static_cast<std::int64_t>(v.size()));
  };
  std::vector<double> ms;
  auto time = [&](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  };
  time([&] { apps::atax_cpu<float>(M(AtA), V(AtX)); });
  time([&] { apps::bicg_cpu<float>(M(BiA), V(BiP), V(BiR)); });
  time([&] {
    apps::gemver_cpu<float>(kAlpha, kBeta, M(GvA), V(GvU1), V(GvV1), V(GvU2),
                            V(GvV2), V(GvY), V(GvZ));
  });
  time([&] {
    apps::gesummv_cpu<float>(kAlpha, kBeta, M(GsA), M(GsB), V(GsX));
  });
  time([&] { apps::axpydot_cpu<float>(V(AdW), V(AdV), V(AdU), kAlpha); });
  return ms;
}

void ComposedFaulty::probe(std::vector<Metric>& out, Tally& t) {
  // Recovery and verification ledgers of one epoch under the fault plan,
  // with the runtime's own recorder armed to reconcile against.
  Tally traced;
  const host::ExecStats es = run_epoch(traced, nullptr, fault_plan(), true,
                                       true);
  for (const auto& e : traced.errors) t.fail(e);
  out.push_back({"host.faults_injected",
                 static_cast<double>(es.faults_injected), "count"});
  out.push_back({"host.retries", static_cast<double>(es.retries), "count"});
  out.push_back({"verify.checks", static_cast<double>(es.verified), "count"});
  out.push_back({"verify.rejects", static_cast<double>(es.verify_failures),
                 "count"});
  out.push_back({"verify.sdc_caught", static_cast<double>(es.sdc_caught),
                 "count"});
  // Write-set bytes a command snapshots before its first attempt (and
  // restores per retry), averaged over the app mix; computed from the
  // shapes. AXPYDOT's write set is a host scalar, not device bytes.
  double bytes = 0;
  for (const auto& ids : kOutputs) {
    for (int id : ids) bytes += static_cast<double>(kSize[id]) * sizeof(float);
  }
  out.push_back({"host.snapshot_bytes", bytes / kApps, "B"});

  // Always-on verification against none: ATAX, same inputs, no faults.
  std::vector<double> ratio;
  for (int rep = 0; rep < 9; ++rep) {
    double ms[2] = {0, 0};  // [always, off]
    for (int i = 0; i < 2; ++i) {
      const int v = (rep + i) % 2;  // alternate which policy runs first
      Tally scratch;
      auto s = open(nullptr, scratch, host::FaultConfig{},
                    v == 0 ? verify::Options::always()
                           : verify::Options::off());
      const auto t0 = Clock::now();
      issue(*s, 0).wait();
      ms[v] = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count();
      if (!same_bits(outputs(*s, 0)[0], clean_[0][0])) {
        t.fail("ATAX bits depend on the verification policy");
      }
    }
    ratio.push_back(ms[0] / ms[1]);
  }
  out.push_back({"verify.always_ratio", median(ratio), "ratio"});

  // mdag::compile alone on each app's composition; mean over the apps of
  // each app's median.
  {
    Tally scratch;
    auto s = open(nullptr, scratch, host::FaultConfig{},
                  verify::Options::always());
    const host::RoutineConfig& rc = s->ctx->config();
    const auto comps = compositions(s->bufs, &s->beta, rc);
    double sum_us = 0;
    for (const auto& c : comps) {
      mdag::CompileOptions co;
      co.width = rc.width;
      co.max_channel_depth = c.max_channel_depth();
      co.prefer_sizing = !c.split_preferred();
      co.allow_split = !c.streaming_required();
      std::vector<double> us;
      for (int rep = 0; rep < 51; ++rep) {
        const auto t0 = Clock::now();
        const mdag::Compiled cp = mdag::compile(c.graph(), c.semantics(), co);
        us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        if (cp.channels.empty()) t.fail("mdag::compile produced no channels");
      }
      sum_us += median(us);
    }
    out.push_back({"mdag.compile_us",
                   sum_us / static_cast<double>(comps.size()), "us"});
  }

  std::vector<std::vector<double>> reps(kApps);
  for (int rep = 0; rep < 9; ++rep) {
    const auto ms = refblas_ms();
    for (std::size_t a = 0; a < ms.size(); ++a) reps[a].push_back(ms[a]);
  }
  double sum_ms = 0;
  for (const auto& r : reps) sum_ms += median(r);
  out.push_back({"refblas.fallback_ms", sum_ms / kApps, "ms"});
}

}  // namespace

std::unique_ptr<Workload> make_composed_faulty() {
  return std::make_unique<ComposedFaulty>();
}

}  // namespace perfbench
