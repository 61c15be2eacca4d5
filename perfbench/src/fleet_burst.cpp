// fleet_burst: one enqueuing thread and kWorkers workers on a
// kDevices-board DevicePool in Cycle mode, with sampled verification and
// a RetryPolicy. A unit is a window of kWindow small async commands
// (GEMV 128^2, AXPY/DOT n=4096, stream GEMM 32^3, systolic GEMM 24^3 and
// a RAW/WAR hazard chain over buffers spread across the boards) followed
// by Context::finish(). Per-command host overhead, the dependency graph,
// placement and the worker pool dominate; each command streams little.
#include <algorithm>
#include <exception>

#include "common/workload.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "host/device_pool.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "refblas/level3.hpp"
#include "systolic/systolic_array.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fblas;

constexpr int kDevices = 3;
constexpr int kWorkers = 3;  // plus the enqueuing thread: nproc = 4
constexpr int kWindowsPerEpoch = 4;
constexpr std::int64_t kGemvN = 128, kVecN = 4096, kGemmN = 32, kSysN = 24;
constexpr double kTol = 1e-4;
// Simulated cycles and makespan of one epoch (kWindowsPerEpoch windows).
// Fixed by the command mix and shapes, identical for every seed.
constexpr std::uint64_t kGoldenCycles = 190096;
constexpr std::uint64_t kGoldenMakespan = 14972;

enum class Op { Gemv, Axpy, Dot, Gemm, Systolic, Scal, Copy };

/// One command of the window. Operand fields index the buffer table
/// (`c` indexes the DOT result slots for Op::Dot).
struct Cmd {
  Op op;
  int a, b, c;
  float alpha;
};

struct BufSpec {
  std::int64_t n;
  int device;
  int bank;
  bool output;  // read back and gated after every window
};

class FleetBurst final : public Workload {
 public:
  void prepare(std::uint64_t seed, Tally& warmup) override;
  void epoch(Tally& t, Spans* spans) override {
    run_epoch(t, spans, kWorkers, false);
  }
  void probe(std::vector<Metric>& out, Tally& t) override;
  std::size_t worker_cpus() const override { return kWorkers; }

 private:
  struct EpochStats {
    host::ExecStats exec;
    trace::MetricsSnapshot trace;
  };
  void build_program();
  /// Applies one window to host copies with refblas.
  void replay_window(std::vector<std::vector<float>>& host,
                     std::vector<float>& dots) const;
  EpochStats run_epoch(Tally& t, Spans* spans, int workers, bool traced);

  std::vector<BufSpec> specs_;
  std::vector<std::vector<float>> init_;
  std::vector<Cmd> window_;
  int dot_slots_ = 0;
  // Per window of an epoch: refblas outputs, warm-up device bits and
  // warm-up simulated cycles.
  std::vector<std::vector<std::vector<float>>> want_;
  std::vector<std::vector<std::vector<float>>> bits_;
  std::vector<std::uint64_t> cycles_;
  bool warm_ = false;
  std::vector<double>* enqueue_us_ = nullptr;  // probe only
};

void FleetBurst::build_program() {
  auto buf = [&](std::int64_t n, int device, int bank, bool output) {
    specs_.push_back({n, device, bank, output});
    return static_cast<int>(specs_.size()) - 1;
  };
  // Commands per kind; each kind's operands live on one board, boards
  // assigned round-robin, so independent work spreads across the fleet.
  std::vector<std::vector<Cmd>> kinds(6);
  for (int i = 0; i < 12; ++i) {
    const int d = i % kDevices;
    const int a = buf(kGemvN * kGemvN, d, 0, false);
    const int x = buf(kGemvN, d, 1, false);
    kinds[0].push_back({Op::Gemv, a, x, buf(kGemvN, d, 2, true), 1.0f});
  }
  for (int i = 0; i < 8; ++i) {
    const int d = i % kDevices;
    const int x = buf(kVecN, d, 1, false);
    kinds[1].push_back({Op::Axpy, x, buf(kVecN, d, 2, true), 0, 0.5f});
  }
  for (int i = 0; i < 8; ++i) {
    const int d = (i + 1) % kDevices;
    const int x = buf(kVecN, d, 0, false);
    kinds[2].push_back({Op::Dot, x, buf(kVecN, d, 3, false), dot_slots_++,
                        1.0f});
  }
  for (int i = 0; i < 6; ++i) {
    const int d = (i + 2) % kDevices;
    const int a = buf(kGemmN * kGemmN, d, 0, false);
    const int b = buf(kGemmN * kGemmN, d, 1, false);
    kinds[3].push_back({Op::Gemm, a, b, buf(kGemmN * kGemmN, d, 2, true),
                        1.0f});
  }
  for (int i = 0; i < 6; ++i) {
    const int d = i % kDevices;
    const int a = buf(kSysN * kSysN, d, 0, false);
    const int b = buf(kSysN * kSysN, d, 1, false);
    kinds[4].push_back({Op::Systolic, a, b, buf(kSysN * kSysN, d, 2, true),
                        1.0f});
  }
  // The hazard chain of bench/overlap over four buffers on different
  // boards: RAW, WAR and WAW edges, and placement that has to migrate.
  const int b0 = buf(kVecN, 0, 0, true), b1 = buf(kVecN, 1, 1, true),
            b2 = buf(kVecN, 2, 2, true), b3 = buf(kVecN, 0, 3, true);
  kinds[5] = {{Op::Scal, b0, 0, 0, 1.01f},  {Op::Axpy, b0, b1, 0, 0.5f},
              {Op::Copy, b1, b2, 0, 1.0f},  {Op::Scal, b1, 0, 0, 0.99f},
              {Op::Axpy, b2, b3, 0, -0.25f}, {Op::Copy, b3, b0, 0, 1.0f},
              {Op::Scal, b0, 0, 0, 1.01f},  {Op::Axpy, b0, b1, 0, 0.5f}};
  // Interleave the kinds round-robin: 48 commands.
  for (std::size_t i = 0; window_.size() < 48; ++i) {
    for (auto& k : kinds) {
      if (i < k.size()) window_.push_back(k[i]);
    }
  }
}

void FleetBurst::replay_window(std::vector<std::vector<float>>& h,
                               std::vector<float>& dots) const {
  auto vec = [&](int i) {
    return VectorView<float>(h[static_cast<std::size_t>(i)]);
  };
  auto cvec = [&](int i) {
    const auto& v = h[static_cast<std::size_t>(i)];
    return VectorView<const float>(v.data(),
                                   static_cast<std::int64_t>(v.size()));
  };
  auto cmat = [&](int i, std::int64_t n) {
    return MatrixView<const float>(h[static_cast<std::size_t>(i)].data(), n, n);
  };
  auto mat = [&](int i, std::int64_t n) {
    return MatrixView<float>(h[static_cast<std::size_t>(i)].data(), n, n);
  };
  for (const Cmd& c : window_) {
    switch (c.op) {
      case Op::Gemv:
        ref::gemv<float>(Transpose::None, 1.0f, cmat(c.a, kGemvN), cvec(c.b),
                         0.5f, vec(c.c));
        break;
      case Op::Axpy:
        ref::axpy<float>(c.alpha, cvec(c.a), vec(c.b));
        break;
      case Op::Dot:
        dots[static_cast<std::size_t>(c.c)] =
            ref::dot<float>(cvec(c.a), cvec(c.b));
        break;
      case Op::Gemm:
        ref::gemm<float>(Transpose::None, Transpose::None, 1.0f,
                         cmat(c.a, kGemmN), cmat(c.b, kGemmN), 0.5f,
                         mat(c.c, kGemmN));
        break;
      case Op::Systolic:
        ref::gemm<float>(Transpose::None, Transpose::None, 1.0f,
                         cmat(c.a, kSysN), cmat(c.b, kSysN), 0.0f,
                         mat(c.c, kSysN));
        break;
      case Op::Scal:
        ref::scal<float>(c.alpha, vec(c.a));
        break;
      case Op::Copy:
        ref::copy<float>(cvec(c.a), vec(c.b));
        break;
    }
  }
}

void FleetBurst::prepare(std::uint64_t seed, Tally& warmup) {
  build_program();
  fblas::Workload wl(seed);
  for (const BufSpec& s : specs_) init_.push_back(wl.vector<float>(s.n));
  auto host = init_;
  std::vector<float> dots(static_cast<std::size_t>(dot_slots_), 0.0f);
  for (int w = 0; w < kWindowsPerEpoch; ++w) {
    replay_window(host, dots);
    std::vector<std::vector<float>> outs;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (specs_[i].output) outs.push_back(host[i]);
    }
    outs.push_back(dots);
    want_.push_back(std::move(outs));
  }
  // The warm-up epoch runs on the serial executor: later epochs on the
  // worker pool must reproduce its bits and cycles exactly.
  warm_ = false;
  run_epoch(warmup, nullptr, 0, false);
  warm_ = true;
}

FleetBurst::EpochStats FleetBurst::run_epoch(Tally& t, Spans* spans,
                                             int workers, bool traced) {
  const auto t_setup = Clock::now();
  std::unique_ptr<host::DevicePool> pool;
  std::unique_ptr<host::Context> ctx;
  std::vector<host::Buffer<float>> bufs;
  {
    Scope s(spans, "setup", "setup", t.units);
    pool = std::make_unique<host::DevicePool>(kDevices);
    ctx = std::make_unique<host::Context>(*pool, stream::Mode::Cycle,
                                          workers);
    ctx->config().verification = verify::Options::sampled(0.25);
    host::RetryPolicy retry;
    retry.max_retries = 2;
    retry.cpu_fallback = true;
    ctx->set_retry_policy(retry);
    bufs.reserve(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      bufs.emplace_back(pool->device(specs_[i].device), specs_[i].n,
                        specs_[i].bank);
      Scope w(spans, "Buffer::write", "transfer", t.units);
      bufs.back().write(init_[i]);
    }
  }
  t.setup_done(t_setup);
  std::shared_ptr<trace::Recorder> rec;
  if (traced) rec = ctx->tracing();

  EpochLedger led;
  std::vector<float> dots(static_cast<std::size_t>(dot_slots_), 0.0f);
  auto B = [&](int i) -> host::Buffer<float>& {
    return bufs[static_cast<std::size_t>(i)];
  };
  for (int w = 0; w < kWindowsPerEpoch; ++w) {
    const std::uint64_t u = t.units;
    Scope unit(spans, "window", "unit", u);
    const std::uint64_t cyc0 = ctx->total_cycles();
    const std::uint64_t ex0 = ctx->exec_stats().executed;
    std::vector<host::Event> events;
    events.reserve(window_.size());
    bool gate = true;
    double ms = 0;
    try {
      const auto t0 = Clock::now();
      for (const Cmd& c : window_) {
        const auto tc = Clock::now();
        switch (c.op) {
          case Op::Gemv: {
            Scope s(spans, "Context::gemv_async", "runtime", u);
            events.push_back(ctx->gemv_async<float>(
                Transpose::None, kGemvN, kGemvN, 1.0f, B(c.a), B(c.b), 1,
                0.5f, B(c.c), 1));
            break;
          }
          case Op::Axpy: {
            Scope s(spans, "Context::axpy_async", "runtime", u);
            events.push_back(ctx->axpy_async<float>(kVecN, c.alpha, B(c.a), 1,
                                                    B(c.b), 1));
            break;
          }
          case Op::Dot: {
            Scope s(spans, "Context::dot_async", "runtime", u);
            events.push_back(ctx->dot_async<float>(
                kVecN, B(c.a), 1, B(c.b), 1,
                &dots[static_cast<std::size_t>(c.c)]));
            break;
          }
          case Op::Gemm: {
            Scope s(spans, "Context::gemm_async", "runtime", u);
            events.push_back(ctx->gemm_async<float>(
                Transpose::None, Transpose::None, kGemmN, kGemmN, kGemmN,
                1.0f, B(c.a), B(c.b), 0.5f, B(c.c)));
            break;
          }
          case Op::Systolic: {
            Scope s(spans, "Context::gemm_systolic_async", "runtime", u);
            events.push_back(ctx->gemm_systolic_async<float>(
                kSysN, kSysN, kSysN, B(c.a), B(c.b), B(c.c)));
            break;
          }
          case Op::Scal: {
            Scope s(spans, "Context::scal_async", "runtime", u);
            events.push_back(ctx->scal_async<float>(kVecN, c.alpha, B(c.a), 1));
            break;
          }
          case Op::Copy: {
            Scope s(spans, "Context::copy_async", "runtime", u);
            events.push_back(
                ctx->copy_async<float>(kVecN, B(c.a), 1, B(c.b), 1));
            break;
          }
        }
        if (enqueue_us_ != nullptr) {
          enqueue_us_->push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - tc)
                  .count());
        }
      }
      {
        Scope s(spans, "Context::finish", "runtime", u);
        ctx->finish();
      }
      ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    } catch (const std::exception& e) {
      t.fail(std::string("fleet window threw: ") + e.what());
      gate = false;
      // Drain what was enqueued before the buffers and results go away.
      try {
        ctx->finish();
      } catch (const std::exception&) {
      }
    }
    led.issued += events.size();
    bool any_degraded = false;
    for (const host::Event& ev : events) {
      const host::CommandStatus st = ev.status();
      if (st.failed()) gate = false;
      if (st.degraded()) {
        any_degraded = true;
        ++led.seen_degraded;
        ++t.degraded_commands;
      }
    }
    const std::uint64_t cycles = ctx->total_cycles() - cyc0;
    const std::uint64_t commands = ctx->exec_stats().executed - ex0;

    std::vector<std::vector<float>> got;
    {
      Scope s(spans, "Buffer::to_host", "transfer", u);
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i].output) got.push_back(bufs[i].to_host());
      }
    }
    got.push_back(dots);
    if (corrupt_now(t)) mangle(got[0]);
    {
      Scope s(spans, "refblas compare", "check", u);
      const auto& want = want_[static_cast<std::size_t>(w)];
      for (std::size_t i = 0; i < got.size(); ++i) {
        gate = gate && close(got[i], want[i], kTol);
      }
      if (!gate) t.fail("fleet window differs from the refblas replay");
    }
    if (!warm_) {
      bits_.push_back(got);
      cycles_.push_back(cycles);
    } else {
      bool same = cycles == cycles_[static_cast<std::size_t>(w)];
      for (std::size_t i = 0; same && i < got.size(); ++i) {
        same = same_bits(got[i], bits_[static_cast<std::size_t>(w)][i]);
      }
      if (!same) {
        gate = false;
        t.fail("fleet window cycles or bits differ from the serial warm-up");
      }
    }
    t.unit_done(ms, commands, cycles, gate, any_degraded);
  }

  EpochStats es;
  es.exec = ctx->exec_stats();
  led.total_cycles = ctx->total_cycles();
  led.makespan_cycles = ctx->makespan_cycles();
  led.executed = es.exec.executed;
  led.degraded = es.exec.degraded;
  led.verify_failures = es.exec.verify_failures;
  led.sdc_caught = es.exec.sdc_caught;
  check_epoch(t, led, kGoldenCycles, kGoldenMakespan);
  if (rec) {
    es.trace = rec->metrics();
    const trace::MetricsSnapshot& m = es.trace;
    if (m.completes != es.exec.executed || m.degraded != es.exec.degraded ||
        m.retries != es.exec.retries || m.verify_checks != es.exec.verified ||
        m.verify_rejects != es.exec.verify_failures ||
        m.migrations != es.exec.migrations) {
      t.fail("trace::MetricsSnapshot does not reconcile with ExecStats");
    }
  }
  return es;
}

// --- Per-layer probes: executor, pool, placement, tracing, systolic -------

double noop_us(int workers) {
  host::Device dev(sim::DeviceId::Stratix10);
  host::Context ctx(dev, stream::Mode::Functional, workers);
  int read_key = 0, write_key = 0;
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    host::Command cmd;
    cmd.work = [] {};
    cmd.reads = {&read_key};
    cmd.writes = {&write_key};
    cmd.label = "noop";
    const auto t0 = Clock::now();
    ctx.enqueue(std::move(cmd)).wait();
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return median(us);
}

void FleetBurst::probe(std::vector<Metric>& out, Tally& t) {
  constexpr int kReps = 4;
  std::vector<double> serial_ms, pool_ms, armed_ms, enqueue;
  EpochStats pool_stats, armed_stats;
  for (int rep = 0; rep < kReps; ++rep) {
    Tally serial, pooled, armed;
    run_epoch(serial, nullptr, 0, false);
    enqueue_us_ = &enqueue;
    pool_stats = run_epoch(pooled, nullptr, kWorkers, false);
    enqueue_us_ = nullptr;
    armed_stats = run_epoch(armed, nullptr, kWorkers, true);
    for (const Tally* r : {&serial, &pooled, &armed}) {
      for (const auto& e : r->errors) t.fail(e);
    }
    auto append = [](std::vector<double>& into, const Tally& from) {
      const auto ms = from.unit_ms();
      into.insert(into.end(), ms.begin(), ms.end());
    };
    append(serial_ms, serial);
    append(pool_ms, pooled);
    append(armed_ms, armed);
  }
  out.push_back({"host.enqueue_us", median(enqueue), "us"});
  out.push_back({"host.noop_us_serial", noop_us(0), "us"});
  out.push_back({"host.noop_us_pool", noop_us(kWorkers), "us"});
  out.push_back({"host.worker_speedup", median(serial_ms) / median(pool_ms),
                 "ratio"});
  const host::ExecStats& ps = pool_stats.exec;
  out.push_back({"host.max_concurrent", static_cast<double>(ps.max_concurrent),
                 "count"});
  out.push_back({"host.migrations", static_cast<double>(ps.migrations),
                 "count"});
  out.push_back({"host.migrated_bytes", static_cast<double>(ps.migrated_bytes),
                 "B"});
  out.push_back({"trace.armed_ratio", median(armed_ms) / median(pool_ms),
                 "ratio"});
  out.push_back({"trace.events",
                 static_cast<double>(armed_stats.trace.recorded), "count"});
  out.push_back({"trace.dropped",
                 static_cast<double>(armed_stats.trace.dropped), "count"});

  // The systolic engine alone at the fleet's 24^3 shape.
  const Cmd& sys =
      *std::find_if(window_.begin(), window_.end(),
                    [](const Cmd& c) { return c.op == Op::Systolic; });
  const auto& a = init_[static_cast<std::size_t>(sys.a)];
  std::vector<float> b(a.rbegin(), a.rend());
  std::vector<float> c(a.size()), want(a.size(), 0.0f);
  ref::gemm<float>(Transpose::None, Transpose::None, 1.0f,
                   MatrixView<const float>(a.data(), kSysN, kSysN),
                   MatrixView<const float>(b.data(), kSysN, kSysN), 0.0f,
                   MatrixView<float>(want.data(), kSysN, kSysN));
  systolic::SystolicArray<float> arr(4, 4);
  std::vector<double> ns;
  for (int rep = 0; rep < 301; ++rep) {
    const auto t0 = Clock::now();
    arr.multiply(MatrixView<const float>(a.data(), kSysN, kSysN),
                 MatrixView<const float>(b.data(), kSysN, kSysN),
                 MatrixView<float>(c.data(), kSysN, kSysN));
    ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  if (!close(c, want, kTol)) t.fail("systolic multiply is wrong");
  out.push_back({"systolic.ns_per_mac",
                 median(ns) / static_cast<double>(kSysN * kSysN * kSysN),
                 "ns"});
}

}  // namespace

std::unique_ptr<Workload> make_fleet_burst() {
  return std::make_unique<FleetBurst>();
}

}  // namespace perfbench
