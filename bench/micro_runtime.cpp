// Google-benchmark microbenchmarks of the simulation substrate itself:
// channel throughput, scheduler overhead in both modes, tile walking,
// reference-BLAS rates and the systolic-array stepper. These bound how
// large a design the cycle simulator can drive in reasonable time.
#include <benchmark/benchmark.h>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/workload.hpp"
#include "fblas/batched.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "host/detail.hpp"
#include "host/device.hpp"
#include "refblas/level3.hpp"
#include "sim/frequency_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "systolic/systolic_array.hpp"

namespace {

using namespace fblas;

void BM_ChannelTryPushPop(benchmark::State& state) {
  stream::Graph g;
  auto& ch = g.channel<float>("c", 1024);
  float v = 0;
  for (auto _ : state) {
    ch.try_put(1.0f);
    ch.try_take(v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelTryPushPop);

void BM_StreamPassthrough(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto mode = state.range(1) == 0 ? stream::Mode::Functional
                                        : stream::Mode::Cycle;
  for (auto _ : state) {
    stream::Graph g(mode);
    auto& a = g.channel<float>("a", 256);
    auto& b = g.channel<float>("b", 256);
    g.spawn("gen", stream::generate<float>(n, 1.0f, 16, a));
    g.spawn("scal", core::scal<float>({16}, n, 2.0f, a, b));
    g.spawn("sink", stream::sink<float>(n, 16, b));
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(mode == stream::Mode::Functional ? "functional" : "cycle");
}
BENCHMARK(BM_StreamPassthrough)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

// The shared-A fan-out of BICG/ATAX: gen -> fanout2 -> two sinks, cycle
// mode, W=16. Arg 1: 0 plain; 1 taint recording (one finiteness test per
// burst); 2 taint recording plus a checksum tap on every channel, as a
// verified composition runs it.
void BM_StreamFanout(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t hooks = state.range(1);
  for (auto _ : state) {
    stream::Graph g(stream::Mode::Cycle);
    if (hooks >= 1) g.scheduler().enable_taint(false);
    auto& in = g.channel<float>("in", 256);
    auto& a = g.channel<float>("a", 256);
    auto& b = g.channel<float>("b", 256);
    if (hooks >= 2) {
      for (auto* ch : {&in, &a, &b}) ch->arm_tap();
    }
    g.spawn("gen", stream::generate<float>(n, 1.0f, 16, in));
    g.spawn("fan", stream::fanout2<float>(n, 16, in, a, b));
    g.spawn("sink_a", stream::sink<float>(n, 16, a));
    g.spawn("sink_b", stream::sink<float>(n, 16, b));
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(hooks == 0 ? "plain" : hooks == 1 ? "taint" : "taint+taps");
}
BENCHMARK(BM_StreamFanout)
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 2});

// GER on an n x n matrix in 64 x 64 tiles by rows, cycle mode, W=16:
// generated A, x and y (replayed as GER needs them), result sunk.
void BM_StreamGer(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  core::GerConfig cfg;
  cfg.tile_rows = cfg.tile_cols = 64;
  const std::int64_t xr = core::ger_x_repeat(cfg, n, n);
  const std::int64_t yr = core::ger_y_repeat(cfg, n, n);
  for (auto _ : state) {
    stream::Graph g(stream::Mode::Cycle);
    auto& a = g.channel<float>("a", 256);
    auto& x = g.channel<float>("x", 256);
    auto& y = g.channel<float>("y", 256);
    auto& out = g.channel<float>("out", 256);
    g.spawn("gen_a", stream::generate<float>(n * n, 1.0f, 16, a));
    g.spawn("gen_x", stream::generate<float>(n * xr, 0.5f, 16, x));
    g.spawn("gen_y", stream::generate<float>(n * yr, 2.0f, 16, y));
    g.spawn("ger", core::ger<float>(cfg, n, n, 0.25f, a, x, y, out));
    g.spawn("sink", stream::sink<float>(n * n, 16, out));
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_StreamGer)->Arg(256);

/// User-mode instructions retired by the calling thread, read from the
/// CPU's own counter. Where perf_event_open is not permitted, ok() is
/// false and nothing is counted.
class InstructionCounter {
 public:
  InstructionCounter() {
#if defined(__linux__)
    perf_event_attr attr{};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    fd_ = static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
#endif
  }
  ~InstructionCounter() {
#if defined(__linux__)
    if (fd_ >= 0) close(fd_);
#endif
  }
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  bool ok() const { return fd_ >= 0; }
  std::uint64_t read() const {
    std::uint64_t v = 0;
#if defined(__linux__)
    if (fd_ < 0 || ::read(fd_, &v, sizeof v) != sizeof v) return 0;
#endif
    return v;
  }

 private:
  int fd_ = -1;
};

// The bare GEMV graph of perfbench cg_solve: read_A / read_x / read_y ->
// core::gemv -> write_y, 512^2, W=16, 128^2 tiles, metered on a Stratix
// 10's four DDR banks as the host API registers them. Arg: 0 A x by
// rows, 1 A x by columns, 2 A^T x by rows, 3 A^T x by columns. Reports
// the simulated cycles of one run and, where the CPU counter can be
// read, user-mode instructions per simulated cycle: a figure that stays
// steady on a shared host while wall time drifts.
void BM_StreamGemv(benchmark::State& state) {
  constexpr std::int64_t n = 512;
  constexpr int w = 16;
  const auto branch = state.range(0);
  const core::GemvConfig cfg{
      branch < 2 ? Transpose::None : Transpose::Trans,
      branch % 2 == 0 ? core::MatrixTiling::TilesByRows
                      : core::MatrixTiling::TilesByCols,
      w, 128, 128};
  const host::Device dev(sim::DeviceId::Stratix10);
  const double mhz =
      sim::module_frequency(RoutineKind::Gemv, Precision::Single, dev.spec())
          .mhz;
  Workload wl(31);
  const auto a = wl.matrix<float>(n, n);
  const auto x = wl.vector<float>(n);
  std::vector<float> y = wl.vector<float>(n);
  const std::size_t cap = host::detail::chan_cap(w);
  std::uint64_t cycles = 0;
  const InstructionCounter instructions;
  const std::uint64_t instr0 = instructions.read();
  for (auto _ : state) {
    stream::Graph g(stream::Mode::Cycle);
    host::detail::BankSet banks(g, dev, mhz);
    auto& ca = g.channel<float>("A", cap);
    auto& cx = g.channel<float>("x", cap);
    auto& cy = g.channel<float>("y", cap);
    auto& out = g.channel<float>("out", cap);
    g.spawn("read_A", stream::read_matrix<float>(
                          MatrixView<const float>(a.data(), n, n),
                          core::gemv_a_schedule(cfg), 1, w, ca, banks.at(0)));
    g.spawn("read_x", stream::read_vector<float>(
                          VectorView<const float>(x.data(), n),
                          core::gemv_x_repeat(cfg, n, n), w, cx, banks.at(1)));
    g.spawn("read_y",
            stream::read_vector<float>(VectorView<const float>(y.data(), n), 1,
                                       w, cy, banks.at(2)));
    g.spawn("gemv",
            core::gemv<float>(cfg, n, n, 1.0f, 0.0f, ca, cx, cy, out));
    g.spawn("write_y",
            stream::write_vector<float>(VectorView<float>(y.data(), n), 1, w,
                                        out, banks.at(2)));
    g.run();
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
    cycles = g.cycles();
  }
  const std::uint64_t instr = instructions.read() - instr0;
  state.SetItemsProcessed(state.iterations() * n * n);
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  if (instructions.ok() && cycles > 0) {
    state.counters["instr_per_cycle"] =
        static_cast<double>(instr) /
        (static_cast<double>(state.iterations()) *
         static_cast<double>(cycles));
  }
  state.SetLabel(std::string(branch < 2 ? "Ax" : "ATx") +
                 (branch % 2 == 0 ? " by rows" : " by cols"));
}
BENCHMARK(BM_StreamGemv)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_TileWalker(benchmark::State& state) {
  const std::int64_t n = 512;
  for (auto _ : state) {
    stream::TileWalker walk(n, n,
                            {Order::RowMajor, Order::RowMajor, 64, 64});
    std::int64_t i, j, acc = 0;
    while (walk.next(i, j)) acc += i + j;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_TileWalker);

void BM_RefGemmBlocked(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Workload wl(1);
  auto a = wl.matrix<float>(n, n);
  auto b = wl.matrix<float>(n, n);
  std::vector<float> c(n * n, 0.0f);
  for (auto _ : state) {
    ref::gemm_blocked<float>(1.0f, MatrixView<const float>(a.data(), n, n),
                             MatrixView<const float>(b.data(), n, n), 0.0f,
                             MatrixView<float>(c.data(), n, n));
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_RefGemmBlocked)->Arg(128)->Arg(256);

void BM_SystolicArray(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  const std::int64_t n = 32;
  Workload wl(2);
  auto a = wl.matrix<float>(n, n);
  auto b = wl.matrix<float>(n, n);
  std::vector<float> c(n * n, 0.0f);
  systolic::SystolicArray<float> arr(grid, grid);
  for (auto _ : state) {
    arr.multiply(MatrixView<const float>(a.data(), n, n),
                 MatrixView<const float>(b.data(), n, n),
                 MatrixView<float>(c.data(), n, n));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_SystolicArray)->Arg(4)->Arg(8);

void BM_BatchedUnrolledGemm(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  const std::int64_t sz = 4;
  Workload wl(3);
  auto a = wl.vector<float>(batch * sz * sz);
  auto b = wl.vector<float>(batch * sz * sz);
  std::vector<float> c(batch * sz * sz, 0.0f);
  for (auto _ : state) {
    stream::Graph g(stream::Mode::Cycle);
    auto& ca = g.channel<float>("A", 128);
    auto& cb = g.channel<float>("B", 128);
    auto& cc = g.channel<float>("C", 128);
    g.spawn("read_A", core::read_batched<float>(a.data(), sz * sz, batch, ca));
    g.spawn("read_B", core::read_batched<float>(b.data(), sz * sz, batch, cb));
    g.spawn("gemm",
            core::gemm_batched_unrolled<float>({sz}, batch, 1.0f, ca, cb, cc));
    g.spawn("store", core::write_batched<float>(c.data(), sz * sz, batch, cc));
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedUnrolledGemm)->Arg(256)->Arg(1024);

void BM_OccupancyTraceOverhead(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  const std::int64_t n = 1 << 14;
  for (auto _ : state) {
    stream::Graph g(stream::Mode::Cycle);
    if (traced) g.scheduler().enable_occupancy_trace();
    auto& a = g.channel<float>("a", 64);
    g.spawn("gen", stream::generate<float>(n, 1.0f, 16, a));
    g.spawn("sink", stream::sink<float>(n, 16, a));
    g.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(traced ? "traced" : "untraced");
}
BENCHMARK(BM_OccupancyTraceOverhead)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
