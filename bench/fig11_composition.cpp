// Reproduces Fig. 11: speedup of the streaming compositions over calling
// the modules one-by-one through the host layer, for AXPYDOT, BICG and
// GEMVER across input sizes, plus the Sec. V I/O analysis each speedup
// rests on. The streaming versions are the compiled compositions
// (apps::*_composed). Both run in the cycle-accurate simulator; speedups
// compare wall-clock times (cycles / achieved frequency, which differs
// between single-module and composed designs).
//
// Sizes are scaled down from the paper's 2M-16M / 1K-8K range so the
// cycle-level simulation stays fast; the speedup is size-stable (see
// EXPERIMENTS.md).
#include <cstdio>
#include <vector>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "common/table_printer.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "common/workload.hpp"
#include "mdag/io_volume.hpp"
#include "mdag/resources.hpp"
#include "mdag/validity.hpp"
#include "sim/frequency_model.hpp"

namespace {

using namespace fblas;
using stream::Mode;

double seconds(std::uint64_t cycles, double mhz) {
  return static_cast<double>(cycles) / (mhz * 1e6);
}

// A cycle-mode board that runs one compiled composition (W = 16,
// 64 x 64 tiles); its total_cycles() is the composition's device time.
struct Board {
  host::Device dev;
  host::Context ctx;
  explicit Board(sim::DeviceId id) : dev(id), ctx(dev, Mode::Cycle) {
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
  host::Buffer<float> zeros(std::int64_t n, int bank) {
    return upload(std::vector<float>(static_cast<std::size_t>(n), 0.0f),
                  bank);
  }
};

void run_axpydot() {
  std::puts("== AXPYDOT: z = w - alpha v; beta = z^T u ==");
  TablePrinter t({"Device", "N", "Streaming time", "Host-layer time",
                  "Speedup", "I/O streaming", "I/O host-layer"});
  // The paper reports the Stratix numbers and notes that "similar results
  // hold for the Arria testbed" — both are simulated here.
  for (const auto dev_id : {sim::DeviceId::Stratix10, sim::DeviceId::Arria10}) {
    const auto& dev = sim::device(dev_id);
    const double f_str =
        sim::composition_frequency(0, Precision::Single, dev).mhz;
    const double f_host =
        sim::module_frequency(RoutineKind::Dot, Precision::Single, dev).mhz;
    for (std::int64_t n : {1 << 15, 1 << 16, 1 << 17, 1 << 18}) {
      Workload wl(11);
      auto w = wl.vector<float>(n);
      auto v = wl.vector<float>(n);
      auto u = wl.vector<float>(n);
      Board b(dev_id);
      apps::axpydot_composed<float>(b.ctx, n, b.upload(w, 0), b.upload(v, 1),
                                    b.upload(u, 2), 2.0f);
      host::Device hdev(dev_id);
      host::Context ctx(hdev, Mode::Cycle);
      host::RoutineConfig knobs;
      knobs.width = 16;
      host::ConfigGuard scoped = ctx.with(knobs);
      const auto host = apps::axpydot_host_layer<float>(
          ctx, VectorView<const float>(w.data(), n),
          VectorView<const float>(v.data(), n),
          VectorView<const float>(u.data(), n), 2.0f);
      const double ts = seconds(b.ctx.total_cycles(), f_str);
      const double th = seconds(host.cycles, f_host);
      t.add_row({dev_id == sim::DeviceId::Arria10 ? "Arria 10" : "Stratix 10",
                 TablePrinter::fmt_int(n), TablePrinter::fmt_time(ts),
                 TablePrinter::fmt_time(th), TablePrinter::fmt(th / ts, 2),
                 TablePrinter::fmt_int(3 * n + 1),
                 TablePrinter::fmt_int(7 * n + 1)});
    }
  }
  t.print();
  std::puts("Paper: expected speedup 3 from the I/O model, measured ~4"
            " because the host-layer\nAXPY reads and writes z through one"
            " DDR bank (reproduced by the bank model).\n");
}

void run_bicg() {
  std::puts("== BICG: q = A p; s = A^T r ==");
  TablePrinter t({"N x N", "Streaming time", "Host-layer time", "Speedup",
                  "A reads streaming", "A reads host-layer"});
  const auto& dev = sim::stratix10();
  const double f_str =
      sim::composition_frequency(2, Precision::Single, dev).mhz;
  const double f_host =
      sim::module_frequency(RoutineKind::Gemv, Precision::Single, dev).mhz;
  for (std::int64_t n : {128, 256, 512}) {
    Workload wl(12);
    auto a = wl.matrix<float>(n, n);
    auto p = wl.vector<float>(n);
    auto r = wl.vector<float>(n);
    Board b(sim::DeviceId::Stratix10);
    auto q = b.zeros(n, 2);
    auto s = b.zeros(n, 3);
    apps::bicg_composed<float>(b.ctx, n, n, b.upload(a, 0), b.upload(p, 1),
                               b.upload(r, 1), q, s);
    host::Device hdev(sim::DeviceId::Stratix10);
    host::Context ctx(hdev, Mode::Cycle);
    host::RoutineConfig knobs;
    knobs.width = 16;
    knobs.tile_rows = 64;
    knobs.tile_cols = 64;
    host::ConfigGuard scoped = ctx.with(knobs);
    const auto host = apps::bicg_host_layer<float>(
        ctx, MatrixView<const float>(a.data(), n, n),
        VectorView<const float>(p.data(), n),
        VectorView<const float>(r.data(), n));
    const double ts = seconds(b.ctx.total_cycles(), f_str);
    const double th = seconds(host.cycles, f_host);
    t.add_row({std::to_string(n) + "x" + std::to_string(n),
               TablePrinter::fmt_time(ts), TablePrinter::fmt_time(th),
               TablePrinter::fmt(th / ts, 2), "1x", "2x"});
  }
  t.print();
  std::puts("Paper: expected 1.7 from halved A traffic, measured <= 1.45"
            " (the composed design\ncloses timing lower than the"
            " single-module GEMV; the frequency model captures this).\n");
}

void run_gemver() {
  std::puts("== GEMVER: B = A + u1 v1^T + u2 v2^T; x = beta B^T y + z;"
            " w = alpha B x ==");
  TablePrinter t({"N x N", "Streaming time", "Host-layer time", "Speedup"});
  const auto& dev = sim::stratix10();
  const double f_str =
      sim::composition_frequency(3, Precision::Single, dev).mhz;
  const double f_host =
      sim::module_frequency(RoutineKind::Gemv, Precision::Single, dev).mhz;
  for (std::int64_t n : {128, 256, 512}) {
    Workload wl(13);
    auto a = wl.matrix<float>(n, n);
    auto u1 = wl.vector<float>(n);
    auto v1 = wl.vector<float>(n);
    auto u2 = wl.vector<float>(n);
    auto v2 = wl.vector<float>(n);
    auto y = wl.vector<float>(n);
    auto z = wl.vector<float>(n);
    auto cv = [n](const std::vector<float>& vec) {
      return VectorView<const float>(vec.data(), n);
    };
    Board b(sim::DeviceId::Stratix10);
    auto bB = b.zeros(n * n, 1);
    auto bx = b.zeros(n, 2);
    auto bw = b.zeros(n, 3);
    apps::gemver_composed<float>(b.ctx, n, 1.5f, 0.5f, b.upload(a, 0),
                                 b.upload(u1, 1), b.upload(v1, 2),
                                 b.upload(u2, 3), b.upload(v2, 1),
                                 b.upload(y, 2), b.upload(z, 3), bB, bx, bw);
    host::Device hdev(sim::DeviceId::Stratix10);
    host::Context ctx(hdev, Mode::Cycle);
    host::RoutineConfig knobs;
    knobs.width = 16;
    knobs.tile_rows = 64;
    knobs.tile_cols = 64;
    host::ConfigGuard scoped = ctx.with(knobs);
    const auto host = apps::gemver_host_layer<float>(
        ctx, 1.5f, 0.5f, MatrixView<const float>(a.data(), n, n), cv(u1),
        cv(v1), cv(u2), cv(v2), cv(y), cv(z));
    const double ts = seconds(b.ctx.total_cycles(), f_str);
    const double th = seconds(host.cycles, f_host);
    t.add_row({std::to_string(n) + "x" + std::to_string(n),
               TablePrinter::fmt_time(ts), TablePrinter::fmt_time(th),
               TablePrinter::fmt(th / ts, 2)});
  }
  t.print();
  std::puts("Paper: speedup ~2-3; the two-component schedule cuts I/O from"
            " ~8N^2 to ~3N^2 and\ncompletion from ~5N^2 to ~2N^2 cycles"
            " despite sequentializing the components.\n");
}

void run_analysis() {
  std::puts("== Sec. V MDAG analysis (N = 4096, tiles 64) ==");
  const std::int64_t n = 4096;
  TablePrinter t({"Composition", "Valid", "Multitree", "I/O ops",
                  "Diagnosis"});
  const auto axpy = apps::axpydot_mdag(n);
  const auto bicg = apps::bicg_mdag(n, n, 64);
  const auto atax = apps::atax_mdag(n, n, 64);
  const auto gemver = apps::gemver_mdag(n, 64);
  auto add = [&](const char* name, const mdag::Mdag& g, const char* note) {
    const auto v = mdag::validate(g);
    t.add_row({name, v.valid ? "yes" : "NO",
               mdag::is_multitree(g) ? "yes" : "no",
               TablePrinter::fmt_int(mdag::total_io_ops(g)), note});
  };
  add("AXPYDOT", axpy, "3N+1 (vs 7N host-layer)");
  add("BICG", bicg, "A read once");
  add("ATAX", atax, "needs channel >= M*TN or a split");
  add("GEMVER (full)", gemver, "runs as 2 sequential components");
  t.print();

  // Sec. VI-C resource note: compositions drop the interface kernels of
  // their internal edges; the paper measures up to -40% vs the
  // non-streamed designs (our model spans ~15-50% across the three apps,
  // growing with the number of internal edges).
  std::puts("\nResource savings of composition (design resources, shell"
            " excluded):");
  for (const auto& [name, graph] :
       {std::pair<const char*, const mdag::Mdag*>{"AXPYDOT", &axpy},
        std::pair<const char*, const mdag::Mdag*>{"BICG", &bicg},
        std::pair<const char*, const mdag::Mdag*>{"GEMVER", &gemver}}) {
    const auto cmp = mdag::composition_resource_savings(
        *graph, Precision::Single, 16, sim::stratix10());
    std::printf("  %-8s %.0f%% fewer ALMs than the one-by-one designs\n",
                name, 100.0 * cmp.saving_fraction);
  }
  // The ATAX deadlock, demonstrated live: the compiled composition with
  // its direct A channel pinned below, then at, the M*TN bound.
  Workload wl(14);
  const std::int64_t an = 64, am = 48, tile = 16;
  const auto ha = wl.matrix<float>(an, am);
  const auto hx = wl.vector<float>(am);
  // One board per run: a deadlocked command fails its buffers' later users.
  auto run_atax = [&](std::int64_t depth) {
    host::Device hdev;
    host::Context ctx(hdev);
    ctx.config().width = 4;
    ctx.config().tile_rows = tile;
    ctx.config().tile_cols = tile;
    host::Buffer<float> ba(hdev, an * am, 0), bx(hdev, am, 1), by(hdev, am, 2);
    ba.write(ha);
    bx.write(hx);
    auto c = apps::atax_composition<float>(ctx, an, am, ba, bx, by);
    c.pin_channel_depth(apps::kAtaxDirectAEdge, depth);
    ctx.run_composition(c);
    return by.to_host();
  };
  bool deadlocked = false;
  try {
    run_atax(tile);
  } catch (const DeadlockError&) {
    deadlocked = true;
  }
  const auto y = run_atax(am * tile);
  std::printf("\nATAX live check: undersized A channel -> %s;"
              " channel >= M*TN -> completes (%zu outputs).\n",
              deadlocked ? "stalls forever (DeadlockError)" : "UNEXPECTED",
              y.size());
}

}  // namespace

int main() {
  std::puts("FBLAS reproduction: Fig. 11 — streaming composition speedups\n");
  run_axpydot();
  run_bicg();
  run_gemver();
  run_analysis();
  return 0;
}
