// Streaming composition walkthrough (Sec. V): builds the AXPYDOT, BICG,
// ATAX and GEMVER module DAGs, analyzes their validity and I/O volume,
// and runs the compiled streaming versions (apps::*_composed) against the
// host-layer baselines in the cycle-accurate simulator. The ATAX section
// pins the direct A channel's depth to show the Sec. V-B deadlock.
//
// Build & run:  ./build/examples/streaming_composition
#include <cstdio>

#include "apps/atax.hpp"
#include "apps/axpydot.hpp"
#include "apps/bicg.hpp"
#include "apps/gemver.hpp"
#include "common/workload.hpp"
#include "mdag/io_volume.hpp"
#include "mdag/validity.hpp"

int main() {
  using namespace fblas;

  std::puts("== MDAG analysis ==");
  const std::int64_t n = 2048, tile = 64;
  struct Case {
    const char* name;
    mdag::Mdag g;
  };
  Case cases[] = {
      {"AXPYDOT", apps::axpydot_mdag(n)},
      {"BICG", apps::bicg_mdag(n, n, tile)},
      {"ATAX", apps::atax_mdag(n, n, tile)},
      {"GEMVER", apps::gemver_mdag(n, tile)},
  };
  for (const auto& c : cases) {
    const auto v = mdag::validate(c.g);
    std::printf("%-8s valid=%-3s multitree=%-3s io_ops=%lld\n", c.name,
                v.valid ? "yes" : "NO",
                mdag::is_multitree(c.g) ? "yes" : "no",
                static_cast<long long>(mdag::total_io_ops(c.g)));
    if (!v.valid) std::printf("  -> %s", v.summary.c_str());
  }

  std::puts("\n== AXPYDOT: streaming vs host layer (cycle simulation) ==");
  Workload wl(99);
  {
    const std::int64_t len = 1 << 15;
    auto w = wl.vector<float>(len);
    auto v = wl.vector<float>(len);
    auto u = wl.vector<float>(len);
    host::Device dev(sim::DeviceId::Stratix10);
    host::Buffer<float> bw(dev, len, 0), bv(dev, len, 1), bu(dev, len, 2);
    bw.write(w);
    bv.write(v);
    bu.write(u);
    host::Context sctx(dev, stream::Mode::Cycle);
    sctx.config().width = 16;
    const float beta = apps::axpydot_composed<float>(sctx, len, bw, bv, bu,
                                                     2.0f);
    const std::uint64_t streaming_cycles = sctx.total_cycles();
    host::Context ctx(dev, stream::Mode::Cycle);
    host::RoutineConfig knobs;
    knobs.width = 16;
    host::ConfigGuard scoped = ctx.with(knobs);
    const auto host = apps::axpydot_host_layer<float>(
        ctx, VectorView<const float>(w.data(), len),
        VectorView<const float>(v.data(), len),
        VectorView<const float>(u.data(), len), 2.0f);
    std::printf("beta = %.4f (both versions agree: %s)\n", beta,
                std::abs(beta - host.beta) < 1e-2 ? "yes" : "NO");
    std::printf("streaming: %llu cycles   host layer: %llu cycles   "
                "speedup %.2fx\n",
                static_cast<unsigned long long>(streaming_cycles),
                static_cast<unsigned long long>(host.cycles),
                static_cast<double>(host.cycles) /
                    static_cast<double>(streaming_cycles));
  }

  std::puts("\n== ATAX: why channel depth matters (Sec. V-B) ==");
  {
    const std::int64_t an = 64, am = 48, atile = 16;
    const auto ha = wl.matrix<float>(an, am);
    const auto hx = wl.vector<float>(am);
    // The compiled composition with the direct A channel pinned by hand,
    // on a fresh board per run (a deadlocked command fails its buffers'
    // later users).
    auto atax = [&](std::int64_t depth) {
      host::Device dev;
      host::Context ctx(dev);
      ctx.config().width = 4;
      ctx.config().tile_rows = atile;
      ctx.config().tile_cols = atile;
      host::Buffer<float> a(dev, an * am, 0), x(dev, am, 1), y(dev, am, 2);
      a.write(ha);
      x.write(hx);
      auto c = apps::atax_composition<float>(ctx, an, am, a, x, y);
      c.pin_channel_depth(apps::kAtaxDirectAEdge, depth);
      ctx.run_composition(c);
      return y.to_host();
    };
    try {
      atax(atile);
      std::puts("unexpected: undersized channel completed");
    } catch (const DeadlockError& e) {
      std::puts("undersized A channel -> DeadlockError, as predicted:");
      // Show the first line of the diagnostic.
      const std::string msg = e.what();
      std::printf("  %s\n", msg.substr(0, msg.find('\n')).c_str());
    }
    const std::int64_t depth = am * atile;
    const auto y = atax(depth);
    std::printf("channel sized to M*TN (= %lld): completes, y[0] = %.4f\n",
                static_cast<long long>(depth), y[0]);
  }

  std::puts("\n== GEMVER: two-component schedule (Fig. 9) ==");
  {
    const std::int64_t gn = 256, gtile = 64;
    auto a = wl.matrix<float>(gn, gn);
    auto u1 = wl.vector<float>(gn);
    auto v1 = wl.vector<float>(gn);
    auto u2 = wl.vector<float>(gn);
    auto v2 = wl.vector<float>(gn);
    auto y = wl.vector<float>(gn);
    auto z = wl.vector<float>(gn);
    auto cv = [gn](const std::vector<float>& vec) {
      return VectorView<const float>(vec.data(), gn);
    };
    host::Device dev(sim::DeviceId::Stratix10);
    host::Context ctx(dev, stream::Mode::Cycle);
    ctx.config().width = 16;
    ctx.config().tile_rows = gtile;
    ctx.config().tile_cols = gtile;
    auto upload = [&](const std::vector<float>& h, int bank) {
      host::Buffer<float> b(dev, static_cast<std::int64_t>(h.size()), bank);
      b.write(h);
      return b;
    };
    host::Buffer<float> bB(dev, gn * gn, 1), bx(dev, gn, 2), bw(dev, gn, 3);
    apps::gemver_composed<float>(ctx, gn, 1.5f, 0.5f, upload(a, 0),
                                 upload(u1, 1), upload(v1, 2), upload(u2, 3),
                                 upload(v2, 1), upload(y, 2), upload(z, 3),
                                 bB, bx, bw);
    const auto cpu = apps::gemver_cpu<float>(
        1.5f, 0.5f, MatrixView<const float>(a.data(), gn, gn), cv(u1),
        cv(v1), cv(u2), cv(v2), cv(y), cv(z));
    std::printf("2 components, %llu total cycles; w matches CPU: %s\n",
                static_cast<unsigned long long>(ctx.total_cycles()),
                rel_error(bw.to_host(), cpu.w) < 1e-3 ? "yes" : "NO");
  }
  return 0;
}
