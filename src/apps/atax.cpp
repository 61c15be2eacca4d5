#include "apps/atax.hpp"

#include "fblas/level2.hpp"
#include "refblas/level2.hpp"

namespace fblas::apps {

template <typename T>
AtaxResult<T> atax_host_layer(host::Context& ctx, MatrixView<const T> A,
                              VectorView<const T> x) {
  const std::int64_t n = A.rows(), m = A.cols();
  host::Device& dev = ctx.device();
  host::Buffer<T> ba(dev, n * m, 0);
  host::Buffer<T> bx(dev, m, 1 % dev.bank_count());
  host::Buffer<T> bq(dev, n, 2 % dev.bank_count());
  host::Buffer<T> by(dev, m, 3 % dev.bank_count());
  {
    std::vector<T> host(static_cast<std::size_t>(n * m));
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < m; ++j) {
        host[static_cast<std::size_t>(i * m + j)] = A(i, j);
      }
    }
    ba.write(host);
    std::vector<T> hx(static_cast<std::size_t>(m));
    for (std::int64_t j = 0; j < m; ++j) hx[static_cast<std::size_t>(j)] = x[j];
    bx.write(hx);
  }
  std::uint64_t cycles = 0;
  ctx.gemv<T>(Transpose::None, n, m, T(1), ba, bx, 1, T(0), bq, 1);
  cycles += ctx.last_cycles();
  ctx.gemv<T>(Transpose::Trans, n, m, T(1), ba, bq, 1, T(0), by, 1);
  cycles += ctx.last_cycles();
  return {by.to_host(), cycles};
}

template <typename T>
host::Composition<T> atax_composition(const host::Context& ctx,
                                      std::int64_t n, std::int64_t m,
                                      const host::Buffer<T>& a,
                                      const host::Buffer<T>& x,
                                      host::Buffer<T>& y) {
  // A pure description. The compiler detects the two vertex-disjoint
  // A-paths into the transposed GEMV and sizes the direct channel to one
  // full row of tiles plus fan-out slack, synthesizes the A fan-out and
  // the zero q0/y0 inputs, and derives the per-FIFO checksum plan.
  const host::RoutineConfig& rc = ctx.config();
  const core::GemvConfig cfg{Transpose::None,
                             core::MatrixTiling::TilesByRows, rc.width,
                             rc.tile_rows, rc.tile_rows};
  host::Composition<T> c("atax");
  const int ra = c.input("read_A", a);
  const int rx = c.input("read_x", x);
  const int wy = c.output("store_y", y);
  const int g1 = c.gemv("gemv", T(1), T(0));
  const int g2 = c.gemv("gemv_T", T(1), T(0), Transpose::Trans);
  const auto a_sig = mdag::StreamSig::mat(n, m, core::gemv_a_schedule(cfg));
  c.connect(ra, g1, a_sig);
  c.connect(ra, g2, a_sig);  // edge kAtaxDirectAEdge
  c.connect(rx, g1,
            mdag::StreamSig::vec(m, core::gemv_x_repeat(cfg, n, m)));
  c.connect(g1, g2, mdag::StreamSig::vec(n));
  c.connect(g2, wy, mdag::StreamSig::vec(m));
  return c;
}

template <typename T>
std::vector<T> atax_cpu(MatrixView<const T> A, VectorView<const T> x) {
  const std::int64_t n = A.rows(), m = A.cols();
  std::vector<T> q(static_cast<std::size_t>(n), T(0));
  std::vector<T> y(static_cast<std::size_t>(m), T(0));
  ref::gemv<T>(Transpose::None, T(1), A, x, T(0), VectorView<T>(q.data(), n));
  ref::gemv<T>(Transpose::Trans, T(1), A,
               VectorView<const T>(q.data(), n), T(0),
               VectorView<T>(y.data(), m));
  return y;
}

mdag::Mdag atax_mdag(std::int64_t n, std::int64_t m, std::int64_t tile) {
  mdag::Mdag g;
  const int ra = g.add_interface("read_A");
  const int rx = g.add_interface("read_x");
  const int wy = g.add_interface("write_y");
  const int g1 = g.add_compute("gemv", RoutineKind::Gemv, 40);
  const int g2 = g.add_compute("gemv_T", RoutineKind::Gemv, 40);
  const stream::TileSchedule sched{Order::RowMajor, Order::RowMajor, tile,
                                   tile};
  const auto a_sig = mdag::StreamSig::mat(n, m, sched);
  g.connect(ra, g1, a_sig);
  g.connect(ra, g2, a_sig);
  g.connect(rx, g1, mdag::StreamSig::vec(m, ceil_div(n, tile)));
  g.connect(g1, g2, mdag::StreamSig::vec(n));
  g.connect(g2, wy, mdag::StreamSig::vec(m));
  return g;
}

#define FBLAS_APP_ATAX_INSTANTIATE(T)                                        \
  template AtaxResult<T> atax_host_layer<T>(host::Context&,                  \
                                            MatrixView<const T>,             \
                                            VectorView<const T>);            \
  template host::Composition<T> atax_composition<T>(                         \
      const host::Context&, std::int64_t, std::int64_t,                      \
      const host::Buffer<T>&, const host::Buffer<T>&, host::Buffer<T>&);    \
  template std::vector<T> atax_cpu<T>(MatrixView<const T>,                   \
                                      VectorView<const T>);

FBLAS_APP_ATAX_INSTANTIATE(float)
FBLAS_APP_ATAX_INSTANTIATE(double)
#undef FBLAS_APP_ATAX_INSTANTIATE

}  // namespace fblas::apps
