// ATAX (Sec. V-B, Fig. 8): y = A^T (A x). The natural full-streaming
// composition shares the A interface between the two GEMVs *and* chains
// the first GEMV's output into the second — a non-multitree with two
// vertex-disjoint paths from the A reader to the transposed GEMV. The
// composition stalls forever unless the direct A channel can buffer an
// entire row of tiles (>= M*TN elements); with dynamic N it is invalid.
// The composition compiler sizes that channel when it fits the channel
// budget and otherwise splits the MDAG: each GEMV reads A independently
// (same I/O as the non-streamed version), and q round-trips DRAM.
#pragma once

#include <cstdint>
#include <vector>

#include "common/view.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "mdag/graph.hpp"

namespace fblas::apps {

template <typename T>
struct AtaxResult {
  std::vector<T> y;
  std::uint64_t cycles = 0;
};

/// Host-layer baseline: two GEMV launches through the Context.
template <typename T>
AtaxResult<T> atax_host_layer(host::Context& ctx, MatrixView<const T> A,
                              VectorView<const T> x);

/// The fully-streaming ATAX description: one A reader feeding both GEMVs
/// and q chained straight into the transposed GEMV. `a` is n x m
/// row-major, `x` length m, `y` length m; width and tiling come from
/// `ctx.config()`. The compiler sizes the direct A channel (edge
/// `kAtaxDirectAEdge`) to one full row of tiles, or splits the graph when
/// the composition's channel budget cannot hold it; pinning that edge's
/// depth (`Composition::pin_channel_depth`) reproduces the Sec. V-B
/// deadlock.
template <typename T>
host::Composition<T> atax_composition(const host::Context& ctx,
                                      std::int64_t n, std::int64_t m,
                                      const host::Buffer<T>& a,
                                      const host::Buffer<T>& x,
                                      host::Buffer<T>& y);
/// Edge id of the direct A channel (read_A -> gemv_T) in
/// atax_composition.
inline constexpr int kAtaxDirectAEdge = 1;

/// The composition as ONE host command: the intermediate q never
/// round-trips DRAM, yet the command gets the executor's full
/// fault-tolerance ladder (snapshot, rollback, retry, CPU fallback) and —
/// when the captured verify::Options enable it — per-edge checksum
/// verification that localizes silent mid-pipeline corruption to the
/// first divergent channel.
template <typename T>
host::Event atax_composed_async(host::Context& ctx, std::int64_t n,
                                std::int64_t m, const host::Buffer<T>& a,
                                const host::Buffer<T>& x, host::Buffer<T>& y) {
  return ctx.run_composition_async(atax_composition<T>(ctx, n, m, a, x, y));
}
template <typename T>
void atax_composed(host::Context& ctx, std::int64_t n, std::int64_t m,
                   const host::Buffer<T>& a, const host::Buffer<T>& x,
                   host::Buffer<T>& y) {
  atax_composed_async(ctx, n, m, a, x, y).wait();
}

/// CPU reference.
template <typename T>
std::vector<T> atax_cpu(MatrixView<const T> A, VectorView<const T> x);

/// The (invalid) fully-streaming MDAG.
mdag::Mdag atax_mdag(std::int64_t n, std::int64_t m, std::int64_t tile);

}  // namespace fblas::apps
