// Interface modules: the helper kernels that move data between (simulated)
// off-chip DRAM and the streaming modules, plus on-chip sources/sinks and
// stream plumbing. These correspond to the "Read A / Read B / Store C"
// helper kernels the paper's code generator emits around each module.
//
// Matrices are streamed according to a TileSchedule: tiles visited by rows
// or by columns, and elements within each tile by rows or by columns —
// the 4 streaming modes of Sec. III-B.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/view.hpp"
#include "stream/channel.hpp"
#include "stream/dram.hpp"
#include "stream/graph.hpp"

namespace fblas::stream {

/// How a matrix operand crosses a streaming interface.
struct TileSchedule {
  Order tile_order = Order::RowMajor;  ///< order in which tiles are visited
  Order elem_order = Order::RowMajor;  ///< element order within a tile
  std::int64_t tile_rows = 0;          ///< TN: tile height
  std::int64_t tile_cols = 0;          ///< TM: tile width

  bool operator==(const TileSchedule&) const = default;
};

/// Enumerates the (row, col) coordinates of an `rows x cols` matrix in the
/// order defined by a TileSchedule, clamping edge tiles.
class TileWalker {
 public:
  TileWalker(std::int64_t rows, std::int64_t cols, TileSchedule sched);

  /// Advances to the next coordinate; false when the traversal is done.
  bool next(std::int64_t& row, std::int64_t& col) {
    return next_run(row, col, 1) == 1;
  }

  /// Advances over a run of up to `max` (>= 1) coordinates that are
  /// consecutive in the element order — (row, col..) for row-major
  /// elements, (row.., col) for column-major — and stops at the end of a
  /// tile line. Returns the run length; 0 when the traversal is done.
  std::int64_t next_run(std::int64_t& row, std::int64_t& col,
                        std::int64_t max) {
    if (done_) return 0;
    row = row0_ + ei_;
    col = col0_ + ej_;
    // Advance the element cursor within the tile.
    std::int64_t len = 0;
    if (s_.elem_order == Order::RowMajor) {
      len = std::min(max, w_ - ej_);
      if ((ej_ += len) == w_) {
        ej_ = 0;
        if (++ei_ == h_) ei_ = 0;
      }
    } else {
      len = std::min(max, h_ - ei_);
      if ((ei_ += len) == h_) {
        ei_ = 0;
        if (++ej_ == w_) ej_ = 0;
      }
    }
    if (ei_ == 0 && ej_ == 0) next_tile();
    return len;
  }

  std::int64_t total() const { return rows_ * cols_; }
  void reset();

 private:
  void next_tile();  // tile finished: advance the tile cursor
  void enter_tile();  // sets the current tile's origin and extent

  std::int64_t rows_, cols_;
  TileSchedule s_;
  std::int64_t n_trow_, n_tcol_;  // number of tile rows / cols
  // Current position: tile indices and element indices within the tile.
  std::int64_t ti_ = 0, tj_ = 0, ei_ = 0, ej_ = 0;
  // The current tile: its first row and column, and its (clamped) extent.
  std::int64_t row0_ = 0, col0_ = 0, h_ = 0, w_ = 0;
  bool done_ = false;
};

// The streamers below move each cycle's elements as bursts through the
// one channel they touch, which is element-exact: see the burst note on
// Channel. Each hop tries the channel first (try_put_n / try_take_n) and
// awaits only when that moves nothing, so a hop that would not suspend
// costs no awaiter. Memory is touched when single pushes and pops would
// touch it: a writer stores each burst as it arrives, and a reader loads
// only what enters the channel now, straight from memory where it is
// contiguous. A push that must wait first loads its one element and
// holds it while suspended, as a single push would.

/// Streams `v` into `out`, `repeat` times over, up to `width` elements per
/// cycle, metered by `bank` when present. Replaying a vector (repeat > 1)
/// is exactly the paper's "x must be replayed" behaviour.
template <typename T>
Task read_vector(VectorView<const T> v, std::int64_t repeat, int width,
                 Channel<T>& out, DramBank* bank = nullptr) {
  const std::int64_t n = v.size();
  const bool contiguous = v.inc() == 1;
  std::vector<T> burst(static_cast<std::size_t>(width));
  for (std::int64_t r = 0; r < repeat; ++r) {
    std::int64_t idx = 0;
    while (idx < n) {
      const std::int64_t want = std::min<std::int64_t>(width, n - idx);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got;) {
        const auto m = std::min<std::int64_t>(
            got - k, static_cast<std::int64_t>(out.room()));
        if (m == 0) {
          co_await out.push(v[idx + k]);
          ++k;
          continue;
        }
        if (contiguous) {
          out.try_put_n(&v[idx + k], static_cast<std::size_t>(m));
        } else {
          for (std::int64_t e = 0; e < m; ++e) burst[e] = v[idx + k + e];
          out.try_put_n(burst.data(), static_cast<std::size_t>(m));
        }
        k += m;
      }
      idx += got;
      co_await next_cycle();
    }
  }
}

/// Drains `in` into `v`, `repeat` times over (each pass overwrites, so the
/// final pass persists — the DRAM round-trip of a replayed result vector).
template <typename T>
Task write_vector(VectorView<T> v, std::int64_t repeat, int width,
                  Channel<T>& in, DramBank* bank = nullptr) {
  const std::int64_t n = v.size();
  const bool contiguous = v.inc() == 1;
  std::vector<T> burst(static_cast<std::size_t>(width));
  for (std::int64_t r = 0; r < repeat; ++r) {
    std::int64_t idx = 0;
    while (idx < n) {
      const std::int64_t want = std::min<std::int64_t>(width, n - idx);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got;) {
        T* const dst = contiguous ? &v[idx + k] : burst.data();
        const auto left = static_cast<std::size_t>(got - k);
        std::size_t m = in.try_take_n(dst, left);
        if (m == 0) m = co_await in.pop_n(dst, left);
        if (!contiguous) {
          for (std::size_t e = 0; e < m; ++e) v[idx + k + e] = burst[e];
        }
        k += static_cast<std::int64_t>(m);
      }
      idx += got;
      co_await next_cycle();
    }
  }
}

/// Streams matrix `A` into `out` following `sched`, `repeat` times.
template <typename T>
Task read_matrix(MatrixView<const T> A, TileSchedule sched, std::int64_t repeat,
                 int width, Channel<T>& out, DramBank* bank = nullptr) {
  const bool by_rows = sched.elem_order == Order::RowMajor;
  std::vector<T> burst(static_cast<std::size_t>(width));
  for (std::int64_t r = 0; r < repeat; ++r) {
    TileWalker walk(A.rows(), A.cols(), sched);
    std::int64_t remaining = walk.total();
    while (remaining > 0) {
      const std::int64_t want = std::min<std::int64_t>(width, remaining);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got;) {
        const auto m = std::min<std::int64_t>(
            got - k, static_cast<std::int64_t>(out.room()));
        std::int64_t i = 0, j = 0;
        if (m == 0) {
          walk.next(i, j);
          co_await out.push(A(i, j));
          ++k;
          continue;
        }
        std::int64_t len = walk.next_run(i, j, m);
        if (by_rows && len == m) {
          // The whole burst is one stretch of a row.
          out.try_put_n(&A(i, j), static_cast<std::size_t>(m));
        } else {
          for (std::int64_t e = 0;;) {
            if (by_rows) {
              std::copy_n(&A(i, j), len, burst.data() + e);
            } else {
              for (std::int64_t t = 0; t < len; ++t) burst[e + t] = A(i + t, j);
            }
            if ((e += len) == m) break;
            len = walk.next_run(i, j, m - e);
          }
          out.try_put_n(burst.data(), static_cast<std::size_t>(m));
        }
        k += m;
      }
      remaining -= got;
      co_await next_cycle();
    }
  }
}

/// Stores a stream into matrix `A` following `sched`.
template <typename T>
Task write_matrix(MatrixView<T> A, TileSchedule sched, int width,
                  Channel<T>& in, DramBank* bank = nullptr) {
  const bool by_rows = sched.elem_order == Order::RowMajor;
  std::vector<T> burst(static_cast<std::size_t>(width));
  TileWalker walk(A.rows(), A.cols(), sched);
  std::int64_t remaining = walk.total();
  while (remaining > 0) {
    const std::int64_t want = std::min<std::int64_t>(width, remaining);
    const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
    for (std::int64_t k = 0; k < got;) {
      const auto left = static_cast<std::size_t>(got - k);
      std::size_t popped = in.try_take_n(burst.data(), left);
      if (popped == 0) popped = co_await in.pop_n(burst.data(), left);
      const auto m = static_cast<std::int64_t>(popped);
      for (std::int64_t e = 0; e < m;) {
        std::int64_t i = 0, j = 0;
        const std::int64_t len = walk.next_run(i, j, m - e);
        for (std::int64_t r = 0; r < len; ++r, ++e) {
          (by_rows ? A(i, j + r) : A(i + r, j)) = burst[e];
        }
      }
      k += m;
    }
    remaining -= got;
    co_await next_cycle();
  }
}

/// On-chip data source: n copies of `value`, `width` per cycle. The paper
/// generates input directly on the FPGA for the module-scaling experiments
/// to decouple them from the testbed's memory interface.
template <typename T>
Task generate(std::int64_t n, T value, int width, Channel<T>& out) {
  const std::vector<T> burst(static_cast<std::size_t>(width), value);
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch;) {
      const auto left = static_cast<std::size_t>(batch - k);
      std::size_t put = out.try_put_n(burst.data(), left);
      if (put == 0) put = co_await out.push_n(burst.data(), left);
      k += static_cast<std::int64_t>(put);
    }
    idx += batch;
    co_await next_cycle();
  }
}

/// On-chip sink: consumes and discards n elements, `width` per cycle.
template <typename T>
Task sink(std::int64_t n, int width, Channel<T>& in) {
  std::vector<T> burst(static_cast<std::size_t>(width));
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch;) {
      const auto left = static_cast<std::size_t>(batch - k);
      std::size_t got = in.try_take_n(burst.data(), left);
      if (got == 0) got = co_await in.pop_n(burst.data(), left);
      k += static_cast<std::int64_t>(got);
    }
    idx += batch;
    co_await next_cycle();
  }
}

/// Duplicates a stream of n elements into two downstream channels (the
/// shared-A interface module of the BICG composition, Fig. 7).
///
/// Per element the pushes go a0 b0 a1 b1 …; a burst of m pushes a0..am-1
/// and then b0..bm-1. Both orders leave the same per-channel values,
/// taps, totals and peaks and wake a's consumer before b's, and both
/// record the first NaN/Inf at the same element on branch a (b carries
/// the same values). Only the graph-wide corruption counter tells them
/// apart, so a burst holding the targeted push splits around its element
/// e: a0..ae-1, b0..be-1, then ae be singly, then the rest as bursts.
template <typename T>
Task fanout2(std::int64_t n, int width, Channel<T>& in, Channel<T>& out_a,
             Channel<T>& out_b) {
  std::vector<T> burst(static_cast<std::size_t>(width));
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch;) {
      const std::size_t m =
          out_a.push_may_throw()
              ? 0
              : burst_len(batch - k, {in.size(), out_a.room(), out_b.room()});
      if (m == 0) {
        T v = co_await in.pop();
        co_await out_a.push(v);
        co_await out_b.push(std::move(v));
        ++k;
        continue;
      }
      in.try_take_n(burst.data(), m);
      const std::uint64_t left = out_a.corrupt_countdown();
      const std::size_t e =
          left != 0 && left <= 2 * m ? static_cast<std::size_t>(left - 1) / 2
                                     : m;
      out_a.try_put_n(burst.data(), e);
      out_b.try_put_n(burst.data(), e);
      if (e < m) {
        out_a.try_put(burst[e]);
        out_b.try_put(burst[e]);
        out_a.try_put_n(burst.data() + e + 1, m - e - 1);
        out_b.try_put_n(burst.data() + e + 1, m - e - 1);
      }
      k += static_cast<std::int64_t>(m);
    }
    idx += batch;
    co_await next_cycle();
  }
}

/// Collects a stream of n elements into a std::vector (test utility).
template <typename T>
Task collect(std::int64_t n, Channel<T>& in, std::vector<T>& out) {
  out.assign(static_cast<std::size_t>(n), T{});
  for (std::int64_t k = 0; k < n;) {
    k += co_await in.pop_n(out.data() + k, n - k);
  }
  co_await next_cycle();
}

/// Feeds a std::vector into a channel verbatim (test utility). Takes the
/// data by value: module coroutines start lazily, so reference parameters
/// to temporaries would dangle.
template <typename T>
Task feed(std::vector<T> data, Channel<T>& out) {
  const auto n = static_cast<std::int64_t>(data.size());
  for (std::int64_t k = 0; k < n;) {
    k += co_await out.push_n(data.data() + k, n - k);
  }
  co_await next_cycle();
}

}  // namespace fblas::stream
