// Streaming HLS modules for the BLAS Level-2 routines.
//
// Level-2 modules stream their matrix operand in 2-D tiles (Sec. III-B).
// The tiling scheme is part of the module's *interface*: it fixes the
// order elements cross the channel, which vector operands must be
// replayed, and the routine's I/O complexity. GEMV implements both
// variants of Fig. 2:
//   * tiles by rows    — reuse over y, x replayed ceil(N/TN) times,
//                        I/O = N*M + M*ceil(N/TN) + 2N
//   * tiles by columns — x read once, y replayed ceil(M/TM) times,
//                        I/O = N*M + M + 2N*ceil(M/TM)
// The replay FIFO of a replayed *output* (y in the by-columns variant) is
// an internal buffer standing in for the DRAM round trip; the I/O volume
// of that round trip is accounted by the MDAG I/O calculus (mdag/).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "stream/channel.hpp"
#include "stream/scheduler.hpp"
#include "stream/streamers.hpp"
#include "stream/task.hpp"

namespace fblas::core {

using stream::burst_len;
using stream::Channel;
using stream::next_cycle;
using stream::Task;
using stream::TileSchedule;

/// Whether the matrix operand arrives in tiles ordered by rows or by
/// columns (the two streaming schemes of Fig. 2).
enum class MatrixTiling { TilesByRows, TilesByCols };

struct GemvConfig {
  Transpose trans = Transpose::None;
  MatrixTiling tiling = MatrixTiling::TilesByRows;
  int width = 16;
  std::int64_t tile_rows = 1024;  ///< TN
  std::int64_t tile_cols = 1024;  ///< TM
  /// Element order within a tile. Together with `tiling` this covers all
  /// 4 streaming modes of a matrix interface (Sec. III-B).
  Order elem_order = Order::RowMajor;

  void validate() const;
};

/// The schedule the A-interface module must use to feed a GEMV with this
/// configuration.
TileSchedule gemv_a_schedule(const GemvConfig& cfg);

/// Replay count of the x operand for a (rows x cols) GEMV.
std::int64_t gemv_x_repeat(const GemvConfig& cfg, std::int64_t rows,
                           std::int64_t cols);
/// Replay count of the y operand (1 means y makes a single pass).
std::int64_t gemv_y_repeat(const GemvConfig& cfg, std::int64_t rows,
                           std::int64_t cols);
/// Total DRAM I/O operations (reads+writes) of a standalone GEMV with this
/// configuration — the Sec. III-B formulas.
std::int64_t gemv_io_ops(const GemvConfig& cfg, std::int64_t rows,
                         std::int64_t cols);

/// GEMV: y = alpha * op(A) * x + beta * y.
///
/// `rows` x `cols` is always the shape of A as stored; for trans ==
/// Transpose::Trans the module computes A^T x (x has `rows` elements and
/// y has `cols`). A arrives on ch_a following gemv_a_schedule(cfg); x and
/// y arrive on ch_x / ch_y with the replay counts above; the result
/// leaves on ch_out in natural order.
template <typename T>
Task gemv(GemvConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
          T beta, Channel<T>& ch_a, Channel<T>& ch_x, Channel<T>& ch_y,
          Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(rows, TN), ntj = ceil_div(cols, TM);
  const int W = cfg.width;
  const bool trans = cfg.trans == Transpose::Trans;
  // Element traversal within a tile: the loops below iterate (outer o,
  // inner i), which is (row, col) for row-major elements and (col, row)
  // otherwise.
  const bool row_elems = cfg.elem_order == Order::RowMajor;
  std::vector<T> xbuf, acc;
  // A arrives in bursts of up to W elements (a burst never crosses a
  // cycle or a tile line, so it is element-exact), taken with try_take_n
  // and awaited only when A is empty; x, y and the result move as whole
  // bursts too.
  std::vector<T> abuf(static_cast<std::size_t>(W));
  // The multiply-accumulate of k A-elements at tile position (o, i..):
  // the partial sums are indexed by row (by column when transposed) and x
  // by the other coordinate, so one of them stays fixed along the burst.
  // Where the partial sums are full-length (`scaled`: std::true_type)
  // each product is (alpha * a) * x, alpha rounded into a first. Every
  // sum takes its terms in the per-element order.
  const bool dst_on_outer = row_elems != trans;
  auto mac = [&](auto scaled, T* dst, std::int64_t o, std::int64_t i,
                 std::size_t k) {
    const auto a = [&](std::size_t e) -> T {
      return scaled ? alpha * abuf[e] : abuf[e];
    };
    if (dst_on_outer) {
      T s = dst[o];
      for (std::size_t e = 0; e < k; ++e) s += a(e) * xbuf[i + e];
      dst[o] = s;
    } else {
      const T xo = xbuf[o];
      for (std::size_t e = 0; e < k; ++e) dst[i + e] += a(e) * xo;
    }
  };

  if (!trans && cfg.tiling == MatrixTiling::TilesByRows) {
    // Fig. 2 (left): reuse over y; x replayed once per tile-row.
    xbuf.resize(static_cast<std::size_t>(TM));
    acc.resize(static_cast<std::size_t>(TN));
    std::vector<T> ybuf(static_cast<std::size_t>(TN));
    for (std::int64_t ti = 0; ti < nti; ++ti) {
      const std::int64_t th = std::min(TN, rows - ti * TN);
      for (std::int64_t r = 0; r < th;) {
        r += co_await ch_y.pop_n(ybuf.data() + r, th - r);
      }
      for (std::int64_t r = 0; r < th; ++r) {
        ybuf[r] = beta * ybuf[r];
        acc[r] = T(0);
      }
      for (std::int64_t tj = 0; tj < ntj; ++tj) {
        const std::int64_t tw = std::min(TM, cols - tj * TM);
        for (std::int64_t c = 0; c < tw;) {
          c += co_await ch_x.pop_n(xbuf.data() + c, tw - c);
        }
        int in_cycle = 0;
        const std::int64_t no = row_elems ? th : tw;
        const std::int64_t ni = row_elems ? tw : th;
        for (std::int64_t o = 0; o < no; ++o) {
          for (std::int64_t i = 0; i < ni;) {
            const auto want = static_cast<std::size_t>(
                std::min<std::int64_t>(W - in_cycle, ni - i));
            std::size_t k = ch_a.try_take_n(abuf.data(), want);
            if (k == 0) k = co_await ch_a.pop_n(abuf.data(), want);
            mac(std::false_type{}, acc.data(), o, i, k);
            i += static_cast<std::int64_t>(k);
            if ((in_cycle += static_cast<int>(k)) == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
      for (std::int64_t r = 0; r < th; ++r) ybuf[r] += alpha * acc[r];
      for (std::int64_t r = 0; r < th;) {
        r += co_await ch_out.push_n(ybuf.data() + r, th - r);
      }
      co_await next_cycle();
    }
  } else if (!trans) {
    // Fig. 2 (right): x read once; y (partial results) replayed. The
    // full-length partial buffer models the DRAM round trip.
    xbuf.resize(static_cast<std::size_t>(TM));
    std::vector<T> part(static_cast<std::size_t>(rows), T(0));
    for (std::int64_t tj = 0; tj < ntj; ++tj) {
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      for (std::int64_t c = 0; c < tw;) {
        c += co_await ch_x.pop_n(xbuf.data() + c, tw - c);
      }
      for (std::int64_t ti = 0; ti < nti; ++ti) {
        const std::int64_t th = std::min(TN, rows - ti * TN);
        T* const block = part.data() + ti * TN;
        if (tj == 0) {
          for (std::int64_t r = 0; r < th;) {
            r += co_await ch_y.pop_n(block + r, th - r);
          }
          for (std::int64_t r = 0; r < th; ++r) block[r] = beta * block[r];
        }
        int in_cycle = 0;
        const std::int64_t no = row_elems ? th : tw;
        const std::int64_t ni = row_elems ? tw : th;
        for (std::int64_t o = 0; o < no; ++o) {
          for (std::int64_t i = 0; i < ni;) {
            const auto want = static_cast<std::size_t>(
                std::min<std::int64_t>(W - in_cycle, ni - i));
            std::size_t k = ch_a.try_take_n(abuf.data(), want);
            if (k == 0) k = co_await ch_a.pop_n(abuf.data(), want);
            mac(std::true_type{}, block, o, i, k);
            i += static_cast<std::int64_t>(k);
            if ((in_cycle += static_cast<int>(k)) == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
        if (tj == ntj - 1) {
          for (std::int64_t r = 0; r < th;) {
            r += co_await ch_out.push_n(block + r, th - r);
          }
        }
      }
      co_await next_cycle();
    }
  } else if (cfg.tiling == MatrixTiling::TilesByRows) {
    // y = alpha A^T x + beta y with A in tiles by rows: x (length rows)
    // read once, block per tile-row; y partials buffered full-length.
    xbuf.resize(static_cast<std::size_t>(TN));
    std::vector<T> part(static_cast<std::size_t>(cols));
    for (std::int64_t c = 0; c < cols;) {
      c += co_await ch_y.pop_n(part.data() + c, cols - c);
    }
    for (std::int64_t c = 0; c < cols; ++c) part[c] = beta * part[c];
    for (std::int64_t ti = 0; ti < nti; ++ti) {
      const std::int64_t th = std::min(TN, rows - ti * TN);
      for (std::int64_t r = 0; r < th;) {
        r += co_await ch_x.pop_n(xbuf.data() + r, th - r);
      }
      for (std::int64_t tj = 0; tj < ntj; ++tj) {
        const std::int64_t tw = std::min(TM, cols - tj * TM);
        int in_cycle = 0;
        const std::int64_t no = row_elems ? th : tw;
        const std::int64_t ni = row_elems ? tw : th;
        for (std::int64_t o = 0; o < no; ++o) {
          for (std::int64_t i = 0; i < ni;) {
            const auto want = static_cast<std::size_t>(
                std::min<std::int64_t>(W - in_cycle, ni - i));
            std::size_t k = ch_a.try_take_n(abuf.data(), want);
            if (k == 0) k = co_await ch_a.pop_n(abuf.data(), want);
            mac(std::true_type{}, part.data() + tj * TM, o, i, k);
            i += static_cast<std::int64_t>(k);
            if ((in_cycle += static_cast<int>(k)) == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
    }
    for (std::int64_t c = 0; c < cols;) {
      c += co_await ch_out.push_n(part.data() + c, cols - c);
    }
    co_await next_cycle();
  } else {
    // trans, tiles by columns: reuse over y blocks; x replayed per
    // tile-column.
    xbuf.resize(static_cast<std::size_t>(TN));
    acc.resize(static_cast<std::size_t>(TM));
    std::vector<T> ybuf(static_cast<std::size_t>(TM));
    for (std::int64_t tj = 0; tj < ntj; ++tj) {
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      for (std::int64_t c = 0; c < tw;) {
        c += co_await ch_y.pop_n(ybuf.data() + c, tw - c);
      }
      for (std::int64_t c = 0; c < tw; ++c) {
        ybuf[c] = beta * ybuf[c];
        acc[c] = T(0);
      }
      for (std::int64_t ti = 0; ti < nti; ++ti) {
        const std::int64_t th = std::min(TN, rows - ti * TN);
        for (std::int64_t r = 0; r < th;) {
          r += co_await ch_x.pop_n(xbuf.data() + r, th - r);
        }
        int in_cycle = 0;
        const std::int64_t no = row_elems ? th : tw;
        const std::int64_t ni = row_elems ? tw : th;
        for (std::int64_t o = 0; o < no; ++o) {
          for (std::int64_t i = 0; i < ni;) {
            const auto want = static_cast<std::size_t>(
                std::min<std::int64_t>(W - in_cycle, ni - i));
            std::size_t k = ch_a.try_take_n(abuf.data(), want);
            if (k == 0) k = co_await ch_a.pop_n(abuf.data(), want);
            mac(std::false_type{}, acc.data(), o, i, k);
            i += static_cast<std::int64_t>(k);
            if ((in_cycle += static_cast<int>(k)) == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
      for (std::int64_t c = 0; c < tw; ++c) ybuf[c] += alpha * acc[c];
      for (std::int64_t c = 0; c < tw;) {
        c += co_await ch_out.push_n(ybuf.data() + c, tw - c);
      }
      co_await next_cycle();
    }
  }
}

struct GerConfig {
  MatrixTiling tiling = MatrixTiling::TilesByRows;
  int width = 16;
  std::int64_t tile_rows = 1024;
  std::int64_t tile_cols = 1024;
  /// Element order within a tile (row- or column-major traversal).
  Order elem_order = Order::RowMajor;

  void validate() const;
};

/// The schedule for both the A-in and A-out interfaces of GER/SYR/SYR2.
TileSchedule ger_a_schedule(const GerConfig& cfg);
/// Replay counts for the two vector operands of GER.
std::int64_t ger_x_repeat(const GerConfig& cfg, std::int64_t rows,
                          std::int64_t cols);
std::int64_t ger_y_repeat(const GerConfig& cfg, std::int64_t rows,
                          std::int64_t cols);
/// Total DRAM I/O operations of a standalone GER.
std::int64_t ger_io_ops(const GerConfig& cfg, std::int64_t rows,
                        std::int64_t cols);

/// The streamed matrix update behind GER, SYR and SYR2: out = update(a)
/// for every element a of A, tile by tile. K vector operands run along
/// the rows (row_ch) and K along the columns (col_ch); per tile their
/// blocks load element by element in channel order, the outer-dimension
/// blocks once per outer step and the inner ones (the replayed operands)
/// for every tile. `update(a, rb, cb, r, c)` sees the blocks as
/// rb[k][r] and cb[k][c].
///
/// The blocks and A move as bursts under stream::burst_len (A never
/// across a cycle or a tile line), which is element-exact: see the
/// burst note on Channel.
template <typename T, std::size_t K, typename Update>
Task rank_update(GerConfig cfg, std::int64_t rows, std::int64_t cols,
                 Channel<T>& ch_a, std::array<Channel<T>*, K> row_ch,
                 std::array<Channel<T>*, K> col_ch, Channel<T>& ch_out,
                 Update update) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(rows, TN), ntj = ceil_div(cols, TM);
  const int W = cfg.width;
  const bool by_rows = cfg.tiling == MatrixTiling::TilesByRows;
  const bool row_elems = cfg.elem_order == Order::RowMajor;
  std::array<std::vector<T>, K> rb, cb;
  for (auto& b : rb) b.resize(static_cast<std::size_t>(TN));
  for (auto& b : cb) b.resize(static_cast<std::size_t>(TM));
  std::vector<T> abuf(static_cast<std::size_t>(W));
  const std::int64_t outer = by_rows ? nti : ntj;
  const std::int64_t inner = by_rows ? ntj : nti;
  for (std::int64_t to = 0; to < outer; ++to) {
    for (std::int64_t tin = 0; tin < inner; ++tin) {
      const std::int64_t ti = by_rows ? to : tin;
      const std::int64_t tj = by_rows ? tin : to;
      const std::int64_t th = std::min(TN, rows - ti * TN);
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      for (int p = tin == 0 ? 0 : 1; p < 2; ++p) {
        const bool load_rows = by_rows == (p == 0);
        const auto& chs = load_rows ? row_ch : col_ch;
        auto& bufs = load_rows ? rb : cb;
        const std::int64_t len = load_rows ? th : tw;
        for (std::int64_t idx = 0; idx < len;) {
          std::size_t m = static_cast<std::size_t>(len - idx);
          for (const Channel<T>* ch : chs) m = std::min(m, ch->size());
          if (m == 0) {
            for (std::size_t k = 0; k < K; ++k) {
              bufs[k][idx] = co_await chs[k]->pop();
            }
            ++idx;
            continue;
          }
          for (std::size_t k = 0; k < K; ++k) {
            chs[k]->try_take_n(bufs[k].data() + idx, m);
          }
          idx += static_cast<std::int64_t>(m);
        }
      }
      int in_cycle = 0;
      const std::int64_t no = row_elems ? th : tw;
      const std::int64_t ni = row_elems ? tw : th;
      for (std::int64_t o = 0; o < no; ++o) {
        for (std::int64_t i = 0; i < ni;) {
          const std::size_t k =
              ch_out.push_may_throw()
                  ? 0
                  : burst_len(std::min<std::int64_t>(W - in_cycle, ni - i),
                              {ch_a.size(), ch_out.room()});
          if (k == 0) {
            const T a = co_await ch_a.pop();
            co_await ch_out.push(update(a, rb, cb, row_elems ? o : i,
                                        row_elems ? i : o));
            ++i;
            if (++in_cycle == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
            continue;
          }
          ch_a.try_take_n(abuf.data(), k);
          for (std::size_t e = 0; e < k; ++e) {
            const std::int64_t ie = i + static_cast<std::int64_t>(e);
            abuf[e] = update(abuf[e], rb, cb, row_elems ? o : ie,
                             row_elems ? ie : o);
          }
          ch_out.try_put_n(abuf.data(), k);
          i += static_cast<std::int64_t>(k);
          if ((in_cycle += static_cast<int>(k)) == W) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
      }
    }
    co_await next_cycle();
  }
}

/// GER: out = A + alpha * x * y^T, streamed tile by tile.
template <typename T>
Task ger(GerConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
         Channel<T>& ch_a, Channel<T>& ch_x, Channel<T>& ch_y,
         Channel<T>& ch_out) {
  return rank_update<T, 1>(
      cfg, rows, cols, ch_a, {&ch_x}, {&ch_y}, ch_out,
      [alpha](T a, const auto& x, const auto& y, std::int64_t r,
              std::int64_t c) { return a + alpha * x[0][r] * y[0][c]; });
}

/// SYR: out = A + alpha * x * x^T (generic full-matrix stream; the paper
/// implements symmetric routines in terms of the generic ones). The module
/// needs x along both dimensions, hence two x channels with the same
/// replay pattern as GER's (x, y) pair.
template <typename T>
Task syr(GerConfig cfg, std::int64_t n, T alpha, Channel<T>& ch_a,
         Channel<T>& ch_x_row, Channel<T>& ch_x_col, Channel<T>& ch_out) {
  return ger<T>(cfg, n, n, alpha, ch_a, ch_x_row, ch_x_col, ch_out);
}

/// SYR2: out = A + alpha * (x y^T + y x^T); four vector streams (row and
/// column blocks of both x and y).
template <typename T>
Task syr2(GerConfig cfg, std::int64_t n, T alpha, Channel<T>& ch_a,
          Channel<T>& ch_x_row, Channel<T>& ch_x_col, Channel<T>& ch_y_row,
          Channel<T>& ch_y_col, Channel<T>& ch_out) {
  return rank_update<T, 2>(
      cfg, n, n, ch_a, {&ch_x_row, &ch_y_row}, {&ch_x_col, &ch_y_col}, ch_out,
      [alpha](T a, const auto& row, const auto& col, std::int64_t r,
              std::int64_t c) {
        return a + alpha * (row[0][r] * col[1][c] + row[1][r] * col[0][c]);
      });
}

struct TrsvConfig {
  Uplo uplo = Uplo::Lower;
  Diag diag = Diag::NonUnit;
  int width = 16;

  void validate() const {
    FBLAS_REQUIRE(width >= 1, "vectorization width must be >= 1");
  }
};

/// Streams the `uplo` triangle (including the diagonal) of op(A) for an
/// n x n matrix, in the row order the TRSV/TRSM modules consume (lower:
/// top-down; upper: bottom-up), i.e. in solve order. `uplo` refers to
/// op(A): for a transposed solve pass the flipped triangle and
/// trans == Trans.
template <typename T>
Task read_triangular(MatrixView<const T> A, Uplo uplo, int width,
                     Channel<T>& out, stream::DramBank* bank = nullptr,
                     Transpose trans = Transpose::None) {
  const std::int64_t n = A.rows();
  auto at = [&](std::int64_t i, std::int64_t j) -> T {
    return trans == Transpose::None ? A(i, j) : A(j, i);
  };
  std::int64_t emitted_in_cycle = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t i = uplo == Uplo::Lower ? k : n - 1 - k;
    const std::int64_t j0 = uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1; ++j) {
      const std::int64_t got = bank ? bank->grant_elems(1, sizeof(T)) : 1;
      if (got == 0) {
        co_await next_cycle();
        --j;
        continue;
      }
      co_await out.push(at(i, j));
      if (++emitted_in_cycle == width) {
        emitted_in_cycle = 0;
        co_await next_cycle();
      }
    }
  }
  co_await next_cycle();
}

/// TRSV: solves op(A) x = b for a triangular A streamed in solve order
/// (see read_triangular). b arrives on ch_b one element per row in solve
/// order; solutions leave on ch_out in the same order. The progressive
/// solution buffer is on-chip state (the loop-carried dependency that
/// keeps TRSV's initiation interval above 1 in hardware).
template <typename T>
Task trsv(TrsvConfig cfg, std::int64_t n, Channel<T>& ch_a, Channel<T>& ch_b,
          Channel<T>& ch_out) {
  cfg.validate();
  const int W = cfg.width;
  std::vector<T> x(static_cast<std::size_t>(n), T(0));
  int in_cycle = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t i = cfg.uplo == Uplo::Lower ? k : n - 1 - k;
    T acc = co_await ch_b.pop();
    T diag_val = T(1);
    // Row arrives as (dependencies..., diagonal) for lower and
    // (diagonal, dependencies...) for upper; consume in arrival order.
    const std::int64_t j0 = cfg.uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = cfg.uplo == Uplo::Lower ? i + 1 : n;
    for (std::int64_t j = j0; j < j1; ++j) {
      const T a = co_await ch_a.pop();
      if (j == i) {
        diag_val = a;
      } else {
        acc -= a * x[j];
      }
      if (++in_cycle == W) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
    x[i] = cfg.diag == Diag::Unit ? acc : acc / diag_val;
    co_await ch_out.push(x[i]);
  }
  co_await next_cycle();
}

}  // namespace fblas::core
