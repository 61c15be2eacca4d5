// Streaming HLS modules for the BLAS Level-3 routines.
//
// GEMM follows the paper's systolic organization (Sec. III-C, Fig. 3): a
// PR x PC grid of processing elements computes a TR x TC tile of C, where
// TR and TC (the compute tile) are multiples of PR and PC. The grid
// performs PR*PC multiply-adds per clock cycle; feeding needs TR + TC
// elements per K-step, i.e. (PR + PC)/ratio elements per cycle — which is
// why larger compute/memory tile ratios lower the bandwidth pressure
// (Fig. 10, right). This single-coroutine module is the "single kernel
// with a fully-unrolled PE function" formulation used for Intel FPGAs;
// an explicit PE-grid simulation lives in src/systolic/ and is tested to
// agree with it.
//
// Helper kernels Read-A / Read-B / Store-C (the paper's interface
// modules) are provided alongside, emitting exactly the order the module
// consumes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "stream/channel.hpp"
#include "stream/dram.hpp"
#include "stream/scheduler.hpp"
#include "stream/streamers.hpp"
#include "stream/task.hpp"

namespace fblas::core {

using stream::Channel;
using stream::next_cycle;
using stream::Task;

struct GemmConfig {
  int pe_rows = 4;             ///< PR: systolic grid height
  int pe_cols = 4;             ///< PC: systolic grid width
  std::int64_t tile_rows = 16; ///< TR: compute-tile height (multiple of PR)
  std::int64_t tile_cols = 16; ///< TC: compute-tile width (multiple of PC)

  void validate() const;
  /// The compute/memory tile ratio of Fig. 10 (right): TR/PR == TC/PC is
  /// not required, so this reports the element ratio per PE.
  double ratio() const {
    return static_cast<double>(tile_rows * tile_cols) /
           static_cast<double>(pe_rows * pe_cols);
  }
};

/// DRAM I/O operations of a standalone GEMM (C is m x n, contraction k):
/// A is re-read once per C tile-column, B once per C tile-row, C written
/// (and read when beta != 0).
std::int64_t gemm_io_ops(const GemmConfig& cfg, std::int64_t m,
                         std::int64_t n, std::int64_t k, bool reads_c);

/// Read-A helper: streams the op(A) panel (column segments of length TR)
/// for every C tile in module order. With trans == Trans the stored
/// matrix is k x m and elements are fetched transposed (the functional
/// parameter of the code generator).
template <typename T>
Task read_a_gemm(MatrixView<const T> A, GemmConfig cfg, std::int64_t n,
                 Channel<T>& out, stream::DramBank* bank = nullptr,
                 Transpose trans = Transpose::None) {
  const std::int64_t m = trans == Transpose::None ? A.rows() : A.cols();
  const std::int64_t k = trans == Transpose::None ? A.cols() : A.rows();
  auto at = [&](std::int64_t i, std::int64_t p) -> T {
    return trans == Transpose::None ? A(i, p) : A(p, i);
  };
  const std::int64_t TR = cfg.tile_rows;
  const std::int64_t nbi = ceil_div(m, TR), nbj = ceil_div(n, cfg.tile_cols);
  int in_cycle = 0;
  for (std::int64_t bi = 0; bi < nbi; ++bi) {
    const std::int64_t th = std::min(TR, m - bi * TR);
    for (std::int64_t bj = 0; bj < nbj; ++bj) {
      for (std::int64_t p = 0; p < k; ++p) {
        for (std::int64_t r = 0; r < th;) {
          const std::int64_t got = bank ? bank->grant_elems(1, sizeof(T)) : 1;
          if (got == 0) {
            co_await next_cycle();
            continue;
          }
          co_await out.push(at(bi * TR + r, p));
          ++r;
          if (++in_cycle == cfg.pe_rows) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
      }
    }
  }
}

/// Read-B helper: streams the op(B) panel (row segments of length TC) for
/// every C tile in module order.
template <typename T>
Task read_b_gemm(MatrixView<const T> B, GemmConfig cfg, std::int64_t m,
                 Channel<T>& out, stream::DramBank* bank = nullptr,
                 Transpose trans = Transpose::None) {
  const std::int64_t k = trans == Transpose::None ? B.rows() : B.cols();
  const std::int64_t n = trans == Transpose::None ? B.cols() : B.rows();
  auto bt = [&](std::int64_t p, std::int64_t j) -> T {
    return trans == Transpose::None ? B(p, j) : B(j, p);
  };
  const std::int64_t TC = cfg.tile_cols;
  const std::int64_t nbi = ceil_div(m, cfg.tile_rows), nbj = ceil_div(n, TC);
  int in_cycle = 0;
  for (std::int64_t bi = 0; bi < nbi; ++bi) {
    for (std::int64_t bj = 0; bj < nbj; ++bj) {
      const std::int64_t tw = std::min(TC, n - bj * TC);
      for (std::int64_t p = 0; p < k; ++p) {
        for (std::int64_t c = 0; c < tw;) {
          const std::int64_t got = bank ? bank->grant_elems(1, sizeof(T)) : 1;
          if (got == 0) {
            co_await next_cycle();
            continue;
          }
          co_await out.push(bt(p, bj * TC + c));
          ++c;
          if (++in_cycle == cfg.pe_cols) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
      }
    }
  }
}

/// The Store-C schedule: C tiles leave the drain in row-major tile order,
/// row-major elements within the tile.
inline stream::TileSchedule gemm_c_schedule(const GemmConfig& cfg) {
  return stream::TileSchedule{Order::RowMajor, Order::RowMajor, cfg.tile_rows,
                              cfg.tile_cols};
}

/// GEMM: C = alpha * A * B + beta * C.
/// A arrives as read_a_gemm emits, B as read_b_gemm emits. When beta is
/// non-zero, the previous C arrives on ch_c in gemm_c_schedule order; for
/// beta == 0 the channel is never popped. The result leaves on ch_out in
/// gemm_c_schedule order.
template <typename T>
Task gemm(GemmConfig cfg, std::int64_t m, std::int64_t n, std::int64_t k,
          T alpha, T beta, Channel<T>& ch_a, Channel<T>& ch_b,
          Channel<T>& ch_c, Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TR = cfg.tile_rows, TC = cfg.tile_cols;
  const std::int64_t nbi = ceil_div(m, TR), nbj = ceil_div(n, TC);
  const std::int64_t macs_per_cycle =
      static_cast<std::int64_t>(cfg.pe_rows) * cfg.pe_cols;
  std::vector<T> acc(static_cast<std::size_t>(TR * TC));
  std::vector<T> a_col(static_cast<std::size_t>(TR));
  std::vector<T> b_row(static_cast<std::size_t>(TC));
  for (std::int64_t bi = 0; bi < nbi; ++bi) {
    const std::int64_t th = std::min(TR, m - bi * TR);
    for (std::int64_t bj = 0; bj < nbj; ++bj) {
      const std::int64_t tw = std::min(TC, n - bj * TC);
      std::fill(acc.begin(), acc.end(), T(0));
      std::int64_t in_cycle = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        for (std::int64_t r = 0; r < th; ++r) a_col[r] = co_await ch_a.pop();
        for (std::int64_t c = 0; c < tw; ++c) b_row[c] = co_await ch_b.pop();
        // The PE grid: PR*PC of these multiply-adds happen per cycle.
        for (std::int64_t r = 0; r < th; ++r) {
          const T av = a_col[r];
          for (std::int64_t c = 0; c < tw; ++c) {
            acc[r * TC + c] += av * b_row[c];
            if (++in_cycle == macs_per_cycle) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
      // Drain phase: results leave PC elements per cycle through the
      // drain chain (Fig. 3), merging in the previous C when beta != 0.
      std::int64_t drained = 0;
      for (std::int64_t r = 0; r < th; ++r) {
        for (std::int64_t c = 0; c < tw; ++c) {
          T v = alpha * acc[r * TC + c];
          if (beta != T(0)) v += beta * co_await ch_c.pop();
          co_await ch_out.push(v);
          if (++drained == cfg.pe_cols) {
            drained = 0;
            co_await next_cycle();
          }
        }
      }
      co_await next_cycle();
    }
  }
}

/// SYR2K: C = alpha * (A B^T + B A^T) + beta * C with A and B both n x k.
/// Four input streams: column segments of A and B (as read_a_gemm emits)
/// and row segments of A^T and B^T (as read_b_gemm emits on the
/// transposed views). Only the `uplo` triangle of the output is
/// meaningful; the store helper filters it.
template <typename T>
Task syr2k(GemmConfig cfg, std::int64_t n, std::int64_t k, T alpha, T beta,
           Channel<T>& ch_a, Channel<T>& ch_b, Channel<T>& ch_at,
           Channel<T>& ch_bt, Channel<T>& ch_c, Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TR = cfg.tile_rows, TC = cfg.tile_cols;
  const std::int64_t nbi = ceil_div(n, TR), nbj = ceil_div(n, TC);
  const std::int64_t macs_per_cycle =
      static_cast<std::int64_t>(cfg.pe_rows) * cfg.pe_cols;
  std::vector<T> acc(static_cast<std::size_t>(TR * TC));
  std::vector<T> a_col(static_cast<std::size_t>(TR)),
      b_col(static_cast<std::size_t>(TR));
  std::vector<T> at_row(static_cast<std::size_t>(TC)),
      bt_row(static_cast<std::size_t>(TC));
  for (std::int64_t bi = 0; bi < nbi; ++bi) {
    const std::int64_t th = std::min(TR, n - bi * TR);
    for (std::int64_t bj = 0; bj < nbj; ++bj) {
      const std::int64_t tw = std::min(TC, n - bj * TC);
      std::fill(acc.begin(), acc.end(), T(0));
      std::int64_t in_cycle = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        for (std::int64_t r = 0; r < th; ++r) a_col[r] = co_await ch_a.pop();
        for (std::int64_t r = 0; r < th; ++r) b_col[r] = co_await ch_b.pop();
        for (std::int64_t c = 0; c < tw; ++c) at_row[c] = co_await ch_at.pop();
        for (std::int64_t c = 0; c < tw; ++c) bt_row[c] = co_await ch_bt.pop();
        for (std::int64_t r = 0; r < th; ++r) {
          for (std::int64_t c = 0; c < tw; ++c) {
            acc[r * TC + c] += a_col[r] * bt_row[c] + b_col[r] * at_row[c];
            if (++in_cycle == macs_per_cycle) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
      std::int64_t drained = 0;
      for (std::int64_t r = 0; r < th; ++r) {
        for (std::int64_t c = 0; c < tw; ++c) {
          T v = alpha * acc[r * TC + c];
          if (beta != T(0)) v += beta * co_await ch_c.pop();
          co_await ch_out.push(v);
          if (++drained == cfg.pe_cols) {
            drained = 0;
            co_await next_cycle();
          }
        }
      }
      co_await next_cycle();
    }
  }
}

struct TrsmConfig {
  Uplo uplo = Uplo::Lower;
  Diag diag = Diag::NonUnit;
  int width = 16;

  void validate() const {
    FBLAS_REQUIRE(width >= 1, "vectorization width must be >= 1");
  }
};

/// TRSM (left side): solves op-free A * X = alpha * B for triangular A
/// (m x m) and B (m x n), streaming A's triangle in solve order (see
/// read_triangular) and B's rows in the same order. X rows leave in solve
/// order. The progressively-filled X buffer is the on-chip state of the
/// blocked solve. Right-side and transposed solves are lowered to this
/// module by the host API through operand transposition.
template <typename T>
Task trsm(TrsmConfig cfg, std::int64_t m, std::int64_t n, T alpha,
          Channel<T>& ch_a, Channel<T>& ch_b, Channel<T>& ch_out) {
  cfg.validate();
  const int W = cfg.width;
  std::vector<T> x(static_cast<std::size_t>(m * n), T(0));
  std::vector<T> row(static_cast<std::size_t>(n));
  int in_cycle = 0;
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = cfg.uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n; ++c) {
      row[c] = alpha * co_await ch_b.pop();
      if (++in_cycle == W) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
    T diag_val = T(1);
    const std::int64_t j0 = cfg.uplo == Uplo::Lower ? 0 : i;
    const std::int64_t j1 = cfg.uplo == Uplo::Lower ? i + 1 : m;
    for (std::int64_t j = j0; j < j1; ++j) {
      const T a = co_await ch_a.pop();
      if (j == i) {
        diag_val = a;
        continue;
      }
      for (std::int64_t c = 0; c < n; ++c) {
        row[c] -= a * x[j * n + c];
        if (++in_cycle == W) {
          in_cycle = 0;
          co_await next_cycle();
        }
      }
    }
    for (std::int64_t c = 0; c < n; ++c) {
      const T v = cfg.diag == Diag::Unit ? row[c] : row[c] / diag_val;
      x[i * n + c] = v;
      co_await ch_out.push(v);
      if (++in_cycle == W) {
        in_cycle = 0;
        co_await next_cycle();
      }
    }
  }
  co_await next_cycle();
}

}  // namespace fblas::core
