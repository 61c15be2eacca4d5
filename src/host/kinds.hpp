// The per-kind module table: one descriptor per RoutineKind, all 22.
//
// A descriptor is everything the library knows about lowering one
// routine kind to the stream layer:
//
//   ports     the module's operand streams, inputs first, then outputs,
//             each with how it meets DRAM (a strided vector replayed
//             `repeat` times, a tiled matrix, a triangle in solve order,
//             a solve-order vector or matrix, an uplo-masked matrix
//             writer, a GEMM panel, or a scalar/index result). The ports
//             also say which operands a call reads and writes, which
//             elements it stores, and every operand's shape.
//   module    the only instantiation of the core:: module in the host
//             and codegen layers
//   fallback  the refblas reference, on operand views
//   verify    (checked kinds only) the ABFT checker, on the same views:
//             the kind's verify:: prepare pass, returning the check of
//             the outputs
//   predict   (composable kinds only) the forward replay in double that
//             predicts the module's output stream for verification
//
// Single host calls of every level (host/detail.hpp: lower_call),
// compositions (host/api_composed.cpp) and the codegen runner
// (codegen/runner.cpp) all lower through this table. Adding a routine
// kind means one descriptor here plus one RoutineInfo row in
// common/routines.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/routines.hpp"
#include "common/types.hpp"
#include "common/view.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "fblas/level3.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "refblas/level3.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "verify/abft.hpp"

namespace fblas::host::kinds {

/// How one port's stream meets DRAM (or the host).
enum class PortKind {
  Vector,      ///< strided vector, replayed `repeat` times
  Matrix,      ///< tiled matrix in `sched` order
  Triangular,  ///< the `uplo` triangle of an n x n op(A) in solve order
  SolveOrder,  ///< vector or matrix rows in `uplo` solve order (reversed
               ///< for Upper); with `trans`, the matrix's columns
  UploMatrix,  ///< tiled matrix writer storing only the `uplo` triangle
  PanelA,      ///< op(X)'s column segments for every C tile (read_a_gemm)
  PanelB,      ///< op(X)'s row segments for every C tile (read_b_gemm)
  Scalar,      ///< one value collected to the host
  Index,       ///< one index collected to the host
};

/// One operand stream of a module.
struct Port {
  PortKind kind = PortKind::Vector;
  const char* channel = "";  ///< FIFO name in a single call
  const char* io = "";       ///< its reader / writer / collector's name
  int operand = 0;           ///< the call operand it reads or writes
  /// Vector elements per pass; Triangular: n; panels: C's columns
  /// (PanelA) or rows (PanelB).
  std::int64_t len = 0;
  std::int64_t rows = 0, cols = 0;  ///< a matrix as stored
  /// Passes over the stream; 0: the module never reads it, so it gets a
  /// channel but no reader (GEMM's C when beta is 0).
  std::int64_t repeat = 1;
  stream::TileSchedule sched{};
  /// op(A)'s triangle; UploMatrix: the stored one.
  Uplo uplo = Uplo::Lower;
  /// Triangular, panels: stream op(X); SolveOrder: walk the columns.
  Transpose trans = Transpose::None;
  std::int64_t depth = 0;  ///< FIFO depth; 0: chan_cap(width)
  int width = 0;           ///< elements per cycle; 0: the call's width
  core::GemmConfig grid{};  ///< panels: the systolic grid
};

/// Whether port `p` streams a vector (else a matrix or a result). A
/// solve-order port without a shape is a vector (TRSV's b and x).
inline bool is_vector(const Port& p) {
  return p.kind == PortKind::Vector ||
         (p.kind == PortKind::SolveOrder && p.rows == 0 && p.cols == 0);
}

inline Uplo flip(Uplo u) {
  return u == Uplo::Lower ? Uplo::Upper : Uplo::Lower;
}
inline Transpose flip(Transpose t) {
  return t == Transpose::None ? Transpose::Trans : Transpose::None;
}

/// Channel capacity of a lowered stream: deep enough for two width-
/// batches so producer and consumer never false-stall within a cycle.
inline std::size_t chan_cap(int width) {
  return static_cast<std::size_t>(std::max(64, 2 * width));
}

/// Everything a module needs besides its channels.
template <typename T>
struct Call {
  std::int64_t n = 0;  ///< vector length / TRSV, SYR order
  /// A as stored (GEMV, GER); C (GEMM family); B (TRSM).
  std::int64_t rows = 0, cols = 0;
  std::int64_t k = 0;            ///< GEMM family: the contraction
  T alpha = T(1), beta = T(0);  ///< alpha is SDSDOT's sb
  T c = T(0), s = T(0);         ///< ROT
  ref::RotmParam<T> param{};    ///< ROTM
  Transpose trans = Transpose::None;    ///< op(A)
  Transpose trans_b = Transpose::None;  ///< GEMM: op(B)
  Uplo uplo = Uplo::Lower;              ///< the stored triangle
  Diag diag = Diag::NonUnit;
  Side side = Side::Left;  ///< TRSM
  int width = 16;
  core::MatrixTiling tiling = core::MatrixTiling::TilesByRows;
  std::int64_t tile_rows = 256, tile_cols = 256;
  Order elem_order = Order::RowMajor;
  int pe_rows = 4, pe_cols = 4;  ///< GEMM family: the systolic grid
  std::int64_t gemm_tile_rows = 16, gemm_tile_cols = 16;

  core::GemvConfig gemv() const {
    return {trans, tiling, width, tile_rows, tile_cols, elem_order};
  }
  core::GerConfig ger() const {
    return {tiling, width, tile_rows, tile_cols, elem_order};
  }
  /// The systolic grid; a ConfigError when its tiles do not fit it.
  core::GemmConfig gemm() const {
    const core::GemmConfig g{pe_rows, pe_cols, gemm_tile_rows,
                             gemm_tile_cols};
    g.validate();
    return g;
  }
  /// The transposition of the left-side solve: a right-side solve
  /// X op(A) = B is the left-side solve op(A)^T X^T = B^T.
  Transpose solve_trans() const {
    return side == Side::Left ? trans : flip(trans);
  }
  /// The triangle op(A) occupies in that solve: transposition flips it.
  Uplo op_uplo() const {
    return solve_trans() == Transpose::None ? uplo : flip(uplo);
  }
};

/// Fallback operand views, one per port.
template <typename T>
struct In {
  VectorView<const T> v;
  MatrixView<const T> m;
};
template <typename T>
struct Out {
  VectorView<T> v;
  MatrixView<T> m;
  T* scalar = nullptr;
  std::int64_t* index = nullptr;
};

/// Per-pass values of one stream in double (matrices in row-major
/// storage order): a bound operand read in place, or computed values.
/// `sum` and `asum` are its element-order reductions.
template <typename T>
struct Flow {
  const T* src = nullptr;    ///< bound operand, converted on access
  std::vector<double> vals;  ///< computed values, when src is null
  std::int64_t n = 0;
  double sum = 0.0;
  double asum = 0.0;
  std::int64_t terms = 0;

  double at(std::int64_t i) const {
    return src != nullptr ? static_cast<double>(src[i])
                          : vals[static_cast<std::size_t>(i)];
  }
};

/// Calls `fn` with the flow's values, as `const T*` or `const double*`.
template <typename T, typename Fn>
void with_values(const Flow<T>& f, Fn&& fn) {
  if (f.src != nullptr) {
    fn(f.src);
  } else {
    fn(static_cast<const double*>(f.vals.data()));
  }
}

/// acc[i] = sum_j op(A)(i, j) x[j] for a rows x cols A, every sum in
/// ascending j from 0.0.
template <typename PA, typename PX>
void gemv_sums(Transpose trans, std::int64_t rows, std::int64_t cols,
               const PA* a, const PX* x, double* acc) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  if (trans == Transpose::None) {
    // Four rows' sums side by side.
    std::int64_t i = 0;
    for (; i + 4 <= rows; i += 4) {
      const PA* r = a + i * cols;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) {
        const double xj = d(x[j]);
        s0 += d(r[j]) * xj;
        s1 += d(r[cols + j]) * xj;
        s2 += d(r[2 * cols + j]) * xj;
        s3 += d(r[3 * cols + j]) * xj;
      }
      acc[i] = s0;
      acc[i + 1] = s1;
      acc[i + 2] = s2;
      acc[i + 3] = s3;
    }
    for (; i < rows; ++i) {
      double s = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) s += d(a[i * cols + j]) * d(x[j]);
      acc[i] = s;
    }
  } else {
    // A^T x with the loops interchanged: A is read row by row in storage
    // order, and each output still takes its terms in ascending j.
    std::fill(acc, acc + cols, 0.0);
    for (std::int64_t j = 0; j < rows; ++j) {
      const double xj = d(x[j]);
      const PA* r = a + j * cols;
      for (std::int64_t i = 0; i < cols; ++i) acc[i] += d(r[i]) * xj;
    }
  }
}

/// Offset of op(A)(i, i) in the row-major packing of the `tri` triangle
/// of an n x n op(A) (the Triangular port's Flow).
inline std::int64_t packed_diag(Uplo tri, std::int64_t n, std::int64_t i) {
  return tri == Uplo::Lower ? i * (i + 1) / 2 + i
                            : i * n - i * (i - 1) / 2;
}

/// An ABFT check of a call's outputs at a tolerance scale; throws
/// VerificationError on a mismatch.
using Check = std::function<void(double tol_scale)>;

/// One routine kind's descriptor.
template <typename T>
struct Kind {
  std::vector<Port> (*ports)(const Call<T>&);
  /// The module on channels `ch`, one per port in port order (Index
  /// ports are Channel<std::int64_t>, all others Channel<T>).
  stream::Task (*module)(const Call<T>&, stream::ChannelBase* const* ch);
  /// The refblas reference: reads `in`, one view per input port, and
  /// writes `out`, one per output port. An output whose operand is also
  /// an input holds that input's values on entry (BLAS in-place update).
  void (*fallback)(const Call<T>&, const In<T>* in, const Out<T>* out);
  /// Checked kinds: the prepare pass over the views `in` (run before the
  /// first attempt), returning the check of the outputs `out`. Kinds
  /// whose inputs survive the call only check.
  Check (*verify)(const Call<T>&, const In<T>* in, const Out<T>* out);
  /// Composable kinds: the output stream's values from the input
  /// streams' (`inputs` of them; a missing trailing one is zero).
  void (*predict)(const Call<T>&, const Flow<T>* const* in,
                  std::size_t inputs, Flow<T>& out);
};

namespace detail {

template <typename U>
stream::Channel<U>& at(stream::ChannelBase* const* ch, int k) {
  return static_cast<stream::Channel<U>&>(*ch[k]);
}

inline Port vec(const char* channel, const char* io, int operand,
                std::int64_t len, std::int64_t repeat = 1) {
  Port p;
  p.channel = channel;
  p.io = io;
  p.operand = operand;
  p.len = len;
  p.repeat = repeat;
  return p;
}

inline Port mat(PortKind kind, const char* channel, const char* io,
                int operand, std::int64_t rows, std::int64_t cols,
                stream::TileSchedule sched) {
  Port p = vec(channel, io, operand, 0);
  p.kind = kind;
  p.rows = rows;
  p.cols = cols;
  p.sched = sched;
  return p;
}

inline Port ordered(PortKind kind, const char* channel, const char* io,
                    int operand, std::int64_t n, Uplo uplo,
                    Transpose trans = Transpose::None) {
  Port p = vec(channel, io, operand, n);
  p.kind = kind;
  if (kind == PortKind::Triangular) p.rows = p.cols = n;
  p.uplo = uplo;
  p.trans = trans;
  return p;
}

/// x (and y) in, one 2-deep result out, the result being operand
/// `inputs` (DOT, SDSDOT, NRM2, ASUM, IAMAX).
inline std::vector<Port> reduction_ports(std::int64_t n, int inputs,
                                         PortKind result) {
  std::vector<Port> p{vec("x", "read_x", 0, n)};
  if (inputs == 2) p.push_back(vec("y", "read_y", 1, n));
  Port r = vec("res", "collect", inputs, 1);
  r.kind = result;
  r.depth = 2;
  p.push_back(r);
  return p;
}

/// x and y in, x and y out (ROT, ROTM, SWAP).
inline std::vector<Port> pair_ports(std::int64_t n) {
  return {vec("x", "read_x", 0, n), vec("y", "read_y", 1, n),
          vec("ox", "write_x", 0, n), vec("oy", "write_y", 1, n)};
}

/// The setup routines' host values: `in` values in, `out` values out.
inline std::vector<Port> setup_ports(const char* in, const char* out,
                                     std::int64_t n_in, std::int64_t n_out) {
  Port i = vec(in, "feed", 0, n_in);
  i.depth = 4;
  Port o = vec(out, "collect", 0, n_out);
  o.depth = 8;
  return {i, o};
}

/// A, x replayed by rows and by columns (and the same for y), then A's
/// `uplo` triangle out (SYR, SYR2; the operands are x, (y,) A).
template <typename T>
std::vector<Port> rank_update_ports(const Call<T>& c, bool two) {
  const core::GerConfig cfg = c.ger();
  const std::int64_t row = core::ger_x_repeat(cfg, c.n, c.n);
  const std::int64_t col = core::ger_y_repeat(cfg, c.n, c.n);
  std::vector<Port> p{mat(PortKind::Matrix, "A", "read_A", two ? 2 : 1, c.n,
                          c.n, core::ger_a_schedule(cfg)),
                      vec("x_row", "read_x_row", 0, c.n, row),
                      vec("x_col", "read_x_col", 0, c.n, col)};
  if (two) {
    p.push_back(vec("y_row", "read_y_row", 1, c.n, row));
    p.push_back(vec("y_col", "read_y_col", 1, c.n, col));
  }
  Port out = p[0];
  out.kind = PortKind::UploMatrix;
  out.channel = "out";
  out.io = "write_A";
  out.uplo = c.uplo;
  p.push_back(out);
  return p;
}

/// A GEMM-family panel stream of the stored matrix whose op(X) (by
/// `trans`) is op_rows x op_cols, for a C with `other` columns (PanelA)
/// or rows (PanelB) on grid `g`.
inline Port panel(PortKind kind, const char* channel, const char* io,
                  int operand, std::int64_t op_rows, std::int64_t op_cols,
                  Transpose trans, std::int64_t other,
                  const core::GemmConfig& g) {
  const bool t = trans == Transpose::Trans;
  Port p = mat(kind, channel, io, operand, t ? op_cols : op_rows,
               t ? op_rows : op_cols, {});
  p.len = other;
  p.trans = trans;
  p.grid = g;
  p.depth = static_cast<std::int64_t>(
      chan_cap((kind == PortKind::PanelA ? g.pe_rows : g.pe_cols) * 4));
  return p;
}

/// C of a GEMM-family call on grid `g`, in the drain's tile order at
/// pe_cols elements per cycle.
template <typename T>
Port c_port(const Call<T>& c, PortKind kind, const char* channel,
            const char* io, int operand, const core::GemmConfig& g) {
  Port p = mat(kind, channel, io, operand, c.rows, c.cols,
               core::gemm_c_schedule(g));
  p.uplo = c.uplo;
  p.width = g.pe_cols;
  p.depth = static_cast<std::int64_t>(chan_cap(g.pe_cols * 4));
  return p;
}

/// The GEMM family's `panels`, then C (operand `operand`) in, a channel
/// without a reader when beta is 0, then C out, whole or (`out` ==
/// UploMatrix) only its `uplo` triangle.
template <typename T>
std::vector<Port> with_c(const Call<T>& c, std::vector<Port> panels,
                         int operand, PortKind out,
                         const core::GemmConfig& g) {
  Port in = c_port(c, PortKind::Matrix, "Cin", "read_C", operand, g);
  if (c.beta == T(0)) in.repeat = 0;
  panels.push_back(in);
  panels.push_back(c_port(c, out, "out", "store_C", operand, g));
  return panels;
}

/// A (and B) as op(A)'s column segments, then as op(A)^T's row segments,
/// then C's `uplo` triangle (SYRK, SYR2K; the operands are A, (B,) C).
template <typename T>
std::vector<Port> rank_k_ports(const Call<T>& c, bool two) {
  const core::GemmConfig g = c.gemm();
  const Transpose t = flip(c.trans);
  std::vector<Port> p{panel(PortKind::PanelA, two ? "Acol" : "A", "read_A",
                            0, c.rows, c.k, c.trans, c.cols, g)};
  if (two) {
    p.push_back(panel(PortKind::PanelA, "Bcol", "read_B", 1, c.rows, c.k,
                      c.trans, c.cols, g));
  }
  p.push_back(panel(PortKind::PanelB, two ? "Atrow" : "At", "read_At", 0,
                    c.k, c.cols, t, c.rows, g));
  if (two) {
    p.push_back(panel(PortKind::PanelB, "Btrow", "read_Bt", 1, c.k, c.cols,
                      t, c.rows, g));
  }
  return with_c(c, std::move(p), two ? 2 : 1, PortKind::UploMatrix, g);
}

/// The GEMM module, C = alpha op(A) op(B) + beta C for a rows x cols C;
/// SYRK runs it with op(B) = op(A)^T.
template <typename T>
stream::Task gemm_module(const Call<T>& c, stream::ChannelBase* const* ch) {
  return core::gemm<T>(c.gemm(), c.rows, c.cols, c.k, c.alpha, c.beta,
                       at<T>(ch, 0), at<T>(ch, 1), at<T>(ch, 2),
                       at<T>(ch, 3));
}

/// The check comparing sum(v) with a prepared checksum.
template <typename T>
Check sum_check(const verify::ScalarCheck& chk, const char* routine,
                VectorView<const T> v) {
  return [chk, routine, v](double s) {
    verify::check_sum<T>(chk, routine, v, s);
  };
}

/// The check of both vectors a pair kind writes (ROT, SWAP).
template <typename T>
Check pair_check(const verify::PairCheck& chk, const char* x_name,
                 const char* y_name, const Out<T>* o) {
  return [chk, x_name, y_name, x = VectorView<const T>(o[0].v),
          y = VectorView<const T>(o[1].v)](double s) {
    verify::check_sum<T>(chk.x, x_name, x, s);
    verify::check_sum<T>(chk.y, y_name, y, s);
  };
}

/// The check comparing the row sums of m's stored part with prepared
/// checksums.
template <typename T>
Check rowsum_check(verify::RowSumCheck chk, const char* routine,
                   MatrixView<const T> m) {
  return [chk = std::move(chk), routine, m](double s) {
    verify::check_rowsums<T>(chk, routine, m, s);
  };
}

template <typename T>
constexpr std::array<Kind<T>, kRoutineCount> table() {
  using C = const Call<T>&;
  using Ch = stream::ChannelBase* const*;
  using Ins = const In<T>*;
  using Outs = const Out<T>*;
  using Flows = const Flow<T>* const*;
  return {{
      // Rotg
      {[](C) { return setup_ports("ab", "rzcs", 2, 4); },
       [](C, Ch k) { return core::rotg<T>(at<T>(k, 0), at<T>(k, 1)); },
       nullptr, nullptr, nullptr},
      // Rotmg
      {[](C) { return setup_ports("in", "out", 4, 8); },
       [](C, Ch k) { return core::rotmg<T>(at<T>(k, 0), at<T>(k, 1)); },
       nullptr, nullptr, nullptr},
      // Rot
      {[](C c) { return pair_ports(c.n); },
       [](C c, Ch k) {
         return core::rot<T>({c.width}, c.n, c.c, c.s, at<T>(k, 0),
                             at<T>(k, 1), at<T>(k, 2), at<T>(k, 3));
       },
       [](C c, Ins, Outs o) { ref::rot(o[0].v, o[1].v, c.c, c.s); },
       [](C c, Ins i, Outs o) {
         return pair_check<T>(verify::rot_prepare<T>(i[0].v, i[1].v, c.c, c.s),
                              "rot(x)", "rot(y)", o);
       },
       nullptr},
      // Rotm
      {[](C c) { return pair_ports(c.n); },
       [](C c, Ch k) {
         return core::rotm<T>({c.width}, c.n, c.param, at<T>(k, 0),
                              at<T>(k, 1), at<T>(k, 2), at<T>(k, 3));
       },
       [](C c, Ins, Outs o) { ref::rotm(o[0].v, o[1].v, c.param); },
       // No checker: the modified rotation's flag cases have no single
       // linear checksum identity (fault detection still covers it).
       nullptr, nullptr},
      // Swap
      {[](C c) { return pair_ports(c.n); },
       [](C c, Ch k) {
         return core::swap<T>({c.width}, c.n, at<T>(k, 0), at<T>(k, 1),
                              at<T>(k, 2), at<T>(k, 3));
       },
       [](C, Ins, Outs o) { ref::swap(o[0].v, o[1].v); },
       [](C, Ins i, Outs o) {
         return pair_check<T>(verify::swap_prepare<T>(i[0].v, i[1].v),
                              "swap(x)", "swap(y)", o);
       },
       nullptr},
      // Scal
      {[](C c) {
         return std::vector<Port>{vec("x", "read_x", 0, c.n),
                                  vec("out", "write_x", 0, c.n)};
       },
       [](C c, Ch k) {
         return core::scal<T>({c.width}, c.n, c.alpha, at<T>(k, 0),
                              at<T>(k, 1));
       },
       [](C c, Ins, Outs o) { ref::scal(c.alpha, o[0].v); },
       [](C c, Ins i, Outs o) {
         return sum_check<T>(verify::scal_prepare<T>(c.alpha, i[0].v), "scal",
                             o[0].v);
       },
       [](C c, Flows in, std::size_t, Flow<T>& out) {
         const Flow<T>& xf = *in[0];
         const double alpha = static_cast<double>(c.alpha);
         out.vals.resize(static_cast<std::size_t>(xf.n));
         double* o = out.vals.data();
         with_values(xf, [&](const auto* xv) {
           for (std::int64_t i = 0; i < xf.n; ++i) {
             o[i] = alpha * static_cast<double>(xv[i]);
           }
         });
         out.terms = xf.terms;
       }},
      // Copy
      {[](C c) {
         return std::vector<Port>{vec("x", "read_x", 0, c.n),
                                  vec("out", "write_y", 1, c.n)};
       },
       [](C c, Ch k) {
         return core::copy<T>({c.width}, c.n, at<T>(k, 0), at<T>(k, 1));
       },
       [](C, Ins i, Outs o) { ref::copy(i[0].v, o[0].v); },
       [](C, Ins i, Outs o) {
         return sum_check<T>(verify::copy_prepare<T>(i[0].v), "copy", o[0].v);
       },
       nullptr},
      // Axpy
      {[](C c) {
         return std::vector<Port>{vec("x", "read_x", 0, c.n),
                                  vec("y", "read_y", 1, c.n),
                                  vec("out", "write_y", 1, c.n)};
       },
       [](C c, Ch k) {
         return core::axpy<T>({c.width}, c.n, c.alpha, at<T>(k, 0),
                              at<T>(k, 1), at<T>(k, 2));
       },
       [](C c, Ins i, Outs o) { ref::axpy(c.alpha, i[0].v, o[0].v); },
       [](C c, Ins i, Outs o) {
         return sum_check<T>(verify::axpy_prepare<T>(c.alpha, i[0].v, i[1].v),
                             "axpy", o[0].v);
       },
       [](C c, Flows in, std::size_t, Flow<T>& out) {
         const Flow<T>& xf = *in[0];
         const Flow<T>& yf = *in[1];
         const double alpha = static_cast<double>(c.alpha);
         out.vals.resize(static_cast<std::size_t>(xf.n));
         double* o = out.vals.data();
         with_values(xf, [&](const auto* xv) {
           with_values(yf, [&](const auto* yv) {
             for (std::int64_t i = 0; i < xf.n; ++i) {
               o[i] = alpha * static_cast<double>(xv[i]) +
                      static_cast<double>(yv[i]);
             }
           });
         });
         out.terms = xf.terms + yf.terms;
       }},
      // Dot
      {[](C c) { return reduction_ports(c.n, 2, PortKind::Scalar); },
       [](C c, Ch k) {
         return core::dot<T>({c.width}, c.n, at<T>(k, 0), at<T>(k, 1),
                             at<T>(k, 2));
       },
       [](C, Ins i, Outs o) { *o[0].scalar = ref::dot(i[0].v, i[1].v); },
       // The inputs survive the call: the check recomputes the reduction
       // in double after the fact.
       [](C, Ins i, Outs o) -> Check {
         return [x = i[0].v, y = i[1].v, r = o[0].scalar](double s) {
           verify::dot_check<T>(x, y, *r, s);
         };
       },
       [](C, Flows in, std::size_t, Flow<T>& out) {
         const Flow<T>& xf = *in[0];
         const Flow<T>& yf = *in[1];
         double acc = 0.0;
         with_values(xf, [&](const auto* xv) {
           with_values(yf, [&](const auto* yv) {
             for (std::int64_t i = 0; i < xf.n; ++i) {
               acc += static_cast<double>(xv[i]) * static_cast<double>(yv[i]);
             }
           });
         });
         out.vals = {acc};
         out.terms = xf.terms + yf.terms + xf.n;
       }},
      // Sdsdot (single precision only; alpha carries sb)
      {[](C c) { return reduction_ports(c.n, 2, PortKind::Scalar); },
       [](C c, Ch k) -> stream::Task {
         if constexpr (std::is_same_v<T, float>) {
           return core::sdsdot({c.width}, c.n, c.alpha, at<T>(k, 0),
                               at<T>(k, 1), at<T>(k, 2));
         } else {
           throw ConfigError("sdsdot is a single-precision routine");
         }
       },
       [](C c, Ins i, Outs o) {
         if constexpr (std::is_same_v<T, float>) {
           *o[0].scalar = ref::sdsdot(c.alpha, i[0].v, i[1].v);
         }
       },
       // No checker: the mixed-precision accumulation has no tight
       // double-precision bound (fault detection still covers it).
       nullptr, nullptr},
      // Nrm2
      {[](C c) { return reduction_ports(c.n, 1, PortKind::Scalar); },
       [](C c, Ch k) {
         return core::nrm2<T>({c.width}, c.n, at<T>(k, 0), at<T>(k, 1));
       },
       [](C, Ins i, Outs o) { *o[0].scalar = ref::nrm2(i[0].v); },
       [](C, Ins i, Outs o) -> Check {
         return [x = i[0].v, r = o[0].scalar](double s) {
           verify::nrm2_check<T>(x, *r, s);
         };
       },
       nullptr},
      // Asum
      {[](C c) { return reduction_ports(c.n, 1, PortKind::Scalar); },
       [](C c, Ch k) {
         return core::asum<T>({c.width}, c.n, at<T>(k, 0), at<T>(k, 1));
       },
       [](C, Ins i, Outs o) { *o[0].scalar = ref::asum(i[0].v); },
       [](C, Ins i, Outs o) -> Check {
         return [x = i[0].v, r = o[0].scalar](double s) {
           verify::asum_check<T>(x, *r, s);
         };
       },
       nullptr},
      // Iamax
      {[](C c) { return reduction_ports(c.n, 1, PortKind::Index); },
       [](C c, Ch k) {
         return core::iamax<T>({c.width}, c.n, at<T>(k, 0),
                               at<std::int64_t>(k, 1));
       },
       [](C, Ins i, Outs o) { *o[0].index = ref::iamax(i[0].v); },
       [](C, Ins i, Outs o) -> Check {
         return [x = i[0].v, r = o[0].index](double) {
           verify::iamax_check<T>(x, *r);
         };
       },
       nullptr},
      // Gemv: y = alpha op(A) x + beta y0
      {[](C c) {
         const core::GemvConfig cfg = c.gemv();
         const bool t = c.trans == Transpose::Trans;
         const std::int64_t xlen = t ? c.rows : c.cols;
         const std::int64_t ylen = t ? c.cols : c.rows;
         return std::vector<Port>{
             mat(PortKind::Matrix, "A", "read_A", 0, c.rows, c.cols,
                 core::gemv_a_schedule(cfg)),
             vec("x", "read_x", 1, xlen,
                 core::gemv_x_repeat(cfg, c.rows, c.cols)),
             vec("y", "read_y", 2, ylen), vec("out", "write_y", 2, ylen)};
       },
       [](C c, Ch k) {
         return core::gemv<T>(c.gemv(), c.rows, c.cols, c.alpha, c.beta,
                              at<T>(k, 0), at<T>(k, 1), at<T>(k, 2),
                              at<T>(k, 3));
       },
       [](C c, Ins i, Outs o) {
         ref::gemv(c.trans, c.alpha, i[0].m, i[1].v, c.beta, o[0].v);
       },
       [](C c, Ins i, Outs o) {
         return sum_check<T>(verify::gemv_prepare<T>(c.trans, c.rows, c.cols,
                                                     c.alpha, i[0].m, i[1].v,
                                                     c.beta, i[2].v),
                             "gemv", o[0].v);
       },
       [](C c, Flows in, std::size_t inputs, Flow<T>& out) {
         const std::int64_t on = c.trans == Transpose::None ? c.rows : c.cols;
         const Flow<T>& af = *in[0];
         const Flow<T>& xf = *in[1];
         const double alpha = static_cast<double>(c.alpha);
         const double beta = static_cast<double>(c.beta);
         out.vals.resize(static_cast<std::size_t>(on));
         double* acc = out.vals.data();
         with_values(af, [&](const auto* av) {
           with_values(xf, [&](const auto* xv) {
             gemv_sums(c.trans, c.rows, c.cols, av, xv, acc);
           });
         });
         if (inputs == 3) {
           with_values(*in[2], [&](const auto* y0) {
             for (std::int64_t i = 0; i < on; ++i) {
               acc[i] = alpha * acc[i] + beta * static_cast<double>(y0[i]);
             }
           });
         } else {
           // A zero y0 still adds its term: it turns a -0.0 into +0.0,
           // as the streamed module does.
           for (std::int64_t i = 0; i < on; ++i) {
             acc[i] = alpha * acc[i] + beta * 0.0;
           }
         }
         out.terms = c.rows * c.cols + af.terms + xf.terms +
                     (inputs == 3 ? in[2]->terms : on);
       }},
      // Trsv: solves op(A) x = b; A streams as op(A)'s triangle
      {[](C c) {
         const Uplo tri = c.op_uplo();
         return std::vector<Port>{
             ordered(PortKind::Triangular, "A", "read_A", 0, c.n, tri,
                     c.trans),
             ordered(PortKind::SolveOrder, "b", "read_b", 1, c.n, tri),
             ordered(PortKind::SolveOrder, "x", "write_x", 1, c.n, tri)};
       },
       [](C c, Ch k) {
         return core::trsv<T>({c.op_uplo(), c.diag, c.width}, c.n,
                              at<T>(k, 0), at<T>(k, 1), at<T>(k, 2));
       },
       [](C c, Ins i, Outs o) {
         ref::trsv(c.uplo, c.trans, c.diag, i[0].m, o[0].v);
       },
       // Residual check: e^T b before the solve overwrites it with x;
       // afterwards e^T (op(A) x) must reproduce it.
       [](C c, Ins i, Outs o) -> Check {
         return [chk = verify::trsv_prepare<T>(c.n, i[1].v), c, a = i[0].m,
                 x = VectorView<const T>(o[0].v)](double s) {
           verify::trsv_check<T>(chk, c.uplo, c.trans, c.diag, c.n, a, x, s);
         };
       },
       [](C c, Flows in, std::size_t, Flow<T>& out) {
         // Re-solve in double over the packed triangle of op(A).
         const std::int64_t n = c.n;
         const Flow<T>& af = *in[0];
         const Flow<T>& bf = *in[1];
         const Uplo tri = c.op_uplo();
         out.vals.assign(static_cast<std::size_t>(n), 0.0);
         for (std::int64_t k = 0; k < n; ++k) {
           const std::int64_t i = tri == Uplo::Lower ? k : n - 1 - k;
           const std::int64_t j0 = tri == Uplo::Lower ? 0 : i + 1;
           const std::int64_t j1 = tri == Uplo::Lower ? i : n;
           const std::int64_t d = packed_diag(tri, n, i);
           double acc = bf.at(i);
           for (std::int64_t j = j0; j < j1; ++j) {
             acc -= af.at(d + j - i) * out.vals[static_cast<std::size_t>(j)];
           }
           out.vals[static_cast<std::size_t>(i)] =
               c.diag == Diag::Unit ? acc : acc / af.at(d);
         }
         out.terms = n * n + bf.terms;
       }},
      // Ger: A = A0 + alpha x y^T (operands x, y, A)
      {[](C c) {
         const core::GerConfig cfg = c.ger();
         const stream::TileSchedule sched = core::ger_a_schedule(cfg);
         return std::vector<Port>{
             mat(PortKind::Matrix, "A", "read_A", 2, c.rows, c.cols, sched),
             vec("x", "read_x", 0, c.rows,
                 core::ger_x_repeat(cfg, c.rows, c.cols)),
             vec("y", "read_y", 1, c.cols,
                 core::ger_y_repeat(cfg, c.rows, c.cols)),
             mat(PortKind::Matrix, "out", "write_A", 2, c.rows, c.cols,
                 sched)};
       },
       [](C c, Ch k) {
         return core::ger<T>(c.ger(), c.rows, c.cols, c.alpha, at<T>(k, 0),
                             at<T>(k, 1), at<T>(k, 2), at<T>(k, 3));
       },
       [](C c, Ins i, Outs o) { ref::ger(c.alpha, i[1].v, i[2].v, o[0].m); },
       [](C c, Ins i, Outs o) {
         return rowsum_check<T>(verify::ger_prepare<T>(c.rows, c.cols, c.alpha,
                                                       i[1].v, i[2].v, i[0].m),
                                "ger", o[0].m);
       },
       [](C c, Flows in, std::size_t, Flow<T>& out) {
         const Flow<T>& af = *in[0];
         const Flow<T>& xf = *in[1];
         const Flow<T>& yf = *in[2];
         const double alpha = static_cast<double>(c.alpha);
         out.vals.resize(static_cast<std::size_t>(c.rows * c.cols));
         double* o = out.vals.data();
         with_values(af, [&](const auto* av) {
           with_values(yf, [&](const auto* yv) {
             for (std::int64_t i = 0; i < c.rows; ++i) {
               const double ax = alpha * xf.at(i);
               const auto* ar = av + i * c.cols;
               double* orow = o + i * c.cols;
               for (std::int64_t j = 0; j < c.cols; ++j) {
                 orow[j] = static_cast<double>(ar[j]) +
                           ax * static_cast<double>(yv[j]);
               }
             }
           });
         });
         out.terms = af.terms + xf.terms * yf.terms;
       }},
      // Syr: the uplo triangle of A += alpha x x^T
      {[](C c) { return rank_update_ports(c, false); },
       [](C c, Ch k) {
         return core::syr<T>(c.ger(), c.n, c.alpha, at<T>(k, 0), at<T>(k, 1),
                             at<T>(k, 2), at<T>(k, 3));
       },
       [](C c, Ins i, Outs o) { ref::syr(c.uplo, c.alpha, i[1].v, o[0].m); },
       [](C c, Ins i, Outs o) {
         return rowsum_check<T>(
             verify::syr_prepare<T>(c.uplo, c.n, c.alpha, i[1].v, i[0].m),
             "syr", o[0].m);
       },
       nullptr},
      // Syr2: the uplo triangle of A += alpha (x y^T + y x^T)
      {[](C c) { return rank_update_ports(c, true); },
       [](C c, Ch k) {
         return core::syr2<T>(c.ger(), c.n, c.alpha, at<T>(k, 0),
                              at<T>(k, 1), at<T>(k, 2), at<T>(k, 3),
                              at<T>(k, 4), at<T>(k, 5));
       },
       [](C c, Ins i, Outs o) {
         ref::syr2(c.uplo, c.alpha, i[1].v, i[3].v, o[0].m);
       },
       [](C c, Ins i, Outs o) {
         return rowsum_check<T>(verify::syr2_prepare<T>(c.uplo, c.n, c.alpha,
                                                        i[1].v, i[3].v, i[0].m),
                                "syr2", o[0].m);
       },
       nullptr},
      // Gemm: C = alpha op(A) op(B) + beta C (operands A, B, C)
      {[](C c) {
         const core::GemmConfig g = c.gemm();
         return with_c(c,
                       {panel(PortKind::PanelA, "A", "read_A", 0, c.rows, c.k,
                              c.trans, c.cols, g),
                        panel(PortKind::PanelB, "B", "read_B", 1, c.k, c.cols,
                              c.trans_b, c.rows, g)},
                       2, PortKind::Matrix, g);
       },
       gemm_module<T>,
       [](C c, Ins i, Outs o) {
         ref::gemm(c.trans, c.trans_b, c.alpha, i[0].m, i[1].m, c.beta,
                   o[0].m);
       },
       [](C c, Ins i, Outs o) -> Check {
         return [chk = verify::gemm_prepare<T>(c.trans, c.trans_b, c.rows,
                                               c.cols, c.k, c.alpha, i[0].m,
                                               i[1].m, c.beta, i[2].m),
                 m = MatrixView<const T>(o[0].m)](double s) {
           verify::gemm_check<T>(chk, m, s);
         };
       },
       nullptr},
      // Syrk: the uplo triangle of C = alpha op(A) op(A)^T + beta C, on
      // the GEMM module (Sec. VI: specialized routines are implemented in
      // terms of the generic ones)
      {[](C c) { return rank_k_ports(c, false); }, gemm_module<T>,
       [](C c, Ins i, Outs o) {
         ref::syrk(c.uplo, c.trans, c.alpha, i[0].m, c.beta, o[0].m);
       },
       [](C c, Ins i, Outs o) {
         return rowsum_check<T>(
             verify::syrk_prepare<T>(c.uplo, c.trans, c.rows, c.k, c.alpha,
                                     i[0].m, c.beta, i[2].m),
             "syrk", o[0].m);
       },
       nullptr},
      // Syr2k: the uplo triangle of
      // C = alpha (op(A) op(B)^T + op(B) op(A)^T) + beta C
      {[](C c) { return rank_k_ports(c, true); },
       [](C c, Ch k) {
         return core::syr2k<T>(c.gemm(), c.rows, c.k, c.alpha, c.beta,
                               at<T>(k, 0), at<T>(k, 1), at<T>(k, 2),
                               at<T>(k, 3), at<T>(k, 4), at<T>(k, 5));
       },
       [](C c, Ins i, Outs o) {
         ref::syr2k(c.uplo, c.trans, c.alpha, i[0].m, i[1].m, c.beta,
                    o[0].m);
       },
       [](C c, Ins i, Outs o) {
         return rowsum_check<T>(
             verify::syr2k_prepare<T>(c.uplo, c.trans, c.rows, c.k, c.alpha,
                                      i[0].m, i[1].m, c.beta, i[4].m),
             "syr2k", o[0].m);
       },
       nullptr},
      // Trsm: solves op(A) X = alpha B (left) or X op(A) = alpha B (right)
      // for a rows x cols B, overwritten by X. The right side is the left
      // solve of op(A)^T X^T = alpha B^T: B and X stream transposed.
      {[](C c) {
         const bool left = c.side == Side::Left;
         const Uplo tri = c.op_uplo();
         Port b = ordered(PortKind::SolveOrder, "B", "read_B", 1, 0, tri,
                          left ? Transpose::None : Transpose::Trans);
         b.rows = c.rows;
         b.cols = c.cols;
         Port x = b;
         x.channel = "X";
         x.io = "write_X";
         return std::vector<Port>{
             ordered(PortKind::Triangular, "A", "read_A", 0,
                     left ? c.rows : c.cols, tri, c.solve_trans()),
             b, x};
       },
       [](C c, Ch k) {
         const bool left = c.side == Side::Left;
         return core::trsm<T>({c.op_uplo(), c.diag, c.width},
                              left ? c.rows : c.cols, left ? c.cols : c.rows,
                              c.alpha, at<T>(k, 0), at<T>(k, 1), at<T>(k, 2));
       },
       [](C c, Ins i, Outs o) {
         ref::trsm(c.side, c.uplo, c.trans, c.diag, c.alpha, i[0].m, o[0].m);
       },
       // Residual check: the right-hand sides' checksums alpha (B e)
       // before the solve overwrites B with X; afterwards op(A) (X e)
       // must reproduce them.
       [](C c, Ins i, Outs o) -> Check {
         return [chk = verify::trsm_prepare<T>(c.side, c.rows, c.cols,
                                               c.alpha, i[1].m),
                 c, a = i[0].m, x = MatrixView<const T>(o[0].m)](double s) {
           verify::trsm_check<T>(chk, c.side, c.uplo, c.trans, c.diag, c.rows,
                                 c.cols, a, x, s);
         };
       },
       nullptr},
  }};
}

}  // namespace detail

/// The descriptor of `kind`.
template <typename T>
const Kind<T>& kind_of(RoutineKind kind) {
  static constexpr std::array<Kind<T>, kRoutineCount> kTable =
      detail::table<T>();
  return kTable[static_cast<std::size_t>(kind)];
}

/// One channel per port of a single call, in port order.
template <typename T>
std::vector<stream::ChannelBase*> make_channels(stream::Graph& g,
                                                const std::vector<Port>& ports,
                                                int width) {
  std::vector<stream::ChannelBase*> ch;
  for (const Port& p : ports) {
    const std::size_t depth =
        p.depth > 0 ? static_cast<std::size_t>(p.depth) : chan_cap(width);
    if (p.kind == PortKind::Index) {
      ch.push_back(&g.channel<std::int64_t>(p.channel, depth));
    } else {
      ch.push_back(&g.channel<T>(p.channel, depth));
    }
  }
  return ch;
}

/// Host values in, host values out: what a fed graph collects.
template <typename T>
struct Fed {
  std::vector<std::vector<T>> out;  ///< per output port
  std::vector<std::int64_t> index;
};

/// Feeds `in[k]` into input port k, then the module, then one collector
/// per output port: the graph of a scalar setup routine and of a
/// generated design run by codegen::run_level1.
template <typename T>
void build_fed(stream::Graph& g, RoutineKind kind, const Call<T>& c,
               const std::string& module, std::vector<std::vector<T>> in,
               Fed<T>& res) {
  const Kind<T>& k = kind_of<T>(kind);
  const std::vector<Port> ports = k.ports(c);
  const auto ch = make_channels<T>(g, ports, c.width);
  const int inputs = routine_info(kind).inputs;
  for (int p = 0; p < inputs; ++p) {
    g.spawn(std::string("feed_") + ports[p].channel,
            stream::feed(std::move(in[p]), detail::at<T>(ch.data(), p)));
  }
  g.spawn(module, k.module(c, ch.data()));
  res.out.resize(ports.size() - inputs);
  for (int p = inputs; p < static_cast<int>(ports.size()); ++p) {
    const std::string name = std::string("collect_") + ports[p].channel;
    if (ports[p].kind == PortKind::Index) {
      g.spawn(name, stream::collect<std::int64_t>(
                        1, detail::at<std::int64_t>(ch.data(), p), res.index));
    } else {
      g.spawn(name, stream::collect<T>(ports[p].len,
                                       detail::at<T>(ch.data(), p),
                                       res.out[p - inputs]));
    }
  }
}

}  // namespace fblas::host::kinds
