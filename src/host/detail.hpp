// Internal helpers shared by the host-API routine lowerings: DDR banks,
// the solve-order and uplo-masked streamers, the reader/writer of a
// module port (host/kinds.hpp), and the single-call builder every
// Level-1/2/3 routine lowers through.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/routines.hpp"
#include "common/types.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "host/device.hpp"
#include "host/kinds.hpp"
#include "sim/frequency_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"

namespace fblas::host::detail {

/// DDR banks of the simulated device registered with a graph. In cycle
/// mode every reader/writer is metered against the bank its buffer lives
/// on; bank contention (several interfaces on one bank) emerges naturally.
class BankSet {
 public:
  BankSet(stream::Graph& g, const Device& dev, double freq_mhz) {
    const double bytes_per_cycle =
        dev.spec().bank_bandwidth_gbs * 1e9 / (freq_mhz * 1e6);
    for (int b = 0; b < dev.bank_count(); ++b) {
      banks_.push_back(&g.bank("ddr" + std::to_string(b), bytes_per_cycle));
    }
  }
  stream::DramBank* at(int bank) {
    return banks_[static_cast<std::size_t>(bank)];
  }

 private:
  std::vector<stream::DramBank*> banks_;
};

/// Stores a matrix stream but only keeps the `uplo` triangle (used by the
/// SYR/SYR2 lowerings, whose generic modules update the full square).
template <typename T>
stream::Task write_matrix_uplo(MatrixView<T> A, stream::TileSchedule sched,
                               Uplo uplo, int width, stream::Channel<T>& in,
                               stream::DramBank* bank = nullptr) {
  stream::TileWalker walk(A.rows(), A.cols(), sched);
  std::int64_t remaining = walk.total();
  int in_cycle = 0;
  while (remaining > 0) {
    std::int64_t i = 0, j = 0;
    walk.next(i, j);
    const T v = co_await in.pop();
    const bool keep = uplo == Uplo::Lower ? j <= i : j >= i;
    if (keep) {
      if (bank != nullptr) {
        while (bank->grant_elems(1, sizeof(T)) == 0) {
          co_await stream::next_cycle();
        }
      }
      A(i, j) = v;
    }
    --remaining;
    if (++in_cycle == width) {
      in_cycle = 0;
      co_await stream::next_cycle();
    }
  }
}

/// Streams matrix rows in solve order, reversed for Upper solves (TRSM's
/// B operand; a one-column view with ld = inc is a TRSV vector). With
/// `trans` it streams the rows of B^T, B's columns, in place.
template <typename T>
stream::Task read_rows_solve_order(MatrixView<const T> B, Uplo uplo,
                                   Transpose trans, int width,
                                   stream::Channel<T>& out,
                                   stream::DramBank* bank = nullptr) {
  const bool t = trans == Transpose::Trans;
  const std::int64_t m = t ? B.cols() : B.rows();
  const std::int64_t n = t ? B.rows() : B.cols();
  int in_cycle = 0;
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n; ++c) {
      if (bank != nullptr) {
        while (bank->grant_elems(1, sizeof(T)) == 0) {
          co_await stream::next_cycle();
        }
      }
      co_await out.push(t ? B(c, i) : B(i, c));
      if (++in_cycle == width) {
        in_cycle = 0;
        co_await stream::next_cycle();
      }
    }
  }
  co_await stream::next_cycle();
}

/// Stores solve-order rows back in natural order (TRSM's X, TRSV's x),
/// with `trans` as the rows of X^T.
template <typename T>
stream::Task write_rows_solve_order(MatrixView<T> X, Uplo uplo,
                                    Transpose trans, int width,
                                    stream::Channel<T>& in,
                                    stream::DramBank* bank = nullptr) {
  const bool t = trans == Transpose::Trans;
  const std::int64_t m = t ? X.cols() : X.rows();
  const std::int64_t n = t ? X.rows() : X.cols();
  int in_cycle = 0;
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n; ++c) {
      const T v = co_await in.pop();
      if (bank != nullptr) {
        while (bank->grant_elems(1, sizeof(T)) == 0) {
          co_await stream::next_cycle();
        }
      }
      (t ? X(c, i) : X(i, c)) = v;
      if (++in_cycle == width) {
        in_cycle = 0;
        co_await stream::next_cycle();
      }
    }
  }
}

using kinds::chan_cap;

/// Steers an injected silent corruption of an n x n triangular output onto
/// the written (`uplo`) triangle: the injector's raw byte draw is folded
/// onto a triangle element and the damage lands on that element's last
/// (sign/exponent) byte. Without this the draw can fall in the preserved
/// opposite triangle, which the routine never writes — damage no checker
/// could, or should, detect.
inline std::uint64_t steer_triangular(Uplo uplo, std::int64_t n,
                                      std::uint64_t elem, std::uint64_t raw,
                                      std::uint64_t size) {
  const std::uint64_t un = static_cast<std::uint64_t>(n);
  const std::uint64_t tri = un * (un + 1) / 2;
  if (tri == 0 || size == 0) return 0;
  std::uint64_t t = (raw / elem) % tri;
  // Row i of the triangle holds i+1 (Lower) or n-i (Upper) elements.
  std::uint64_t i = 0;
  for (std::uint64_t len = uplo == Uplo::Lower ? 1 : un; t >= len;
       ++i, len = uplo == Uplo::Lower ? len + 1 : len - 1) {
    t -= len;
  }
  const std::uint64_t j = uplo == Uplo::Lower ? t : i + t;
  const std::uint64_t off = (i * un + j) * elem + (elem - 1);
  return off < size ? off : size - 1;
}

/// A strided vector as the one-column matrix the solve-order streamers
/// walk.
template <typename T>
MatrixView<T> column(VectorView<T> v) {
  return MatrixView<T>(v.data(), v.size(), 1, v.inc());
}

/// The reader streaming port `p` of `buf` (strided by `inc`) into `out`,
/// `width` elements per cycle unless the port sets its own.
template <typename T>
stream::Task read_port(const kinds::Port& p, const Buffer<T>& buf,
                       std::int64_t inc, int width, stream::Channel<T>& out,
                       BankSet& banks) {
  stream::DramBank* bank = banks.at(buf.bank());
  const int w = p.width > 0 ? p.width : width;
  switch (p.kind) {
    case kinds::PortKind::Matrix:
      return stream::read_matrix<T>(buf.cmat(p.rows, p.cols), p.sched,
                                    p.repeat, w, out, bank);
    case kinds::PortKind::Triangular:
      return core::read_triangular<T>(buf.cmat(p.rows, p.cols), p.uplo, w,
                                      out, bank, p.trans);
    case kinds::PortKind::SolveOrder:
      return read_rows_solve_order<T>(
          kinds::is_vector(p) ? column(buf.cvec(p.len, inc))
                              : buf.cmat(p.rows, p.cols),
          p.uplo, p.trans, w, out, bank);
    case kinds::PortKind::PanelA:
      return core::read_a_gemm<T>(buf.cmat(p.rows, p.cols), p.grid, p.len,
                                  out, bank, p.trans);
    case kinds::PortKind::PanelB:
      return core::read_b_gemm<T>(buf.cmat(p.rows, p.cols), p.grid, p.len,
                                  out, bank, p.trans);
    default:
      return stream::read_vector<T>(buf.cvec(p.len, inc), p.repeat, w, out,
                                    bank);
  }
}

/// The writer storing port `p`'s stream `in` into `buf`.
template <typename T>
stream::Task write_port(const kinds::Port& p, Buffer<T>& buf,
                        std::int64_t inc, int width, stream::Channel<T>& in,
                        BankSet& banks) {
  stream::DramBank* bank = banks.at(buf.bank());
  const int w = p.width > 0 ? p.width : width;
  switch (p.kind) {
    case kinds::PortKind::Matrix:
      return stream::write_matrix<T>(buf.mat(p.rows, p.cols), p.sched, w, in,
                                     bank);
    case kinds::PortKind::UploMatrix:
      return write_matrix_uplo<T>(buf.mat(p.rows, p.cols), p.sched, p.uplo,
                                  w, in, bank);
    case kinds::PortKind::TriangularC:
      // One grant attempt per kept element, then the write either way: a
      // refused grant costs one cycle, unlike write_matrix_uplo's wait.
      return core::store_c_triangular<T>(buf.mat(p.rows, p.cols), p.grid,
                                         p.uplo, in, bank);
    case kinds::PortKind::SolveOrder:
      return write_rows_solve_order<T>(
          kinds::is_vector(p) ? column(buf.vec(p.len, inc))
                              : buf.mat(p.rows, p.cols),
          p.uplo, p.trans, w, in, bank);
    default:
      return stream::write_vector<T>(buf.vec(p.len, inc), p.repeat, w, in,
                                     bank);
  }
}

/// One operand of a single call: a buffer read (const) or read and
/// written, with its BLAS increment, or a host result.
template <typename T>
struct Operand {
  const Buffer<T>* in = nullptr;
  Buffer<T>* out = nullptr;
  std::int64_t inc = 1;
  T* scalar = nullptr;
  std::int64_t* index = nullptr;

  Operand(const Buffer<T>& b, std::int64_t i = 1) : in(&b), inc(i) {}
  Operand(Buffer<T>& b, std::int64_t i = 1) : in(&b), out(&b), inc(i) {}
  Operand(T* result) : scalar(result) {}
  Operand(std::int64_t* result) : index(result) {}

  /// What hazards track it by: the buffer, or the host result.
  const void* address() const {
    if (in != nullptr) return in;
    if (scalar != nullptr) return scalar;
    return index;
  }
};

/// Scalar and index results a single call's graph collects.
template <typename T>
struct Results {
  std::vector<T> scalar;
  std::vector<std::int64_t> index;
};

/// Spawns the graph of one call of `kind` into `g`: a channel per port
/// (its depth, else chan_cap(width)), then readers (none for a port the
/// module never reads), the module and writers in port order.
template <typename T>
void build_call(stream::Graph& g, BankSet& banks, RoutineKind kind,
                const kinds::Call<T>& c, const std::vector<Operand<T>>& ops,
                Results<T>& res) {
  const kinds::Kind<T>& k = kinds::kind_of<T>(kind);
  const std::vector<kinds::Port> ports = k.ports(c);
  const auto ch = kinds::make_channels<T>(g, ports, c.width);
  const auto inputs = static_cast<std::size_t>(routine_info(kind).inputs);
  for (std::size_t p = 0; p < ports.size(); ++p) {
    if (p == inputs) {
      g.spawn(std::string(routine_info(kind).name), k.module(c, ch.data()));
    }
    const Operand<T>& o = ops[static_cast<std::size_t>(ports[p].operand)];
    auto& chan = static_cast<stream::Channel<T>&>(*ch[p]);
    if (p < inputs) {
      if (ports[p].repeat == 0) continue;
      g.spawn(ports[p].io,
              read_port<T>(ports[p], *o.in, o.inc, c.width, chan, banks));
    } else if (ports[p].kind == kinds::PortKind::Scalar) {
      g.spawn(ports[p].io, stream::collect<T>(1, chan, res.scalar));
    } else if (ports[p].kind == kinds::PortKind::Index) {
      g.spawn(ports[p].io,
              stream::collect<std::int64_t>(
                  1, static_cast<stream::Channel<std::int64_t>&>(*ch[p]),
                  res.index));
    } else {
      g.spawn(ports[p].io,
              write_port<T>(ports[p], *o.out, o.inc, c.width, chan, banks));
    }
  }
}

/// The clock a single call of `kind` runs at: its systolic grid's for the
/// GEMM family, its module's for every other kind (TRSM included).
template <typename T>
double call_mhz(RoutineKind kind, const kinds::Call<T>& c,
                const sim::DeviceSpec& dev) {
  const Precision prec = PrecisionTraits<T>::value;
  const bool grid = kind == RoutineKind::Gemm || kind == RoutineKind::Syrk ||
                    kind == RoutineKind::Syr2k;
  return (grid ? sim::gemm_frequency(c.pe_rows, c.pe_cols, prec, dev)
               : sim::module_frequency(kind, prec, dev))
      .mhz;
}

/// The command of one host call of `kind`. The operands' views are
/// built now, so a bad length, stride or shape (or a systolic grid its
/// tiles do not fit) throws from the call (a ConfigError naming the
/// routine and the operand); they also serve the command's refblas
/// fallback (a Buffer never reallocates its storage, so they stay
/// valid). The ports also give the command's hazard sets, in operand
/// order: an operand is read if an input port streams it and written if
/// an output port does; and an output port storing one triangle steers
/// injected silent corruption onto that triangle. The command's work
/// runs build_call on the DDR banks at call_mhz through
/// Context::run_graph. The call takes its vector width, tiling and
/// systolic grid from the context's configuration, and its label from
/// the routine's name.
template <typename T>
Command lower_call(Context& ctx, RoutineKind kind, kinds::Call<T> c,
                   std::vector<Operand<T>> ops) {
  const RoutineConfig& rc = ctx.config();
  rc.validate();
  Command cmd;
  cmd.label = routine_info(kind).name;
  c.width = rc.width;
  c.tiling = rc.tiling;
  c.tile_rows = rc.tile_rows;
  c.tile_cols = rc.tile_cols;
  c.pe_rows = rc.pe_rows;
  c.pe_cols = rc.pe_cols;
  c.gemm_tile_rows = rc.gemm_tile_rows;
  c.gemm_tile_cols = rc.gemm_tile_cols;
  const kinds::Kind<T>& k = kinds::kind_of<T>(kind);
  const auto inputs = static_cast<std::size_t>(routine_info(kind).inputs);
  std::vector<kinds::In<T>> in;
  std::vector<kinds::Out<T>> out;
  std::vector<char> read(ops.size()), written(ops.size());
  for (const kinds::Port& p : k.ports(c)) {
    const auto operand = static_cast<std::size_t>(p.operand);
    const Operand<T>& o = ops[operand];
    try {
      if (in.size() < inputs) {
        read[operand] = 1;
        in.push_back(kinds::is_vector(p)
                         ? kinds::In<T>{o.in->cvec(p.len, o.inc), {}}
                         : kinds::In<T>{{}, o.in->cmat(p.rows, p.cols)});
        continue;
      }
      written[operand] = 1;
      if (p.kind == kinds::PortKind::Scalar ||
          p.kind == kinds::PortKind::Index) {
        out.push_back({{}, {}, o.scalar, o.index});
      } else if (kinds::is_vector(p)) {
        out.push_back({o.out->vec(p.len, o.inc), {}, nullptr, nullptr});
      } else {
        out.push_back({{}, o.out->mat(p.rows, p.cols), nullptr, nullptr});
      }
    } catch (const ConfigError& e) {
      // Readers and writers are named after their operand (read_x).
      const char* name = std::strchr(p.io, '_');
      throw ConfigError(std::string(routine_info(kind).name) + ": operand " +
                        (name != nullptr ? name + 1 : p.io) + ": " + e.what());
    }
    if (p.kind == kinds::PortKind::UploMatrix ||
        p.kind == kinds::PortKind::TriangularC) {
      cmd.corrupt_steer = [uplo = p.uplo, n = p.rows](std::uint64_t raw,
                                                      std::uint64_t size) {
        return steer_triangular(uplo, n, sizeof(T), raw, size);
      };
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (read[i] != 0) cmd.reads.push_back(ops[i].address());
    if (written[i] != 0) cmd.writes.push_back(ops[i].address());
  }
  cmd.work = [&ctx, kind, c, ops] {
    stream::Graph g(ctx.mode());
    BankSet banks(g, ctx.device(), call_mhz(kind, c, ctx.device().spec()));
    Results<T> res;
    build_call<T>(g, banks, kind, c, ops, res);
    ctx.run_graph(g);
    for (const Operand<T>& o : ops) {
      if (o.scalar != nullptr) *o.scalar = res.scalar.at(0);
      if (o.index != nullptr) *o.index = res.index.at(0);
    }
  };
  cmd.fallback = [&k, c, in, out] { k.fallback(c, in.data(), out.data()); };
  return cmd;
}

/// Arms `cmd`'s two-phase ABFT check when the context's configuration
/// enables verification: `prepare()` returns the inputs' checksums (a
/// Chk) before the first attempt, and `check(chk, tolerance_scale)`
/// compares the outputs with them after each device-Ok attempt.
template <typename Chk, typename Prepare, typename Check>
void verify_with(const Context& ctx, Command& cmd, Prepare prepare,
                 Check check) {
  const verify::Options& vo = ctx.config().verification;
  if (!vo.enabled()) return;
  auto chk = std::make_shared<Chk>();
  cmd.verify_prepare = [chk, prepare] { *chk = prepare(); };
  cmd.verify_check = [chk, check, scale = vo.tolerance_scale()] {
    check(*chk, scale);
  };
}

/// The single-phase form, for results that leave their inputs untouched:
/// `check(tolerance_scale)` recomputes from the inputs after the fact.
template <typename Check>
void verify_with(const Context& ctx, Command& cmd, Check check) {
  const verify::Options& vo = ctx.config().verification;
  if (!vo.enabled()) return;
  cmd.verify_check = [check, scale = vo.tolerance_scale()] { check(scale); };
}

}  // namespace fblas::host::detail
