// Internal helpers shared by the host-API routine lowerings: DDR banks,
// the solve-order and uplo-masked streamers, the reader/writer of a
// module port (host/kinds.hpp), and the single-call builder every
// Level-1/2 routine lowers through.
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
/// B operand; a one-column view with ld = inc is a TRSV vector).
template <typename T>
stream::Task read_rows_solve_order(MatrixView<const T> B, Uplo uplo,
                                   int width, stream::Channel<T>& out,
                                   stream::DramBank* bank = nullptr) {
  const std::int64_t m = B.rows(), n = B.cols();
  int in_cycle = 0;
  for (std::int64_t s = 0; s < m; ++s) {
    const std::int64_t i = uplo == Uplo::Lower ? s : m - 1 - s;
    for (std::int64_t c = 0; c < n; ++c) {
      if (bank != nullptr) {
        while (bank->grant_elems(1, sizeof(T)) == 0) {
          co_await stream::next_cycle();
        }
      }
      co_await out.push(B(i, c));
      if (++in_cycle == width) {
        in_cycle = 0;
        co_await stream::next_cycle();
      }
    }
  }
  co_await stream::next_cycle();
}

/// Stores solve-order rows back in natural order (TRSM's X, TRSV's x).
template <typename T>
stream::Task write_rows_solve_order(MatrixView<T> X, Uplo uplo, int width,
                                    stream::Channel<T>& in,
                                    stream::DramBank* bank = nullptr) {
  const std::int64_t m = X.rows(), n = X.cols();
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
      X(i, c) = v;
      if (++in_cycle == width) {
        in_cycle = 0;
        co_await stream::next_cycle();
      }
    }
  }
}

using kinds::chan_cap;

/// A strided vector as the one-column matrix the solve-order streamers
/// walk.
template <typename T>
MatrixView<T> column(VectorView<T> v) {
  return MatrixView<T>(v.data(), v.size(), 1, v.inc());
}

/// The reader streaming port `p` of `buf` (strided by `inc`) into `out`.
template <typename T>
stream::Task read_port(const kinds::Port& p, const Buffer<T>& buf,
                       std::int64_t inc, int width, stream::Channel<T>& out,
                       BankSet& banks) {
  stream::DramBank* bank = banks.at(buf.bank());
  switch (p.kind) {
    case kinds::PortKind::Matrix:
      return stream::read_matrix<T>(buf.cmat(p.rows, p.cols), p.sched,
                                    p.repeat, width, out, bank);
    case kinds::PortKind::Triangular:
      return core::read_triangular<T>(buf.cmat(p.rows, p.cols), p.uplo,
                                      width, out, bank, p.trans);
    case kinds::PortKind::SolveOrder:
      return read_rows_solve_order<T>(column(buf.cvec(p.len, inc)), p.uplo,
                                      width, out, bank);
    default:
      return stream::read_vector<T>(buf.cvec(p.len, inc), p.repeat, width,
                                    out, bank);
  }
}

/// The writer storing port `p`'s stream `in` into `buf`.
template <typename T>
stream::Task write_port(const kinds::Port& p, Buffer<T>& buf,
                        std::int64_t inc, int width, stream::Channel<T>& in,
                        BankSet& banks) {
  stream::DramBank* bank = banks.at(buf.bank());
  switch (p.kind) {
    case kinds::PortKind::Matrix:
      return stream::write_matrix<T>(buf.mat(p.rows, p.cols), p.sched, width,
                                     in, bank);
    case kinds::PortKind::UploMatrix:
      return write_matrix_uplo<T>(buf.mat(p.rows, p.cols), p.sched, p.uplo,
                                  width, in, bank);
    case kinds::PortKind::SolveOrder:
      return write_rows_solve_order<T>(column(buf.vec(p.len, inc)), p.uplo,
                                       width, in, bank);
    default:
      return stream::write_vector<T>(buf.vec(p.len, inc), p.repeat, width,
                                     in, bank);
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
};

/// Scalar and index results a single call's graph collects.
template <typename T>
struct Results {
  std::vector<T> scalar;
  std::vector<std::int64_t> index;
};

/// Spawns the graph of one call of `kind` into `g`: a channel per port
/// (chan_cap(width) deep, results 2 deep), then readers, the module and
/// writers in port order.
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

/// The command of one host call of `kind`. The operands' views are
/// built now, so a bad length, stride or shape throws from the call
/// (a ConfigError naming the routine and the operand); they also serve
/// the command's refblas fallback (a Buffer never reallocates its
/// storage, so they stay valid). The command's work runs build_call on
/// the DDR banks at the kind's module clock through Context::run_graph.
/// The call takes its vector width and tiling from the context's
/// configuration, and its label from the routine's name.
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
  const kinds::Kind<T>& k = kinds::kind_of<T>(kind);
  const auto inputs = static_cast<std::size_t>(routine_info(kind).inputs);
  std::vector<kinds::In<T>> in;
  std::vector<kinds::Out<T>> out;
  for (const kinds::Port& p : k.ports(c)) {
    const Operand<T>& o = ops[static_cast<std::size_t>(p.operand)];
    try {
      if (in.size() < inputs) {
        in.push_back(kinds::is_vector(p.kind)
                         ? kinds::In<T>{o.in->cvec(p.len, o.inc), {}}
                         : kinds::In<T>{{}, o.in->cmat(p.rows, p.cols)});
      } else if (p.kind == kinds::PortKind::Matrix ||
                 p.kind == kinds::PortKind::UploMatrix) {
        out.push_back({{}, o.out->mat(p.rows, p.cols), nullptr, nullptr});
      } else if (p.kind == kinds::PortKind::Scalar ||
                 p.kind == kinds::PortKind::Index) {
        out.push_back({{}, {}, o.scalar, o.index});
      } else {
        out.push_back({o.out->vec(p.len, o.inc), {}, nullptr, nullptr});
      }
    } catch (const ConfigError& e) {
      // Readers and writers are named after their operand (read_x).
      const char* name = std::strchr(p.io, '_');
      throw ConfigError(std::string(routine_info(kind).name) + ": operand " +
                        (name != nullptr ? name + 1 : p.io) + ": " + e.what());
    }
  }
  cmd.work = [&ctx, kind, c, ops] {
    stream::Graph g(ctx.mode());
    BankSet banks(g, ctx.device(),
                  sim::module_frequency(kind, PrecisionTraits<T>::value,
                                        ctx.device().spec())
                      .mhz);
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
