// Context::run_composition — the generic interpreter behind the
// composition compiler. Everything a composition needs at run time
// (channel creation, module spawning, fan-outs, zero inputs, DRAM round
// trips for cut edges, checksum predictions, the refblas fallback) is
// derived here from mdag::Compiled, so an app is nothing but a
// host::Composition description.
//
// Execution of one composition is ONE command on the fault-tolerance
// ladder: retries roll the write set back, verification compares every
// FIFO of every component against host-side predictions (localizing a
// divergence to the first corrupted edge), and the CPU fallback replays
// the MDAG node by node over refblas.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/routines.hpp"
#include "common/types.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "host/composition.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "mdag/checksum.hpp"
#include "mdag/compile.hpp"
#include "refblas/level1.hpp"
#include "refblas/level2.hpp"
#include "sim/frequency_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "verify/abft.hpp"
#include "verify/graph_checker.hpp"

namespace fblas::host {
namespace {

using mdag::CompiledChannel;

std::int64_t per_pass(const mdag::StreamSig& s) {
  return s.repeat > 0 ? s.count / s.repeat : s.count;
}

Uplo op_uplo_of(const mdag::NodeSemantics& s) {
  if (s.trans == Transpose::None) return s.uplo;
  return s.uplo == Uplo::Lower ? Uplo::Upper : Uplo::Lower;
}

/// Everything a composed command carries across the executor hooks.
template <typename T>
struct ComposedState {
  explicit ComposedState(const Composition<T>& c) : comp(c) {}

  Composition<T> comp;  ///< the user's description, copied at enqueue
  mdag::Compiled cp;
  std::string audit_label;
  // DRAM materializations of cut edges without a sibling writer.
  std::vector<std::unique_ptr<Buffer<T>>> scratch;
  std::map<int, std::size_t> scratch_of;     ///< edge -> scratch index
  std::map<int, std::string> readback_name;  ///< cut edge -> consumer FIFO
  std::map<int, std::string> spill_name;     ///< cut edge -> producer FIFO
  // One checker per component: arm() rejects names foreign to a graph.
  std::vector<verify::GraphChecker> chk;
  /// Buffer-writer audits: node -> predicted checksum of the material-
  /// ized output (catches corruption past the last FIFO tap).
  std::vector<std::pair<int, mdag::EdgeChecksum>> audits;
};

/// The trsv dimension: rows of the solve, read off the output stream.
std::int64_t trsv_dim(const mdag::Mdag& g, const mdag::Compiled& cp, int u) {
  const auto outs = cp.out_edges(g, u);
  return per_pass(g.edge(outs[0]).produced);
}

/// True when edge `e` feeds the b port (port 1) of a TRSV node, whose
/// stream must arrive in solve order rather than natural order.
bool is_trsv_b(const mdag::Mdag& g, const mdag::Compiled& cp, int e) {
  const mdag::Edge& edge = g.edge(e);
  const mdag::Node& to = g.node(edge.to);
  if (to.type != mdag::NodeType::Compute || to.kind != RoutineKind::Trsv) {
    return false;
  }
  const auto ins = cp.in_edges(g, edge.to);
  return ins.size() == 2 && ins[1] == e;
}

/// Out-edges of `u` that stream in u's own component (everything except
/// cut edges served by a sibling DRAM writer).
std::vector<int> stream_branches(const mdag::Mdag& g, const mdag::Compiled& cp,
                                 int u) {
  std::vector<int> br;
  for (int e : cp.out_edges(g, u)) {
    if (!cp.edge_cut[static_cast<std::size_t>(e)] || cp.cut_of(e).writer < 0) {
      br.push_back(e);
    }
  }
  return br;
}

template <typename T>
const Buffer<T>* cut_source(const ComposedState<T>& st, int edge) {
  const mdag::CutEdge& cut = st.cp.cut_of(edge);
  if (cut.writer >= 0) {
    const auto& b = st.comp.binding(cut.writer);
    return b.in != nullptr ? b.in : b.out;
  }
  return st.scratch[st.scratch_of.at(edge)].get();
}

// ---- Streaming execution -------------------------------------------------

template <typename T>
void run_component(Context& ctx, ComposedState<T>& st, std::size_t c) {
  const mdag::Mdag& g = st.comp.graph();
  const mdag::Compiled& cp = st.cp;
  const auto& sem = st.comp.semantics();
  const int width = cp.options.width;
  if (cp.order[c].empty()) return;

  stream::Graph sg(ctx.mode());
  const auto f = sim::composition_frequency(
      cp.matrix_modules, PrecisionTraits<T>::value, ctx.device().spec());
  detail::BankSet banks(sg, ctx.device(), f.mhz);

  std::map<std::string, stream::Channel<T>*> ch;
  for (const CompiledChannel& cc : cp.channels[c]) {
    ch.emplace(cc.name,
               &sg.channel<T>(cc.name, static_cast<std::size_t>(cc.depth)));
  }
  const auto chan = [&](const std::string& name) -> stream::Channel<T>& {
    return *ch.at(name);
  };
  const auto branch_channel = [&](int e) -> stream::Channel<T>& {
    if (cp.edge_cut[static_cast<std::size_t>(e)]) {
      return chan(st.spill_name.at(e));
    }
    return chan(cp.edge_channel[static_cast<std::size_t>(e)]);
  };

  // Scalar collect targets must outlive run_graph.
  std::vector<std::unique_ptr<std::vector<T>>> held;
  std::vector<std::pair<T*, const std::vector<T>*>> scalars;

  for (int u : cp.order[c]) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto ins = cp.in_edges(g, u);
    const auto br = stream_branches(g, cp, u);

    // Consumer side of cut in-edges: re-read the materialized stream.
    for (int e : ins) {
      if (!cp.edge_cut[static_cast<std::size_t>(e)]) continue;
      const mdag::StreamSig& sig = g.edge(e).consumed;
      const Buffer<T>* src = cut_source(st, e);
      stream::DramBank* bank = banks.at(src->bank());
      const std::string& name = st.readback_name.at(e);
      if (sig.is_matrix) {
        sg.spawn(name,
                 stream::read_matrix<T>(src->cmat(sig.rows, sig.cols),
                                        sig.sched, sig.repeat, width,
                                        chan(name), bank));
      } else if (is_trsv_b(g, cp, e)) {
        FBLAS_REQUIRE(sig.repeat == 1,
                      "composition: a TRSV b stream cannot be replayed");
        sg.spawn(name, detail::read_vector_solve_order<T>(
                           src->cvec(per_pass(sig)), op_uplo_of(s), width,
                           chan(name), bank));
      } else {
        sg.spawn(name,
                 stream::read_vector<T>(src->cvec(per_pass(sig)), sig.repeat,
                                        width, chan(name), bank));
      }
    }

    if (cp.has_zero(u)) {
      const std::size_t zi = cp.zero_index(u);
      sg.spawn(cp.zero_name[zi],
               stream::generate<T>(cp.zero_count[zi], T(0), width,
                                   chan(cp.zero_name[zi])));
    }

    if (node.type == mdag::NodeType::Interface && !s.is_output) {
      // All consumers may re-read the operand from DRAM directly.
      if (br.empty()) continue;
      stream::Channel<T>& dst =
          cp.has_trunk(u) ? chan(cp.trunk_of(u)) : branch_channel(br[0]);
      const mdag::StreamSig& sig = g.edge(br[0]).produced;
      const Buffer<T>& buf = *st.comp.binding(u).in;
      stream::DramBank* bank = banks.at(buf.bank());
      if (s.triangular) {
        const std::int64_t n = trsv_dim(g, cp, g.edge(br[0]).to);
        sg.spawn(node.name,
                 core::read_triangular<T>(buf.cmat(n, n), op_uplo_of(s), width,
                                          dst, bank, s.trans));
      } else if (sig.is_matrix) {
        sg.spawn(node.name,
                 stream::read_matrix<T>(buf.cmat(sig.rows, sig.cols), sig.sched,
                                        sig.repeat, width, dst, bank));
      } else if (br.size() == 1 && is_trsv_b(g, cp, br[0])) {
        FBLAS_REQUIRE(sig.repeat == 1,
                      "composition: a TRSV b stream cannot be replayed");
        sg.spawn(node.name,
                 detail::read_vector_solve_order<T>(
                     buf.cvec(per_pass(sig)),
                     op_uplo_of(sem[static_cast<std::size_t>(g.edge(br[0]).to)]),
                     width, dst, bank));
      } else {
        sg.spawn(node.name,
                 stream::read_vector<T>(buf.cvec(per_pass(sig)), sig.repeat,
                                        width, dst, bank));
      }
    } else if (node.type == mdag::NodeType::Interface) {
      // Writer: drain the in-stream into its binding.
      const int e = ins[0];
      const mdag::StreamSig& sig = g.edge(e).consumed;
      stream::Channel<T>& src =
          cp.edge_cut[static_cast<std::size_t>(e)]
              ? chan(st.readback_name.at(e))
              : chan(cp.edge_channel[static_cast<std::size_t>(e)]);
      const auto& b = st.comp.binding(u);
      if (b.scalar != nullptr) {
        held.emplace_back(new std::vector<T>());
        scalars.emplace_back(b.scalar, held.back().get());
        sg.spawn(node.name, stream::collect<T>(sig.count, src, *held.back()));
      } else {
        Buffer<T>& buf = *b.out;
        stream::DramBank* bank = banks.at(buf.bank());
        const mdag::Node& prod = g.node(g.edge(e).from);
        if (sig.is_matrix) {
          sg.spawn(node.name,
                   stream::write_matrix<T>(buf.mat(sig.rows, sig.cols),
                                           sig.sched, width, src, bank));
        } else if (prod.type == mdag::NodeType::Compute &&
                   prod.kind == RoutineKind::Trsv) {
          sg.spawn(node.name,
                   detail::write_vector_solve_order<T>(
                       buf.vec(per_pass(sig)),
                       op_uplo_of(sem[static_cast<std::size_t>(g.edge(e).from)]),
                       width, src, bank));
        } else {
          sg.spawn(node.name,
                   stream::write_vector<T>(buf.vec(per_pass(sig)), sig.repeat,
                                           width, src, bank));
        }
      }
    } else {
      // Compute node.
      std::vector<stream::Channel<T>*> in_ch;
      for (int e : ins) {
        in_ch.push_back(cp.edge_cut[static_cast<std::size_t>(e)]
                            ? &chan(st.readback_name.at(e))
                            : &chan(cp.edge_channel[static_cast<std::size_t>(e)]));
      }
      stream::Channel<T>& dst =
          cp.has_trunk(u) ? chan(cp.trunk_of(u)) : branch_channel(br[0]);
      const std::int64_t out_n = per_pass(g.edge(br[0]).produced);
      switch (node.kind) {
        case RoutineKind::Gemv: {
          const mdag::StreamSig& a = g.edge(ins[0]).consumed;
          core::GemvConfig cfg;
          cfg.trans = s.trans;
          cfg.tiling = a.sched.tile_order == Order::RowMajor
                           ? core::MatrixTiling::TilesByRows
                           : core::MatrixTiling::TilesByCols;
          cfg.width = width;
          cfg.tile_rows = a.sched.tile_rows;
          cfg.tile_cols = a.sched.tile_cols;
          cfg.elem_order = a.sched.elem_order;
          const T beta = cp.has_zero(u) ? T(0) : st.comp.beta_of(u);
          stream::Channel<T>& y0 =
              cp.has_zero(u) ? chan(cp.zero_name[cp.zero_index(u)])
                             : *in_ch[2];
          sg.spawn(node.name,
                   core::gemv<T>(cfg, a.rows, a.cols, st.comp.alpha_of(u),
                                 beta, *in_ch[0], *in_ch[1], y0, dst));
          break;
        }
        case RoutineKind::Ger: {
          const mdag::StreamSig& a = g.edge(ins[0]).consumed;
          core::GerConfig cfg;
          cfg.tiling = a.sched.tile_order == Order::RowMajor
                           ? core::MatrixTiling::TilesByRows
                           : core::MatrixTiling::TilesByCols;
          cfg.width = width;
          cfg.tile_rows = a.sched.tile_rows;
          cfg.tile_cols = a.sched.tile_cols;
          cfg.elem_order = a.sched.elem_order;
          sg.spawn(node.name,
                   core::ger<T>(cfg, a.rows, a.cols, st.comp.alpha_of(u),
                                *in_ch[0], *in_ch[1], *in_ch[2], dst));
          break;
        }
        case RoutineKind::Trsv: {
          const core::TrsvConfig cfg{op_uplo_of(s), s.diag, width};
          sg.spawn(node.name, core::trsv<T>(cfg, out_n, *in_ch[0], *in_ch[1],
                                            dst));
          break;
        }
        case RoutineKind::Axpy:
          sg.spawn(node.name, core::axpy<T>({width}, out_n, st.comp.alpha_of(u),
                                            *in_ch[0], *in_ch[1], dst));
          break;
        case RoutineKind::Scal:
          sg.spawn(node.name, core::scal<T>({width}, out_n, st.comp.alpha_of(u),
                                            *in_ch[0], dst));
          break;
        case RoutineKind::Dot: {
          const std::int64_t n = per_pass(g.edge(ins[0]).consumed);
          sg.spawn(node.name,
                   core::dot<T>({width}, n, *in_ch[0], *in_ch[1], dst));
          break;
        }
        default:
          throw ConfigError("composition: no lowering for node '" + node.name +
                            "'");
      }
    }

    if (cp.has_trunk(u)) {
      sg.spawn(node.name + ".fanout",
               stream::fanout2<T>(g.edge(br[0]).produced.count, width,
                                  chan(cp.trunk_of(u)), branch_channel(br[0]),
                                  branch_channel(br[1])));
    }

    // Producer side of scratch cuts: materialize the spill stream.
    for (int e : cp.out_edges(g, u)) {
      if (!cp.edge_cut[static_cast<std::size_t>(e)] ||
          cp.cut_of(e).writer >= 0) {
        continue;
      }
      const mdag::StreamSig& sig = g.edge(e).produced;
      Buffer<T>& scr = *st.scratch[st.scratch_of.at(e)];
      stream::DramBank* bank = banks.at(scr.bank());
      const std::string& name = st.spill_name.at(e);
      if (sig.is_matrix) {
        sg.spawn(name + ".w",
                 stream::write_matrix<T>(scr.mat(sig.rows, sig.cols), sig.sched,
                                         width, chan(name), bank));
      } else {
        sg.spawn(name + ".w",
                 stream::write_vector<T>(scr.vec(per_pass(sig)), sig.repeat,
                                         width, chan(name), bank));
      }
    }
  }

  verify::GraphChecker* chk =
      c < st.chk.size() && st.chk[c].active() ? &st.chk[c] : nullptr;
  if (chk != nullptr) chk->arm(sg);
  ctx.run_graph(sg);
  if (chk != nullptr) chk->capture(sg);
  for (const auto& [dst, vals] : scalars) *dst = vals->at(0);
}

// ---- CPU fallback: topological replay over refblas -----------------------

template <typename T>
void run_fallback(ComposedState<T>& st) {
  const mdag::Mdag& g = st.comp.graph();
  const mdag::Compiled& cp = st.cp;
  const auto& sem = st.comp.semantics();
  std::vector<std::vector<T>> val(g.edges().size());

  for (int u : g.topo_order()) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto ins = cp.in_edges(g, u);
    const auto outs = cp.out_edges(g, u);
    if (node.type == mdag::NodeType::Interface && !s.is_output) {
      if (s.triangular) continue;  // the TRSV rule reads the binding
      const Buffer<T>& buf = *st.comp.binding(u).in;
      for (int e : outs) {
        const mdag::StreamSig& sig = g.edge(e).produced;
        const std::int64_t n =
            sig.is_matrix ? sig.rows * sig.cols : per_pass(sig);
        const auto view = buf.cvec(n);
        auto& v = val[static_cast<std::size_t>(e)];
        v.resize(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = view[i];
      }
    } else if (node.type == mdag::NodeType::Interface) {
      const auto& b = st.comp.binding(u);
      const auto& v = val[static_cast<std::size_t>(ins[0])];
      if (b.scalar != nullptr) {
        *b.scalar = v.at(0);
      } else {
        auto view = b.out->vec(static_cast<std::int64_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i) {
          view[static_cast<std::int64_t>(i)] = v[i];
        }
      }
    } else {
      std::vector<T> out;
      switch (node.kind) {
        case RoutineKind::Gemv: {
          const mdag::StreamSig& a = g.edge(ins[0]).consumed;
          const std::int64_t on = s.trans == Transpose::None ? a.rows : a.cols;
          const std::int64_t in_n = s.trans == Transpose::None ? a.cols : a.rows;
          if (ins.size() == 3) {
            out = val[static_cast<std::size_t>(ins[2])];
          } else {
            out.assign(static_cast<std::size_t>(on), T(0));
          }
          const T beta = cp.has_zero(u) ? T(0) : st.comp.beta_of(u);
          ref::gemv<T>(s.trans, st.comp.alpha_of(u),
                       MatrixView<const T>(
                           val[static_cast<std::size_t>(ins[0])].data(), a.rows,
                           a.cols),
                       VectorView<const T>(
                           val[static_cast<std::size_t>(ins[1])].data(), in_n),
                       beta, VectorView<T>(out.data(), on));
          break;
        }
        case RoutineKind::Ger: {
          const mdag::StreamSig& a = g.edge(ins[0]).consumed;
          out = val[static_cast<std::size_t>(ins[0])];
          ref::ger<T>(st.comp.alpha_of(u),
                      VectorView<const T>(
                          val[static_cast<std::size_t>(ins[1])].data(), a.rows),
                      VectorView<const T>(
                          val[static_cast<std::size_t>(ins[2])].data(), a.cols),
                      MatrixView<T>(out.data(), a.rows, a.cols));
          break;
        }
        case RoutineKind::Trsv: {
          const std::int64_t n = trsv_dim(g, cp, u);
          const Buffer<T>& a = *st.comp.binding(g.edge(ins[0]).from).in;
          out = val[static_cast<std::size_t>(ins[1])];
          ref::trsv<T>(s.uplo, s.trans, s.diag, a.cmat(n, n),
                       VectorView<T>(out.data(), n));
          break;
        }
        case RoutineKind::Axpy: {
          out = val[static_cast<std::size_t>(ins[1])];
          ref::axpy<T>(st.comp.alpha_of(u),
                       VectorView<const T>(
                           val[static_cast<std::size_t>(ins[0])].data(),
                           static_cast<std::int64_t>(out.size())),
                       VectorView<T>(out.data(),
                                     static_cast<std::int64_t>(out.size())));
          break;
        }
        case RoutineKind::Scal: {
          out = val[static_cast<std::size_t>(ins[0])];
          ref::scal<T>(st.comp.alpha_of(u),
                       VectorView<T>(out.data(),
                                     static_cast<std::int64_t>(out.size())));
          break;
        }
        case RoutineKind::Dot: {
          const auto& x = val[static_cast<std::size_t>(ins[0])];
          const auto& y = val[static_cast<std::size_t>(ins[1])];
          out = {ref::dot<T>(
              VectorView<const T>(x.data(), static_cast<std::int64_t>(x.size())),
              VectorView<const T>(y.data(),
                                  static_cast<std::int64_t>(y.size())))};
          break;
        }
        default:
          throw ConfigError("composition: no fallback for node '" + node.name +
                            "'");
      }
      for (std::size_t i = 0; i < outs.size(); ++i) {
        val[static_cast<std::size_t>(outs[i])] =
            i + 1 == outs.size() ? std::move(out) : out;
      }
    }
  }
}

// ---- Checksum predictions ------------------------------------------------

/// Per-pass stream values of one edge in double (matrices in row-major
/// storage order): a bound operand read in place, or values this pass
/// computed. `sum` and `asum` reduce them in element order.
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

template <typename T>
mdag::EdgeChecksum scaled(const Flow<T>& f, std::int64_t repeat) {
  const double r = static_cast<double>(std::max<std::int64_t>(1, repeat));
  return {f.sum * r, f.asum * r,
          f.terms * std::max<std::int64_t>(1, repeat)};
}

// The most flows one reduction pass takes. Their eight chains already
// keep the floating-point adders busy; more would only lengthen it.
constexpr std::size_t kSideBySide = 4;

/// Sets sum and asum of fs[0..k) (all of one length), each chain in
/// element order. Independent chains in one loop only overlap in time,
/// so every result keeps its bits while the pass waits out one add
/// latency per element instead of k.
template <typename T, typename... P>
void reduce_side_by_side(Flow<T>* const* fs, std::size_t k, const P*... v) {
  constexpr std::size_t m = sizeof...(P);
  if constexpr (m < kSideBySide) {
    if (m < k) {
      with_values(*fs[m], [&](const auto* p) {
        reduce_side_by_side<T>(fs, k, v..., p);
      });
      return;
    }
  }
  if constexpr (m > 0) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      double sum[m] = {}, asum[m] = {};
      const std::int64_t n = fs[0]->n;
      for (std::int64_t i = 0; i < n; ++i) {
        ((sum[I] += static_cast<double>(v[i]),
          asum[I] += std::abs(static_cast<double>(v[i]))),
         ...);
      }
      ((fs[I]->sum = sum[I], fs[I]->asum = asum[I]), ...);
    }(std::index_sequence_for<P...>{});
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

}  // namespace

template <typename T>
CompositionPredictions predict_checksums(const Composition<T>& comp,
                                         const mdag::Compiled& cp) {
  const mdag::Mdag& g = comp.graph();
  const auto& sem = comp.semantics();
  // Edges share flows: every branch of a fan-out, and every out-edge of a
  // reader that streams the same elements, points at one Flow.
  std::deque<Flow<T>> store;
  std::vector<Flow<T>*> flow(g.edges().size(), nullptr);
  // Flows whose sums are still owed; reduced together at the end.
  std::vector<Flow<T>*> pending;
  struct Audit {
    int node;
    const Flow<T>* in;
    std::int64_t repeat;
  };
  std::vector<Audit> audits;

  for (int u : g.topo_order()) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto ins = cp.in_edges(g, u);
    const auto outs = cp.out_edges(g, u);
    const auto in_flow = [&](std::size_t port) -> const Flow<T>& {
      return *flow[static_cast<std::size_t>(ins[port])];
    };

    if (node.type == mdag::NodeType::Interface && !s.is_output) {
      const Buffer<T>& buf = *comp.binding(u).in;
      for (int e : outs) {
        const mdag::StreamSig& sig = g.edge(e).produced;
        const std::int64_t tn =
            s.triangular ? trsv_dim(g, cp, g.edge(e).to) : 0;
        const std::int64_t n =
            s.triangular ? tn * (tn + 1) / 2
                         : (sig.is_matrix ? sig.rows * sig.cols : per_pass(sig));
        Flow<T>*& f = flow[static_cast<std::size_t>(e)];
        for (int prev : outs) {
          if (prev == e) break;
          if (flow[static_cast<std::size_t>(prev)]->n == n) {
            f = flow[static_cast<std::size_t>(prev)];
          }
        }
        if (f != nullptr) continue;
        f = &store.emplace_back();
        f->n = f->terms = n;
        pending.push_back(f);
        if (!s.triangular) {
          f->src = buf.cvec(n).data();
          continue;
        }
        const auto a = buf.cmat(tn, tn);
        const Uplo tri = op_uplo_of(s);
        f->vals.reserve(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < tn; ++i) {
          for (std::int64_t j = 0; j < tn; ++j) {
            if (tri == Uplo::Lower ? j > i : j < i) continue;
            f->vals.push_back(static_cast<double>(
                s.trans == Transpose::None ? a(i, j) : a(j, i)));
          }
        }
      }
    } else if (node.type == mdag::NodeType::Interface) {
      if (comp.binding(u).out != nullptr) {
        audits.push_back({u, &in_flow(0), g.edge(ins[0]).consumed.repeat});
      }
    } else {
      Flow<T>& out = store.emplace_back();
      bool reduced = false;  // sums already set (the TRSV satellite rule)
      switch (node.kind) {
        case RoutineKind::Gemv: {
          const mdag::StreamSig& a = g.edge(ins[0]).consumed;
          const std::int64_t on = s.trans == Transpose::None ? a.rows : a.cols;
          const Flow<T>& af = in_flow(0);
          const Flow<T>& xf = in_flow(1);
          const double beta = cp.has_zero(u) ? 0.0 : s.beta;
          out.vals.resize(static_cast<std::size_t>(on));
          double* acc = out.vals.data();
          with_values(af, [&](const auto* av) {
            with_values(xf, [&](const auto* xv) {
              gemv_sums(s.trans, a.rows, a.cols, av, xv, acc);
            });
          });
          if (ins.size() == 3) {
            with_values(in_flow(2), [&](const auto* y0) {
              for (std::int64_t i = 0; i < on; ++i) {
                acc[i] = s.alpha * acc[i] + beta * static_cast<double>(y0[i]);
              }
            });
          } else {
            // The synthesized zero y0 still adds its term: it turns a
            // -0.0 into +0.0, as the streamed module does.
            for (std::int64_t i = 0; i < on; ++i) {
              acc[i] = s.alpha * acc[i] + beta * 0.0;
            }
          }
          out.terms = a.rows * a.cols + af.terms + xf.terms +
                      (ins.size() == 3 ? in_flow(2).terms : on);
          break;
        }
        case RoutineKind::Ger: {
          const mdag::StreamSig& a = g.edge(ins[0]).consumed;
          const Flow<T>& af = in_flow(0);
          const Flow<T>& xf = in_flow(1);
          const Flow<T>& yf = in_flow(2);
          out.vals.resize(static_cast<std::size_t>(a.rows * a.cols));
          double* o = out.vals.data();
          with_values(af, [&](const auto* av) {
            with_values(yf, [&](const auto* yv) {
              for (std::int64_t i = 0; i < a.rows; ++i) {
                const double ax = s.alpha * xf.at(i);
                const auto* ar = av + i * a.cols;
                double* orow = o + i * a.cols;
                for (std::int64_t j = 0; j < a.cols; ++j) {
                  orow[j] = static_cast<double>(ar[j]) +
                            ax * static_cast<double>(yv[j]);
                }
              }
            });
          });
          out.terms = af.terms + xf.terms * yf.terms;
          break;
        }
        case RoutineKind::Trsv: {
          // Re-solve in double: the mdag::trsv_propagate rule, with the
          // b checksum folded into the bound.
          const std::int64_t n = trsv_dim(g, cp, u);
          const Buffer<T>& abuf = *comp.binding(g.edge(ins[0]).from).in;
          const auto a = abuf.cmat(n, n);
          const Flow<T>& bf = in_flow(1);
          const auto op = [&](std::int64_t i, std::int64_t j) {
            return static_cast<double>(s.trans == Transpose::None ? a(i, j)
                                                                  : a(j, i));
          };
          const Uplo tri = op_uplo_of(s);
          out.vals.assign(static_cast<std::size_t>(n), 0.0);
          for (std::int64_t k = 0; k < n; ++k) {
            const std::int64_t i = tri == Uplo::Lower ? k : n - 1 - k;
            const std::int64_t j0 = tri == Uplo::Lower ? 0 : i + 1;
            const std::int64_t j1 = tri == Uplo::Lower ? i : n;
            double acc = bf.at(i);
            for (std::int64_t j = j0; j < j1; ++j) {
              acc -= op(i, j) * out.vals[static_cast<std::size_t>(j)];
            }
            out.vals[static_cast<std::size_t>(i)] =
                s.diag == Diag::Unit ? acc : acc / op(i, i);
          }
          out.terms = n * n + bf.terms;
          // When b is a materialized operand, the satellite rule predicts
          // the same checksum straight from the bindings — use it.
          const mdag::Node& bprod = g.node(g.edge(ins[1]).from);
          if (bprod.type == mdag::NodeType::Interface) {
            const Buffer<T>& bbuf = *comp.binding(g.edge(ins[1]).from).in;
            const mdag::EdgeChecksum pc = mdag::trsv_propagate<T>(
                s.uplo, s.trans, s.diag, abuf.cmat(n, n), bbuf.cvec(n));
            out.sum = pc.pred;
            out.asum = pc.mag;
            out.terms = pc.terms + bf.terms;
            reduced = true;
          }
          break;
        }
        case RoutineKind::Axpy: {
          const Flow<T>& xf = in_flow(0);
          const Flow<T>& yf = in_flow(1);
          out.vals.resize(static_cast<std::size_t>(xf.n));
          double* o = out.vals.data();
          with_values(xf, [&](const auto* xv) {
            with_values(yf, [&](const auto* yv) {
              for (std::int64_t i = 0; i < xf.n; ++i) {
                o[i] = s.alpha * static_cast<double>(xv[i]) +
                       static_cast<double>(yv[i]);
              }
            });
          });
          out.terms = xf.terms + yf.terms;
          break;
        }
        case RoutineKind::Scal: {
          const Flow<T>& xf = in_flow(0);
          out.vals.resize(static_cast<std::size_t>(xf.n));
          double* o = out.vals.data();
          with_values(xf, [&](const auto* xv) {
            for (std::int64_t i = 0; i < xf.n; ++i) {
              o[i] = s.alpha * static_cast<double>(xv[i]);
            }
          });
          out.terms = xf.terms;
          break;
        }
        case RoutineKind::Dot: {
          const Flow<T>& xf = in_flow(0);
          const Flow<T>& yf = in_flow(1);
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
          break;
        }
        default:
          throw ConfigError("composition: no checksum rule for node '" +
                            node.name + "'");
      }
      out.n = static_cast<std::int64_t>(out.vals.size());
      if (!reduced) pending.push_back(&out);
      for (int e : outs) flow[static_cast<std::size_t>(e)] = &out;
    }
  }

  // The owed sums, up to kSideBySide flows of one length per pass.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Flow<T>* a, const Flow<T>* b) { return a->n < b->n; });
  for (std::size_t i = 0; i < pending.size();) {
    std::size_t k = 1;
    while (k < kSideBySide && i + k < pending.size() &&
           pending[i + k]->n == pending[i]->n) {
      ++k;
    }
    reduce_side_by_side<T>(pending.data() + i, k);
    i += k;
  }

  CompositionPredictions p;
  for (const Audit& a : audits) {
    p.audits.emplace_back(a.node, scaled(*a.in, a.repeat));
  }
  // Per component, in the compiler's tap order.
  p.taps.resize(cp.channels.size());
  for (std::size_t c = 0; c < cp.channels.size(); ++c) {
    for (const CompiledChannel& cc : cp.channels[c]) {
      mdag::EdgeChecksum pred;
      switch (cc.role) {
        case CompiledChannel::Role::Edge:
        case CompiledChannel::Role::Spill:
          pred = scaled(*flow[static_cast<std::size_t>(cc.id)],
                        g.edge(cc.id).produced.repeat);
          break;
        case CompiledChannel::Role::Readback:
          pred = scaled(*flow[static_cast<std::size_t>(cc.id)],
                        g.edge(cc.id).consumed.repeat);
          break;
        case CompiledChannel::Role::Trunk: {
          const int e0 = stream_branches(g, cp, cc.id)[0];
          pred = scaled(*flow[static_cast<std::size_t>(e0)],
                        g.edge(e0).produced.repeat);
          break;
        }
        case CompiledChannel::Role::Zero:
          pred = mdag::zero_checksum(
              cp.zero_count[cp.zero_index(cc.id)]);
          break;
      }
      p.taps[c].push_back(pred);
    }
  }
  return p;
}

namespace {

template <typename T>
void prepare_predictions(ComposedState<T>& st) {
  CompositionPredictions p = predict_checksums(st.comp, st.cp);
  st.audits = std::move(p.audits);
  // Expectations per component, in the compiler's tap order (topological:
  // check() reports the FIRST divergent FIFO).
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  st.chk.assign(st.cp.channels.size(), verify::GraphChecker());
  for (std::size_t c = 0; c < st.cp.channels.size(); ++c) {
    st.chk[c].reset(st.comp.name());
    for (std::size_t k = 0; k < st.cp.channels[c].size(); ++k) {
      st.chk[c].expect(st.cp.channels[c][k].name, p.taps[c][k], eps);
    }
  }
}


template <typename T>
void check_results(const ComposedState<T>& st, double scale) {
  for (const verify::GraphChecker& chk : st.chk) {
    if (chk.active()) chk.check(scale);
  }
  const mdag::Mdag& g = st.comp.graph();
  for (const auto& [u, pred] : st.audits) {
    const mdag::Edge& e = g.edge(st.cp.in_edges(g, u)[0]);
    const std::int64_t n = e.consumed.is_matrix
                               ? e.consumed.rows * e.consumed.cols
                               : per_pass(e.consumed);
    verify::check_output<T>(pred, st.audit_label.c_str(),
                            st.comp.binding(u).out->cvec(n), scale);
  }
}

}  // namespace

// ---- Enqueue -------------------------------------------------------------

template <typename T>
Event Context::run_composition_async(const Composition<T>& comp) {
  const RoutineConfig& rc = config();
  auto st = std::make_shared<ComposedState<T>>(comp);
  // Rejection happens HERE, at enqueue: an unexecutable description
  // throws ConfigError with the validity diagnostic before any command
  // is queued.
  st->cp = mdag::compile(comp.graph(), comp.semantics(),
                         comp.compile_options(rc.width));
  st->audit_label = comp.name() + "_composed";

  const mdag::Mdag& g = st->comp.graph();
  const auto& sem = st->comp.semantics();
  for (int u = 0; u < g.node_count(); ++u) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto& b = st->comp.binding(u);
    if (node.type != mdag::NodeType::Interface) {
      if (node.kind == RoutineKind::Trsv) {
        const auto ins = st->cp.in_edges(g, u);
        const mdag::Node& aprod = g.node(g.edge(ins[0]).from);
        FBLAS_REQUIRE(
            aprod.type == mdag::NodeType::Interface &&
                sem[static_cast<std::size_t>(g.edge(ins[0]).from)].triangular,
            "composition: the TRSV A operand must come from a triangular "
            "reader");
        FBLAS_REQUIRE(!st->cp.edge_cut[static_cast<std::size_t>(ins[0])],
                      "composition: a triangular stream cannot round-trip "
                      "through DRAM");
      }
      continue;
    }
    if (s.is_output) {
      FBLAS_REQUIRE(b.out != nullptr || b.scalar != nullptr,
                    "composition: writer '" + node.name + "' has no binding");
    } else {
      FBLAS_REQUIRE(b.in != nullptr,
                    "composition: reader '" + node.name + "' has no binding");
      if (s.triangular) {
        FBLAS_REQUIRE(st->cp.out_edges(g, u).size() == 1,
                      "composition: a triangular reader feeds exactly one "
                      "TRSV");
      }
    }
  }

  // Scratch buffers for cut edges no interface writer already carries.
  // They are DRAM plumbing, not part of the command's semantic write set:
  // every value that crosses them is covered by the spill/readback taps.
  for (const mdag::CutEdge& cut : st->cp.cuts) {
    if (cut.writer >= 0) continue;
    st->scratch_of[cut.edge] = st->scratch.size();
    st->scratch.push_back(std::make_unique<Buffer<T>>(
        device(), cut.scratch_elems,
        static_cast<int>(st->scratch.size()) % device().bank_count()));
  }
  for (const auto& list : st->cp.channels) {
    for (const CompiledChannel& cc : list) {
      if (cc.role == CompiledChannel::Role::Readback) {
        st->readback_name[cc.id] = cc.name;
      } else if (cc.role == CompiledChannel::Role::Spill) {
        st->spill_name[cc.id] = cc.name;
      }
    }
  }

  Command command;
  command.label = "composition";
  for (int u = 0; u < g.node_count(); ++u) {
    if (g.node(u).type != mdag::NodeType::Interface) continue;
    const auto& b = st->comp.binding(u);
    if (b.in != nullptr) command.reads.push_back(b.in);
    if (b.out != nullptr) command.writes.push_back(b.out);
    if (b.scalar != nullptr) command.writes.push_back(b.scalar);
  }
  command.work = [this, st] {
    for (std::size_t c = 0; c < st->cp.order.size(); ++c) {
      run_component<T>(*this, *st, c);
    }
  };
  command.fallback = [st] { run_fallback<T>(*st); };
  if (rc.verification.enabled()) {
    command.verify_prepare = [st] { prepare_predictions<T>(*st); };
    command.verify_check = [st,
                            scale = rc.verification.tolerance_scale()] {
      check_results<T>(*st, scale);
    };
  }
  return enqueue(std::move(command));
}

template <typename T>
Event Context::run_composition_async(const Composition<T>& comp,
                                     const verify::Options& vo) {
  RoutineConfig rc = config();
  rc.verification = vo;
  ConfigGuard guard = with(rc);
  return run_composition_async(comp);
}

template CompositionPredictions predict_checksums<float>(
    const Composition<float>&, const mdag::Compiled&);
template CompositionPredictions predict_checksums<double>(
    const Composition<double>&, const mdag::Compiled&);
template Event Context::run_composition_async<float>(const Composition<float>&);
template Event Context::run_composition_async<double>(
    const Composition<double>&);
template Event Context::run_composition_async<float>(
    const Composition<float>&, const verify::Options&);
template Event Context::run_composition_async<double>(
    const Composition<double>&, const verify::Options&);

}  // namespace fblas::host
