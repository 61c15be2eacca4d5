// Context::run_composition — the generic interpreter behind the
// composition compiler. Everything a composition needs at run time
// (channel creation, module spawning, fan-outs, zero inputs, DRAM round
// trips for cut edges, checksum predictions, the refblas fallback) is
// derived here from mdag::Compiled, so an app is nothing but a
// host::Composition description. Compute nodes lower through the per-kind
// module table (host/kinds.hpp): its module, its ports (which pick the
// reader or writer of an edge through detail::read_port/write_port), its
// refblas fallback and its forward-replay prediction rule — the same
// descriptors single host calls and the codegen runner use.
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
#include "host/composition.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "host/kinds.hpp"
#include "mdag/compile.hpp"
#include "sim/frequency_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "verify/abft.hpp"
#include "verify/graph_checker.hpp"

namespace fblas::host {
namespace {

using kinds::Flow;
using kinds::PortKind;
using mdag::CompiledChannel;

std::int64_t per_pass(const mdag::StreamSig& s) {
  return s.repeat > 0 ? s.count / s.repeat : s.count;
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
  std::vector<std::pair<int, verify::EdgeChecksum>> audits;
};

/// The call compute node `u`'s module runs with: its coefficients and
/// flags, its shape read off its in-edges.
template <typename T>
kinds::Call<T> call_of(const Composition<T>& comp, const mdag::Compiled& cp,
                       int u) {
  const mdag::Mdag& g = comp.graph();
  const mdag::NodeSemantics& s = comp.semantics()[static_cast<std::size_t>(u)];
  const auto ins = cp.in_edges(g, u);
  kinds::Call<T> c;
  c.alpha = comp.alpha_of(u);
  c.beta = cp.has_zero(u) ? T(0) : comp.beta_of(u);
  c.trans = s.trans;
  c.uplo = s.uplo;
  c.diag = s.diag;
  c.width = cp.options.width;
  c.n = per_pass(g.edge(ins.back()).consumed);
  const mdag::StreamSig& a = g.edge(ins[0]).consumed;
  if (a.is_matrix) {
    c.rows = a.rows;
    c.cols = a.cols;
    c.tiling = a.sched.tile_order == Order::RowMajor
                   ? core::MatrixTiling::TilesByRows
                   : core::MatrixTiling::TilesByCols;
    c.tile_rows = a.sched.tile_rows;
    c.tile_cols = a.sched.tile_cols;
    c.elem_order = a.sched.elem_order;
  }
  return c;
}

/// The DRAM port edge `e` (signature `sig`) is read or written through:
/// the special order of compute node `end`'s port (a triangle, solve
/// order) when `end` is one of its endpoints, else a plain vector or
/// matrix stream of `sig`.
template <typename T>
kinds::Port edge_port(const Composition<T>& comp, const mdag::Compiled& cp,
                      int e, const mdag::StreamSig& sig, int end) {
  kinds::Port p;
  p.kind = sig.is_matrix ? PortKind::Matrix : PortKind::Vector;
  p.len = per_pass(sig);
  p.rows = sig.rows;
  p.cols = sig.cols;
  p.repeat = sig.repeat;
  p.sched = sig.sched;
  const mdag::Mdag& g = comp.graph();
  if (end < 0 || g.node(end).type != mdag::NodeType::Compute) return p;
  const RoutineKind kind = g.node(end).kind;
  std::size_t port = static_cast<std::size_t>(routine_info(kind).inputs);
  if (g.edge(e).to == end) {
    const auto ins = cp.in_edges(g, end);
    port = static_cast<std::size_t>(
        std::find(ins.begin(), ins.end(), e) - ins.begin());
  }
  const kinds::Port tp =
      kinds::kind_of<T>(kind).ports(call_of(comp, cp, end))[port];
  if (tp.kind != PortKind::Triangular && tp.kind != PortKind::SolveOrder) {
    return p;
  }
  FBLAS_REQUIRE(tp.kind != PortKind::SolveOrder || sig.repeat == 1,
                "composition: a TRSV b stream cannot be replayed");
  return tp;
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
  const auto in_channel = [&](int e) -> stream::Channel<T>& {
    return cp.edge_cut[static_cast<std::size_t>(e)]
               ? chan(st.readback_name.at(e))
               : chan(cp.edge_channel[static_cast<std::size_t>(e)]);
  };

  // Scalar collect targets must outlive run_graph.
  std::deque<std::pair<T*, std::vector<T>>> scalars;

  const auto& sem = st.comp.semantics();
  for (int u : cp.order[c]) {
    const mdag::Node& node = g.node(u);
    const mdag::NodeSemantics& s = sem[static_cast<std::size_t>(u)];
    const auto ins = cp.in_edges(g, u);
    const auto br = stream_branches(g, cp, u);

    // Consumer side of cut in-edges: re-read the materialized stream.
    for (int e : ins) {
      if (!cp.edge_cut[static_cast<std::size_t>(e)]) continue;
      const std::string& name = st.readback_name.at(e);
      sg.spawn(name, detail::read_port<T>(
                         edge_port(st.comp, cp, e, g.edge(e).consumed, u),
                         *cut_source(st, e), 1, width, chan(name), banks));
    }

    if (cp.has_zero(u)) {
      const std::size_t zi = cp.zero_index(u);
      sg.spawn(cp.zero_name[zi],
               stream::generate<T>(cp.zero_count[zi], T(0), width,
                                   chan(cp.zero_name[zi])));
    }

    stream::Channel<T>* dst = nullptr;
    if (!br.empty()) {
      dst = cp.has_trunk(u) ? &chan(cp.trunk_of(u)) : &branch_channel(br[0]);
    }
    if (node.type == mdag::NodeType::Interface && !s.is_output) {
      // All consumers may re-read the operand from DRAM directly.
      if (br.empty()) continue;
      const int end = br.size() == 1 ? g.edge(br[0]).to : -1;
      sg.spawn(node.name,
               detail::read_port<T>(
                   edge_port(st.comp, cp, br[0], g.edge(br[0]).produced, end),
                   *st.comp.binding(u).in, 1, width, *dst, banks));
    } else if (node.type == mdag::NodeType::Interface) {
      // Writer: drain the in-stream into its binding.
      const int e = ins[0];
      stream::Channel<T>& src = in_channel(e);
      const auto& b = st.comp.binding(u);
      if (b.scalar != nullptr) {
        auto& [dst, vals] = scalars.emplace_back(b.scalar, std::vector<T>());
        sg.spawn(node.name,
                 stream::collect<T>(g.edge(e).consumed.count, src, vals));
      } else {
        sg.spawn(node.name,
                 detail::write_port<T>(edge_port(st.comp, cp, e,
                                                 g.edge(e).consumed,
                                                 g.edge(e).from),
                                       *b.out, 1, width, src, banks));
      }
    } else {
      // Compute node: its in-edges, the synthesized zero, then its output.
      std::vector<stream::ChannelBase*> ports;
      for (int e : ins) ports.push_back(&in_channel(e));
      if (cp.has_zero(u)) {
        ports.push_back(&chan(cp.zero_name[cp.zero_index(u)]));
      }
      ports.push_back(dst);
      sg.spawn(node.name, kinds::kind_of<T>(node.kind).module(
                              call_of(st.comp, cp, u), ports.data()));
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
      const std::string& name = st.spill_name.at(e);
      sg.spawn(name + ".w",
               detail::write_port<T>(
                   edge_port(st.comp, cp, e, g.edge(e).produced, -1),
                   *st.scratch[st.scratch_of.at(e)], 1, width, chan(name),
                   banks));
    }
  }

  verify::GraphChecker* chk =
      c < st.chk.size() && st.chk[c].active() ? &st.chk[c] : nullptr;
  if (chk != nullptr) chk->arm(sg);
  ctx.run_graph(sg);
  if (chk != nullptr) chk->capture(sg);
  for (const auto& [dst, vals] : scalars) *dst = vals.at(0);
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
      if (s.triangular) continue;  // the solver reads the binding
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
      const kinds::Call<T> call = call_of(st.comp, cp, u);
      const kinds::Kind<T>& kind = kinds::kind_of<T>(node.kind);
      const auto ports = kind.ports(call);
      const auto inputs =
          static_cast<std::size_t>(routine_info(node.kind).inputs);
      std::vector<kinds::In<T>> in(inputs);
      for (std::size_t p = 0; p < ins.size(); ++p) {
        const kinds::Port& port = ports[p];
        const T* v = val[static_cast<std::size_t>(ins[p])].data();
        if (port.kind == PortKind::Triangular) {
          in[p].m = st.comp.binding(g.edge(ins[p]).from).in->cmat(port.rows,
                                                                  port.cols);
        } else if (port.kind == PortKind::Matrix) {
          in[p].m = MatrixView<const T>(v, port.rows, port.cols);
        } else {
          in[p].v = VectorView<const T>(v, port.len);
        }
      }
      // The output starts as the input it updates in place (a zero
      // stream when that input is synthesized).
      const kinds::Port& op = ports[inputs];
      std::vector<T> out(
          static_cast<std::size_t>(op.kind == PortKind::Matrix
                                       ? op.rows * op.cols
                                       : op.len),
          T(0));
      for (std::size_t p = 0; p < ins.size(); ++p) {
        if (ports[p].operand == op.operand) {
          out = val[static_cast<std::size_t>(ins[p])];
        }
      }
      kinds::Out<T> o;
      if (op.kind == PortKind::Scalar) {
        o.scalar = out.data();
      } else if (op.kind == PortKind::Matrix) {
        o.m = MatrixView<T>(out.data(), op.rows, op.cols);
      } else {
        o.v = VectorView<T>(out.data(), static_cast<std::int64_t>(out.size()));
      }
      kind.fallback(call, in.data(), &o);
      for (std::size_t i = 0; i < outs.size(); ++i) {
        val[static_cast<std::size_t>(outs[i])] =
            i + 1 == outs.size() ? std::move(out) : out;
      }
    }
  }
}

// ---- Checksum predictions ------------------------------------------------

template <typename T>
verify::EdgeChecksum scaled(const Flow<T>& f, std::int64_t repeat) {
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

    if (node.type == mdag::NodeType::Interface && !s.is_output) {
      const Buffer<T>& buf = *comp.binding(u).in;
      for (int e : outs) {
        const mdag::StreamSig& sig = g.edge(e).produced;
        // A triangular reader streams op(A)'s triangle, packed row-major.
        const kinds::Port tri =
            s.triangular ? edge_port(comp, cp, e, sig, g.edge(e).to)
                         : kinds::Port{};
        const std::int64_t tn = tri.len;
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
        f->vals.reserve(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < tn; ++i) {
          for (std::int64_t j = 0; j < tn; ++j) {
            if (tri.uplo == Uplo::Lower ? j > i : j < i) continue;
            f->vals.push_back(static_cast<double>(
                tri.trans == Transpose::None ? a(i, j) : a(j, i)));
          }
        }
      }
    } else if (node.type == mdag::NodeType::Interface) {
      if (comp.binding(u).out != nullptr) {
        audits.push_back({u, flow[static_cast<std::size_t>(ins[0])],
                          g.edge(ins[0]).consumed.repeat});
      }
    } else {
      std::vector<const Flow<T>*> in;
      for (int e : ins) in.push_back(flow[static_cast<std::size_t>(e)]);
      Flow<T>& out = store.emplace_back();
      kinds::kind_of<T>(node.kind).predict(call_of(comp, cp, u), in.data(),
                                           in.size(), out);
      out.n = static_cast<std::int64_t>(out.vals.size());
      pending.push_back(&out);
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
      verify::EdgeChecksum pred;
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
          pred = verify::zero_checksum(cp.zero_count[cp.zero_index(cc.id)]);
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
      // A triangle streams straight from its reader: same triangle and
      // transposition as the solver, and never through DRAM.
      const auto ins = st->cp.in_edges(g, u);
      const auto ports =
          kinds::kind_of<T>(node.kind).ports(call_of(st->comp, st->cp, u));
      for (std::size_t p = 0; p < ins.size(); ++p) {
        if (ports[p].kind != PortKind::Triangular) continue;
        const int ra = g.edge(ins[p]).from;
        const mdag::NodeSemantics& rs = sem[static_cast<std::size_t>(ra)];
        FBLAS_REQUIRE(
            g.node(ra).type == mdag::NodeType::Interface && rs.triangular &&
                rs.uplo == s.uplo && rs.trans == s.trans,
            "composition: the TRSV A operand must come from a triangular "
            "reader of the same triangle and transposition");
        FBLAS_REQUIRE(!st->cp.edge_cut[static_cast<std::size_t>(ins[p])],
                      "composition: a triangular stream cannot round-trip "
                      "through DRAM");
      }
      // An Upper solve takes b and leaves x in reverse order, which only
      // a reader or writer at the other end of an uncut edge streams; any
      // other route would solve a permuted system unseen by checksums.
      const auto outs = st->cp.out_edges(g, u);
      const auto inputs =
          static_cast<std::size_t>(routine_info(node.kind).inputs);
      for (std::size_t p = 0; p < ports.size(); ++p) {
        if (ports[p].kind != PortKind::SolveOrder ||
            ports[p].uplo != Uplo::Upper) {
          continue;
        }
        for (const int e : p < inputs ? std::vector<int>{ins.at(p)} : outs) {
          const mdag::Edge& edge = g.edge(e);
          const int end = p < inputs ? edge.from : edge.to;
          const std::size_t branches =
              p < inputs ? st->cp.out_edges(g, end).size() : outs.size();
          FBLAS_REQUIRE(
              !st->cp.edge_cut[static_cast<std::size_t>(e)] &&
                  g.node(end).type == mdag::NodeType::Interface &&
                  branches == 1,
              "composition: edge " + std::to_string(e) + " (" +
                  g.node(edge.from).name + "->" + g.node(edge.to).name +
                  ") carries an Upper TRSV's b or x, which streams in "
                  "reverse order: it must run uncut and unshared between "
                  "the solver and a reader or writer");
        }
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
        const auto outs = st->cp.out_edges(g, u);
        FBLAS_REQUIRE(outs.size() == 1 &&
                          edge_port(st->comp, st->cp, outs[0],
                                    g.edge(outs[0]).produced,
                                    g.edge(outs[0]).to)
                                  .kind == PortKind::Triangular,
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
