// A typed, buffer-bound MDAG description the composition compiler can
// execute: the user-facing half of the "one pipeline from graph
// description to verified streaming command" flow.
//
//   host::Composition<float> c("atax");
//   const int ra = c.input("read_A", a);
//   const int rx = c.input("read_x", x);
//   const int wy = c.output("write_y", y);
//   const int g1 = c.gemv("gemv", 1.0f, 0.0f);
//   const int g2 = c.gemv("gemv_T", 1.0f, 0.0f, Transpose::Trans);
//   c.connect(ra, g1, a_sig); ... c.connect(g2, wy, StreamSig::vec(m));
//   ctx.run_composition(c);
//
// A Composition owns nothing device-side: it is a plain value (an
// mdag::Mdag plus per-node semantics, exact-precision coefficients, and
// buffer bindings) that Context::run_composition_async copies into the
// enqueued command. mdag::compile() decides how it executes — channel
// sizing, sequential splits, DRAM round trips, fan-outs, zero inputs and
// the checksum tap plan all come from the compiler, never from the app.
// The one exception is pin_channel_depth(), which fixes one edge's FIFO
// depth by hand (to reproduce a deadlock, or to probe a sizing bound).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "host/buffer.hpp"
#include "mdag/compile.hpp"
#include "verify/graph_checker.hpp"

namespace fblas::host {

template <typename T>
class Composition {
 public:
  /// DRAM attachment of one interface node. Exactly one pointer is set:
  /// `in` for readers, `out` for buffer writers, `scalar` for a
  /// host-scalar writer (a DOT result).
  struct Binding {
    const Buffer<T>* in = nullptr;
    Buffer<T>* out = nullptr;
    T* scalar = nullptr;
  };

  explicit Composition(std::string name) : name_(std::move(name)) {}

  // --- Interface nodes ----------------------------------------------------

  /// Reader streaming `buf` (vector or tiled matrix per the out-edge
  /// signatures declared on it).
  int input(const std::string& node, const Buffer<T>& buf) {
    const int id = graph_.add_interface(node);
    append(node, Binding{&buf, nullptr, nullptr});
    return id;
  }

  /// Reader streaming the `uplo` triangle of op(A) in solve order (the
  /// TRSV A operand). `buf` holds the full n x n matrix dense; the edge
  /// carries n(n+1)/2 elements.
  int input_triangular(const std::string& node, const Buffer<T>& buf,
                       Uplo uplo, Transpose trans = Transpose::None) {
    const int id = input(node, buf);
    sem_.back().triangular = true;
    sem_.back().uplo = uplo;
    sem_.back().trans = trans;
    return id;
  }

  /// Writer materializing its one in-edge into `buf`.
  int output(const std::string& node, Buffer<T>& buf) {
    const int id = graph_.add_interface(node);
    append(node, Binding{nullptr, &buf, nullptr});
    sem_.back().is_output = true;
    return id;
  }

  /// Writer collecting a scalar stream (count 1) into `*result`.
  int output_scalar(const std::string& node, T* result) {
    FBLAS_REQUIRE(result != nullptr,
                  "composition: scalar output needs a destination");
    const int id = graph_.add_interface(node);
    append(node, Binding{nullptr, nullptr, result});
    sem_.back().is_output = true;
    return id;
  }

  // --- Compute nodes (in-edge ports follow mdag::NodeSemantics) ----------

  /// y = alpha op(A) x + beta y0; ports [A, x, y0]. Without a y0 edge the
  /// compiler synthesizes a zero stream and forces beta = 0.
  int gemv(const std::string& node, T alpha, T beta,
           Transpose trans = Transpose::None) {
    const int id = graph_.add_compute(node, RoutineKind::Gemv, 40);
    append_compute(alpha, beta);
    sem_.back().trans = trans;
    return id;
  }

  /// out = A0 + alpha x y^T; ports [A0, x, y].
  int ger(const std::string& node, T alpha) {
    const int id = graph_.add_compute(node, RoutineKind::Ger, 20);
    append_compute(alpha, T(0));
    return id;
  }

  /// Solves op(A) x = b; ports [A (triangular reader), b]. `uplo` is the
  /// stored triangle of the bound matrix.
  int trsv(const std::string& node, Uplo uplo,
           Transpose trans = Transpose::None, Diag diag = Diag::NonUnit) {
    const int id = graph_.add_compute(node, RoutineKind::Trsv, 40);
    append_compute(T(1), T(0));
    sem_.back().uplo = uplo;
    sem_.back().trans = trans;
    sem_.back().diag = diag;
    return id;
  }

  /// out = alpha x + y; ports [x, y].
  int axpy(const std::string& node, T alpha) {
    const int id = graph_.add_compute(node, RoutineKind::Axpy, 12);
    append_compute(alpha, T(0));
    return id;
  }

  /// out = alpha x; port [x].
  int scal(const std::string& node, T alpha) {
    const int id = graph_.add_compute(node, RoutineKind::Scal, 8);
    append_compute(alpha, T(0));
    return id;
  }

  /// out = x^T y (a count-1 stream); ports [x, y].
  int dot(const std::string& node) {
    const int id = graph_.add_compute(node, RoutineKind::Dot, 30);
    append_compute(T(1), T(0));
    return id;
  }

  // --- Edges --------------------------------------------------------------

  int connect(int from, int to, mdag::StreamSig sig) {
    return graph_.connect(from, to, sig);
  }
  /// Mismatched endpoint signatures: a pure replay/reschedule mismatch is
  /// legal and compiles to a DRAM round trip (forced cut); anything else
  /// is rejected at enqueue.
  int connect(int from, int to, mdag::StreamSig produced,
              mdag::StreamSig consumed) {
    return graph_.connect(from, to, produced, consumed);
  }

  // --- Execution knobs ----------------------------------------------------

  Composition& max_channel_depth(std::int64_t depth) {
    max_channel_depth_ = depth;
    return *this;
  }
  /// Rejects (at enqueue, with the validity diagnostic) any composition
  /// the compiler cannot execute as a single fully-streaming component.
  Composition& require_streaming(bool on = true) {
    require_streaming_ = on;
    return *this;
  }
  /// Prefers a sequential split over channel sizing when the graph is
  /// not a multitree (the Fig. 9 GEMVER schedule: cut instead of
  /// buffering B on chip).
  Composition& prefer_split(bool on = true) {
    prefer_split_ = on;
    return *this;
  }
  /// Pins the FIFO depth of `edge` (an id returned by connect). The
  /// compiler gives that channel exactly `depth` elements and neither
  /// sizes it, splits the graph around it, nor rejects it: a pin below
  /// the Sec. V lag makes the run throw DeadlockError (the ATAX demo:
  /// pinning the direct A channel under M*TN stalls forever). A pin < 1,
  /// or a pin on an edge the plan cuts through DRAM, is a ConfigError at
  /// enqueue.
  Composition& pin_channel_depth(int edge, std::int64_t depth) {
    FBLAS_REQUIRE(edge >= 0 && edge < static_cast<int>(graph_.edges().size()),
                  "composition: no edge " + std::to_string(edge) + " to pin");
    graph_.edge(edge).channel_depth = depth;
    return *this;
  }

  // --- Accessors (the compiler/runtime side) ------------------------------

  const std::string& name() const { return name_; }
  const mdag::Mdag& graph() const { return graph_; }
  const std::vector<mdag::NodeSemantics>& semantics() const { return sem_; }
  const Binding& binding(int node) const {
    return bind_[static_cast<std::size_t>(node)];
  }
  /// The coefficients, in the composition's own precision (the modules,
  /// the fallback and the prediction pass all read these).
  T alpha_of(int node) const { return alpha_[static_cast<std::size_t>(node)]; }
  T beta_of(int node) const { return beta_[static_cast<std::size_t>(node)]; }
  std::int64_t max_channel_depth() const { return max_channel_depth_; }
  bool streaming_required() const { return require_streaming_; }
  bool split_preferred() const { return prefer_split_; }
  /// The options Context::run_composition compiles this description
  /// with, for modules of vector width `width`.
  mdag::CompileOptions compile_options(int width) const {
    mdag::CompileOptions co;
    co.width = width;
    co.max_channel_depth = max_channel_depth_;
    co.prefer_sizing = !prefer_split_;
    co.allow_split = !require_streaming_;
    return co;
  }

 private:
  void append(const std::string& operand, Binding b) {
    mdag::NodeSemantics s;
    s.operand = operand;
    sem_.push_back(std::move(s));
    bind_.push_back(b);
    alpha_.push_back(T(1));
    beta_.push_back(T(0));
  }
  void append_compute(T alpha, T beta) {
    sem_.emplace_back();
    bind_.push_back(Binding{});
    alpha_.push_back(alpha);
    beta_.push_back(beta);
  }

  std::string name_;
  mdag::Mdag graph_;
  std::vector<mdag::NodeSemantics> sem_;
  std::vector<Binding> bind_;
  std::vector<T> alpha_, beta_;
  std::int64_t max_channel_depth_ = 1 << 16;
  bool require_streaming_ = false;
  bool prefer_split_ = false;
};

/// What a verified run of a composition is checked against.
struct CompositionPredictions {
  /// Per compiled component, the predicted checksum of every tapped
  /// channel, parallel to mdag::Compiled::channels[c].
  std::vector<std::vector<verify::EdgeChecksum>> taps;
  /// Per buffer writer (node id), the predicted checksum of the
  /// materialized output (catches corruption past the last FIFO tap).
  std::vector<std::pair<int, verify::EdgeChecksum>> audits;
};

/// The prediction pass of a verified composition: every edge replayed
/// forward in double over the bound DRAM operands, in topological order,
/// and reduced to (sum, magnitude, terms). `cp` is mdag::compile's plan
/// for `comp`. Context::run_composition runs this as the command's
/// verify_prepare hook.
template <typename T>
CompositionPredictions predict_checksums(const Composition<T>& comp,
                                         const mdag::Compiled& cp);

}  // namespace fblas::host
