// Checksum rules for module DAGs (streaming ABFT).
//
// A Huang–Abraham checksum of an edge is a weighted sum w^T v of the
// values v that cross it. For the *linear* modules the paper composes
// (GEMV, AXPY, SCAL, interface readers, fan-outs, zero generators), a
// weight vector on a module's output edge pulls back to weight vectors
// on its input edges, because
//
//   GEMV   y = alpha op(A) x + beta y0
//          w^T y = alpha (op(A)^T w)^T x + beta w^T y0
//   AXPY   z = alpha x + y          w^T z = alpha w^T x + w^T y
//   SCAL   y = alpha x              w^T y = alpha w^T x
//   FANOUT each copy carries the input checksum unchanged
//   READ   the edge checksum is computable from the host operand
//
// Composed from a graph's outputs to its DRAM inputs, these pullbacks
// would predict every edge from the materialized inputs alone. DOT and
// GER are bilinear and TRSV has no sparse pullback; their rules
// recompute in double over the host operands instead.
//
// The composition compiler does not compose these rules. Its prediction
// pass (host::predict_checksums) replays every edge forward in double
// over the bound operands, holding one double vector per compute node's
// output on the host, and reduces each edge to (sum, magnitude, terms).
// It calls only zero_checksum and, for a TRSV whose b is a materialized
// operand, trsv_propagate. The other rules are the algebra that replay
// rests on; tests/test_verify.cpp checks them against realized streams.
//
// verify::GraphChecker pairs predictions with the channel taps
// (stream::ChannelBase) that observe the realized checksums, localizing
// a divergence to the first corrupted edge.
//
// All arithmetic is double regardless of the stream precision, so the
// rules' own rounding stays negligible next to the bound they feed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/view.hpp"

namespace fblas::mdag {

/// Predicted checksum of one edge: the weighted sum, the matching
/// magnitude sum (|w_i v_i|, what the error bound is relative to) and the
/// accumulation length the bound grows with.
struct EdgeChecksum {
  double pred = 0.0;
  double mag = 0.0;
  std::int64_t terms = 0;
};

/// The all-ones weight vector (plain sum checksum).
std::vector<double> ones(std::int64_t n);

// --- interface-node rules (checksums of materialized operands) ----------

/// Checksum of a vector edge under unit weights; `repeat` > 1 models a
/// replayed operand (the reader streams it that many times, so the edge
/// carries `repeat` copies).
template <typename T>
EdgeChecksum vec_checksum(VectorView<const T> v, std::int64_t repeat = 1);

/// Checksum of a vector edge under explicit weights (w.size() == v.size()
/// per pass; the weights repeat with the operand).
template <typename T>
EdgeChecksum weighted_vec_checksum(VectorView<const T> v,
                                   const std::vector<double>& w,
                                   std::int64_t repeat = 1);

/// Checksum of a matrix edge (every element, unit weights) — the A
/// operand of a GEMV, or any fan-out copy of it.
template <typename T>
EdgeChecksum mat_checksum(MatrixView<const T> a);

/// Checksum of a zero-generator edge of n elements: exactly zero.
EdgeChecksum zero_checksum(std::int64_t n);

// --- compute-node rules --------------------------------------------------

/// GEMV weight pullback: the weight w on the output edge of
/// y = op(A) x becomes op(A)^T w on the x edge. (Scaling by alpha is
/// applied by the caller via `combine`.) w.size() is op(A)'s row count;
/// the result's size is op(A)'s column count.
template <typename T>
std::vector<double> gemv_pullback(Transpose trans, MatrixView<const T> a,
                                  const std::vector<double>& w);

/// Linear combination of predicted checksums: ca*a + cb*b, with
/// magnitudes and term counts accumulated accordingly. Covers the AXPY
/// rule (z = alpha x + y -> combine(x, y, alpha, 1)) and the beta*y0 term
/// of GEMV.
EdgeChecksum combine(const EdgeChecksum& a, const EdgeChecksum& b, double ca,
                     double cb);

/// SCAL rule: y = alpha x.
EdgeChecksum scale(const EdgeChecksum& a, double alpha);

/// DOT rule (bilinear, single-phase): recomputes x^T y in double over the
/// host operands.
template <typename T>
EdgeChecksum dot_checksum(VectorView<const T> x, VectorView<const T> y);

/// GER rule (rank-1 update, bilinear like DOT): for
/// A = alpha x y^T + A0, the unit-weight output checksum is
///
///   e^T A e = alpha (e^T x)(y^T e) + e^T A0 e
///
/// so it follows from the *per-pass* (repeat == 1) checksums of the x and
/// y edges and the checksum of the streamed-in A0 — the first module-DAG
/// rule beyond the linear set (GEMV/AXPY/SCAL) and DOT. The magnitude
/// bound uses |alpha| (Σ|x|)(Σ|y|), conservative for the |Σ| the residual
/// actually sees, and the term count x.terms * y.terms matches the
/// alpha x_i y_j products accumulated into the output stream.
EdgeChecksum ger_propagate(const EdgeChecksum& a0, const EdgeChecksum& x,
                           const EdgeChecksum& y, double alpha);

/// TRSV rule (residual-style, the last composition building block): for
/// x = op(A)^{-1} b the output checksum cannot be pulled back linearly
/// without inverting A, so the rule re-solves the triangular system in
/// double over the host operands — the same few O(n^2) flops the residual
/// check of verify::trsv_check spends — and predicts e^T x directly.
/// `uplo` is the stored triangle of `a`; `trans` selects op(A). The term
/// count is n^2, covering the up-to-n(n+1)/2 MACs plus n divisions the
/// streaming module accumulates. The bound does NOT model the
/// condition-number amplification of a solve; like the TRSM/TRSV result
/// checks it is calibrated for well-conditioned (e.g. diagonally
/// dominant) systems, which exponent-scale stream corruption exceeds by
/// many orders of magnitude regardless.
template <typename T>
EdgeChecksum trsv_propagate(Uplo uplo, Transpose trans, Diag diag,
                            MatrixView<const T> a, VectorView<const T> b);

}  // namespace fblas::mdag
