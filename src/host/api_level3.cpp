// Level-3 host API: like Levels 1-2 (api_level1.cpp), every routine
// lowers through its descriptor in the per-kind module table
// (host/kinds.hpp) via detail::lower_call, which checks the operand views
// and the systolic grid at enqueue, derives the command's hazard sets and
// corruption steering from the ports, and builds reader -> module ->
// writer graphs with the refblas reference as the command's fallback.
//
// What stays here is, when the captured config enables verification,
// each call's ABFT Huang–Abraham checksum checkers: row/column checksums
// of the output panel, or a residual checksum for the triangular solve.
#include "host/context.hpp"
#include "host/detail.hpp"
#include "verify/abft.hpp"

namespace fblas::host {

template <typename T>
Event Context::gemm_async(Transpose ta, Transpose tb, std::int64_t m,
                          std::int64_t n, std::int64_t k, T alpha,
                          const Buffer<T>& a, const Buffer<T>& b, T beta,
                          Buffer<T>& c) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Gemm,
      {.rows = m, .cols = n, .k = k, .alpha = alpha, .beta = beta,
       .trans = ta, .trans_b = tb},
      {{a}, {b}, {c}});
  const bool at = ta == Transpose::Trans, bt = tb == Transpose::Trans;
  detail::verify_with<verify::GemmCheck<T>>(
      *this, cmd,
      [=, &a, &b, &c] {
        return verify::gemm_prepare<T>(
            ta, tb, m, n, k, alpha, a.cmat(at ? k : m, at ? m : k),
            b.cmat(bt ? n : k, bt ? k : n), beta, c.cmat(m, n));
      },
      [=, &c](const verify::GemmCheck<T>& chk, double scale) {
        verify::gemm_check<T>(chk, c.cmat(m, n), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::syrk_async(Uplo uplo, Transpose trans, std::int64_t n,
                          std::int64_t k, T alpha, const Buffer<T>& a,
                          T beta, Buffer<T>& c) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Syrk,
      {.rows = n, .cols = n, .k = k, .alpha = alpha, .beta = beta,
       .trans = trans, .uplo = uplo},
      {{a}, {c}});
  const std::int64_t rows = trans == Transpose::None ? n : k;
  const std::int64_t cols = trans == Transpose::None ? k : n;
  detail::verify_with<verify::RowSumCheck>(
      *this, cmd,
      [=, &a, &c] {
        return verify::syrk_prepare<T>(uplo, trans, n, k, alpha,
                                       a.cmat(rows, cols), beta,
                                       c.cmat(n, n));
      },
      [=, &c](const verify::RowSumCheck& chk, double scale) {
        verify::check_rowsums<T>(chk, "syrk", c.cmat(n, n), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::syr2k_async(Uplo uplo, Transpose trans, std::int64_t n,
                           std::int64_t k, T alpha, const Buffer<T>& a,
                           const Buffer<T>& b, T beta, Buffer<T>& c) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Syr2k,
      {.rows = n, .cols = n, .k = k, .alpha = alpha, .beta = beta,
       .trans = trans, .uplo = uplo},
      {{a}, {b}, {c}});
  const std::int64_t rows = trans == Transpose::None ? n : k;
  const std::int64_t cols = trans == Transpose::None ? k : n;
  detail::verify_with<verify::RowSumCheck>(
      *this, cmd,
      [=, &a, &b, &c] {
        return verify::syr2k_prepare<T>(uplo, trans, n, k, alpha,
                                        a.cmat(rows, cols), b.cmat(rows, cols),
                                        beta, c.cmat(n, n));
      },
      [=, &c](const verify::RowSumCheck& chk, double scale) {
        verify::check_rowsums<T>(chk, "syr2k", c.cmat(n, n), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::trsm_async(Side side, Uplo uplo, Transpose trans, Diag diag,
                          std::int64_t m, std::int64_t n, T alpha,
                          const Buffer<T>& a, Buffer<T>& b) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Trsm,
      {.rows = m, .cols = n, .alpha = alpha, .trans = trans, .uplo = uplo,
       .diag = diag, .side = side},
      {{a}, {b}});
  // Residual check: the solve overwrites B with X, so capture the
  // right-hand-side checksums alpha*(B e) first; afterwards op(A)(X e)
  // must reproduce them.
  const std::int64_t adim = side == Side::Left ? m : n;
  detail::verify_with<verify::TrsmCheck>(
      *this, cmd,
      [=, &b] {
        return verify::trsm_prepare<T>(side, m, n, alpha, b.cmat(m, n));
      },
      [=, &a, &b](const verify::TrsmCheck& chk, double scale) {
        verify::trsm_check<T>(chk, side, uplo, trans, diag, m, n,
                              a.cmat(adim, adim), b.cmat(m, n), scale);
      });
  return enqueue(std::move(cmd));
}

#define FBLAS_HOST_L3_INSTANTIATE(T)                                          \
  template Event Context::gemm_async<T>(Transpose, Transpose, std::int64_t,   \
                                        std::int64_t, std::int64_t, T,        \
                                        const Buffer<T>&, const Buffer<T>&,   \
                                        T, Buffer<T>&);                       \
  template Event Context::syrk_async<T>(Uplo, Transpose, std::int64_t,        \
                                        std::int64_t, T, const Buffer<T>&,    \
                                        T, Buffer<T>&);                       \
  template Event Context::syr2k_async<T>(Uplo, Transpose, std::int64_t,       \
                                         std::int64_t, T, const Buffer<T>&,   \
                                         const Buffer<T>&, T, Buffer<T>&);    \
  template Event Context::trsm_async<T>(Side, Uplo, Transpose, Diag,          \
                                        std::int64_t, std::int64_t, T,        \
                                        const Buffer<T>&, Buffer<T>&);

FBLAS_HOST_L3_INSTANTIATE(float)
FBLAS_HOST_L3_INSTANTIATE(double)
#undef FBLAS_HOST_L3_INSTANTIATE

}  // namespace fblas::host
