// Level-3 host API: like Levels 1-2 (api_level1.cpp), every routine is
// one detail::lower_call on its descriptor in the per-kind module table
// (host/kinds.hpp) plus enqueue. lower_call checks the operand views and
// the systolic grid at enqueue, derives the command's hazard sets and
// corruption steering from the ports, builds reader -> module -> writer
// graphs with the refblas reference as the command's fallback, and arms
// the descriptor's ABFT Huang–Abraham checker when the captured config
// enables verification: row/column checksums of the output panel, or a
// residual checksum for the triangular solve.
#include "host/context.hpp"
#include "host/detail.hpp"

namespace fblas::host {

template <typename T>
Event Context::gemm_async(Transpose ta, Transpose tb, std::int64_t m,
                          std::int64_t n, std::int64_t k, T alpha,
                          const Buffer<T>& a, const Buffer<T>& b, T beta,
                          Buffer<T>& c) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Gemm,
      {.rows = m, .cols = n, .k = k, .alpha = alpha, .beta = beta,
       .trans = ta, .trans_b = tb},
      {{a}, {b}, {c}}));
}

template <typename T>
Event Context::syrk_async(Uplo uplo, Transpose trans, std::int64_t n,
                          std::int64_t k, T alpha, const Buffer<T>& a,
                          T beta, Buffer<T>& c) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Syrk,
      {.rows = n, .cols = n, .k = k, .alpha = alpha, .beta = beta,
       .trans = trans, .uplo = uplo},
      {{a}, {c}}));
}

template <typename T>
Event Context::syr2k_async(Uplo uplo, Transpose trans, std::int64_t n,
                           std::int64_t k, T alpha, const Buffer<T>& a,
                           const Buffer<T>& b, T beta, Buffer<T>& c) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Syr2k,
      {.rows = n, .cols = n, .k = k, .alpha = alpha, .beta = beta,
       .trans = trans, .uplo = uplo},
      {{a}, {b}, {c}}));
}

template <typename T>
Event Context::trsm_async(Side side, Uplo uplo, Transpose trans, Diag diag,
                          std::int64_t m, std::int64_t n, T alpha,
                          const Buffer<T>& a, Buffer<T>& b) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Trsm,
      {.rows = m, .cols = n, .alpha = alpha, .trans = trans, .uplo = uplo,
       .diag = diag, .side = side},
      {{a}, {b}}));
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
