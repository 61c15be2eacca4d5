// Level-2 host API: like Level 1 (api_level1.cpp), every routine is one
// detail::lower_call on its descriptor in the per-kind module table
// (host/kinds.hpp) plus enqueue. The descriptor's ports give the buffer
// read/write sets and the steering of injected corruption onto the
// elements a call stores (for SYR and SYR2, one triangle); its checker
// gives the ABFT check (a dot-product checksum, a residual for TRSV, row
// sums for the rank updates) when the captured config enables
// verification.

#include "host/context.hpp"
#include "host/detail.hpp"

namespace fblas::host {

template <typename T>
Event Context::gemv_async(Transpose trans, std::int64_t rows,
                          std::int64_t cols, T alpha, const Buffer<T>& a,
                          const Buffer<T>& x, std::int64_t incx, T beta,
                          Buffer<T>& y, std::int64_t incy) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Gemv,
      {.rows = rows, .cols = cols, .alpha = alpha, .beta = beta,
       .trans = trans},
      {{a}, {x, incx}, {y, incy}}));
}

template <typename T>
Event Context::trsv_async(Uplo uplo, Transpose trans, Diag diag,
                          std::int64_t n, const Buffer<T>& a, Buffer<T>& x,
                          std::int64_t incx) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Trsv,
      {.n = n, .trans = trans, .uplo = uplo, .diag = diag}, {{a}, {x, incx}}));
}

template <typename T>
Event Context::ger_async(std::int64_t rows, std::int64_t cols, T alpha,
                         const Buffer<T>& x, std::int64_t incx,
                         const Buffer<T>& y, std::int64_t incy,
                         Buffer<T>& a) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Ger, {.rows = rows, .cols = cols, .alpha = alpha},
      {{x, incx}, {y, incy}, {a}}));
}

template <typename T>
Event Context::syr_async(Uplo uplo, std::int64_t n, T alpha,
                         const Buffer<T>& x, std::int64_t incx,
                         Buffer<T>& a) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Syr, {.n = n, .alpha = alpha, .uplo = uplo},
      {{x, incx}, {a}}));
}

template <typename T>
Event Context::syr2_async(Uplo uplo, std::int64_t n, T alpha,
                          const Buffer<T>& x, std::int64_t incx,
                          const Buffer<T>& y, std::int64_t incy,
                          Buffer<T>& a) {
  return enqueue(detail::lower_call<T>(
      *this, RoutineKind::Syr2, {.n = n, .alpha = alpha, .uplo = uplo},
      {{x, incx}, {y, incy}, {a}}));
}

#define FBLAS_HOST_L2_INSTANTIATE(T)                                          \
  template Event Context::gemv_async<T>(Transpose, std::int64_t,              \
                                        std::int64_t, T, const Buffer<T>&,    \
                                        const Buffer<T>&, std::int64_t, T,    \
                                        Buffer<T>&, std::int64_t);            \
  template Event Context::trsv_async<T>(Uplo, Transpose, Diag, std::int64_t,  \
                                        const Buffer<T>&, Buffer<T>&,         \
                                        std::int64_t);                        \
  template Event Context::ger_async<T>(std::int64_t, std::int64_t, T,         \
                                       const Buffer<T>&, std::int64_t,        \
                                       const Buffer<T>&, std::int64_t,        \
                                       Buffer<T>&);                           \
  template Event Context::syr_async<T>(Uplo, std::int64_t, T,                 \
                                       const Buffer<T>&, std::int64_t,        \
                                       Buffer<T>&);                           \
  template Event Context::syr2_async<T>(Uplo, std::int64_t, T,                \
                                        const Buffer<T>&, std::int64_t,       \
                                        const Buffer<T>&, std::int64_t,       \
                                        Buffer<T>&);

FBLAS_HOST_L2_INSTANTIATE(float)
FBLAS_HOST_L2_INSTANTIATE(double)
#undef FBLAS_HOST_L2_INSTANTIATE

}  // namespace fblas::host
