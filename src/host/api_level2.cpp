// Level-2 host API: like Level 1 (api_level1.cpp), every routine lowers
// through its descriptor in the per-kind module table (host/kinds.hpp)
// via detail::lower_call, which also derives its buffer read/write sets
// and, for SYR and SYR2, the steering of injected corruption onto the
// stored triangle. Each call keeps, when the captured config enables
// verification, its ABFT dot-product / rank-update checksum checkers.

#include "host/context.hpp"
#include "host/detail.hpp"
#include "verify/abft.hpp"

namespace fblas::host {

template <typename T>
Event Context::gemv_async(Transpose trans, std::int64_t rows,
                          std::int64_t cols, T alpha, const Buffer<T>& a,
                          const Buffer<T>& x, std::int64_t incx, T beta,
                          Buffer<T>& y, std::int64_t incy) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Gemv,
      {.rows = rows, .cols = cols, .alpha = alpha, .beta = beta,
       .trans = trans},
      {{a}, {x, incx}, {y, incy}});
  const std::int64_t xlen = trans == Transpose::None ? cols : rows;
  const std::int64_t ylen = trans == Transpose::None ? rows : cols;
  detail::verify_with<verify::ScalarCheck>(
      *this, cmd,
      [=, &a, &x, &y] {
        return verify::gemv_prepare<T>(trans, rows, cols, alpha,
                                       a.cmat(rows, cols), x.cvec(xlen, incx),
                                       beta, y.cvec(ylen, incy));
      },
      [=, &y](const verify::ScalarCheck& chk, double scale) {
        verify::check_sum<T>(chk, "gemv", y.cvec(ylen, incy), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::trsv_async(Uplo uplo, Transpose trans, Diag diag,
                          std::int64_t n, const Buffer<T>& a, Buffer<T>& x,
                          std::int64_t incx) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Trsv,
      {.n = n, .trans = trans, .uplo = uplo, .diag = diag}, {{a}, {x, incx}});
  // Residual check: the solve overwrites b with x, so capture e^T b
  // first; afterwards e^T (op(A) x) must reproduce it.
  detail::verify_with<verify::ScalarCheck>(
      *this, cmd,
      [=, &x] { return verify::trsv_prepare<T>(n, x.cvec(n, incx)); },
      [=, &a, &x](const verify::ScalarCheck& chk, double scale) {
        verify::trsv_check<T>(chk, uplo, trans, diag, n, a.cmat(n, n),
                              x.cvec(n, incx), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::ger_async(std::int64_t rows, std::int64_t cols, T alpha,
                         const Buffer<T>& x, std::int64_t incx,
                         const Buffer<T>& y, std::int64_t incy,
                         Buffer<T>& a) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Ger, {.rows = rows, .cols = cols, .alpha = alpha},
      {{x, incx}, {y, incy}, {a}});
  detail::verify_with<verify::RowSumCheck>(
      *this, cmd,
      [=, &x, &y, &a] {
        return verify::ger_prepare<T>(rows, cols, alpha, x.cvec(rows, incx),
                                      y.cvec(cols, incy), a.cmat(rows, cols));
      },
      [=, &a](const verify::RowSumCheck& chk, double scale) {
        verify::check_rowsums<T>(chk, "ger", a.cmat(rows, cols), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::syr_async(Uplo uplo, std::int64_t n, T alpha,
                         const Buffer<T>& x, std::int64_t incx,
                         Buffer<T>& a) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Syr, {.n = n, .alpha = alpha, .uplo = uplo},
      {{x, incx}, {a}});
  detail::verify_with<verify::RowSumCheck>(
      *this, cmd,
      [=, &x, &a] {
        return verify::syr_prepare<T>(uplo, n, alpha, x.cvec(n, incx),
                                      a.cmat(n, n));
      },
      [=, &a](const verify::RowSumCheck& chk, double scale) {
        verify::check_rowsums<T>(chk, "syr", a.cmat(n, n), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::syr2_async(Uplo uplo, std::int64_t n, T alpha,
                          const Buffer<T>& x, std::int64_t incx,
                          const Buffer<T>& y, std::int64_t incy,
                          Buffer<T>& a) {
  Command cmd = detail::lower_call<T>(
      *this, RoutineKind::Syr2, {.n = n, .alpha = alpha, .uplo = uplo},
      {{x, incx}, {y, incy}, {a}});
  detail::verify_with<verify::RowSumCheck>(
      *this, cmd,
      [=, &x, &y, &a] {
        return verify::syr2_prepare<T>(uplo, n, alpha, x.cvec(n, incx),
                                       y.cvec(n, incy), a.cmat(n, n));
      },
      [=, &a](const verify::RowSumCheck& chk, double scale) {
        verify::check_rowsums<T>(chk, "syr2", a.cmat(n, n), scale);
      });
  return enqueue(std::move(cmd));
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
