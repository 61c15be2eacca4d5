// Level-1 host API: every routine is one detail::lower_call on its
// descriptor in the per-kind module table (host/kinds.hpp) plus enqueue.
// lower_call checks the operand views at enqueue, derives the buffer read
// and write sets (hazard tracking) and corruption steering from the
// ports, builds reader -> module -> writer graphs with the refblas
// reference as the command's fallback, and, when the captured config
// enables verification, arms the descriptor's ABFT checker (rotm and
// sdsdot have none; kinds.hpp says why).
#include "host/context.hpp"
#include "host/detail.hpp"
#include "host/kinds.hpp"

namespace fblas::host {

// The scalar setup routines run their module synchronously, fed from and
// collected to host values.
template <typename T>
ref::Givens<T> Context::rotg(T& a, T& b) {
  stream::Graph g(mode_);
  kinds::Fed<T> res;
  kinds::build_fed<T>(g, RoutineKind::Rotg, {}, "rotg", {{a, b}}, res);
  run_graph(g);
  const std::vector<T>& r = res.out[0];
  a = r[0];
  b = r[1];
  return {r[2], r[3]};
}

template <typename T>
ref::RotmParam<T> Context::rotmg(T& d1, T& d2, T& x1, T y1) {
  stream::Graph g(mode_);
  kinds::Fed<T> res;
  kinds::build_fed<T>(g, RoutineKind::Rotmg, {}, "rotmg", {{d1, d2, x1, y1}},
                      res);
  run_graph(g);
  const std::vector<T>& r = res.out[0];
  d1 = r[5];
  d2 = r[6];
  x1 = r[7];
  return {r[0], r[1], r[2], r[3], r[4]};
}

template <typename T>
Event Context::rot_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                         Buffer<T>& y, std::int64_t incy, T c, T s) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Rot,
                                       {.n = n, .c = c, .s = s},
                                       {{x, incx}, {y, incy}}));
}

template <typename T>
Event Context::rotm_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                          Buffer<T>& y, std::int64_t incy,
                          ref::RotmParam<T> p) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Rotm,
                                       {.n = n, .param = p},
                                       {{x, incx}, {y, incy}}));
}

template <typename T>
Event Context::swap_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                          Buffer<T>& y, std::int64_t incy) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Swap, {.n = n},
                                       {{x, incx}, {y, incy}}));
}

template <typename T>
Event Context::scal_async(std::int64_t n, T alpha, Buffer<T>& x,
                          std::int64_t incx) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Scal,
                                       {.n = n, .alpha = alpha}, {{x, incx}}));
}

template <typename T>
Event Context::copy_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, Buffer<T>& y,
                          std::int64_t incy) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Copy, {.n = n},
                                       {{x, incx}, {y, incy}}));
}

template <typename T>
Event Context::axpy_async(std::int64_t n, T alpha, const Buffer<T>& x,
                          std::int64_t incx, Buffer<T>& y,
                          std::int64_t incy) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Axpy,
                                       {.n = n, .alpha = alpha},
                                       {{x, incx}, {y, incy}}));
}

template <typename T>
Event Context::dot_async(std::int64_t n, const Buffer<T>& x,
                         std::int64_t incx, const Buffer<T>& y,
                         std::int64_t incy, T* result) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Dot, {.n = n},
                                       {{x, incx}, {y, incy}, {result}}));
}

Event Context::sdsdot_async(std::int64_t n, float sb, const Buffer<float>& x,
                            std::int64_t incx, const Buffer<float>& y,
                            std::int64_t incy, float* result) {
  return enqueue(detail::lower_call<float>(*this, RoutineKind::Sdsdot,
                                           {.n = n, .alpha = sb},
                                           {{x, incx}, {y, incy}, {result}}));
}

template <typename T>
Event Context::nrm2_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, T* result) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Nrm2, {.n = n},
                                       {{x, incx}, {result}}));
}

template <typename T>
Event Context::asum_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, T* result) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Asum, {.n = n},
                                       {{x, incx}, {result}}));
}

template <typename T>
Event Context::iamax_async(std::int64_t n, const Buffer<T>& x,
                           std::int64_t incx, std::int64_t* result) {
  return enqueue(detail::lower_call<T>(*this, RoutineKind::Iamax, {.n = n},
                                       {{x, incx}, {result}}));
}

// Explicit instantiations for the two supported precisions.
#define FBLAS_HOST_L1_INSTANTIATE(T)                                          \
  template ref::Givens<T> Context::rotg<T>(T&, T&);                           \
  template ref::RotmParam<T> Context::rotmg<T>(T&, T&, T&, T);                \
  template Event Context::rot_async<T>(std::int64_t, Buffer<T>&,              \
                                       std::int64_t, Buffer<T>&,              \
                                       std::int64_t, T, T);                   \
  template Event Context::rotm_async<T>(std::int64_t, Buffer<T>&,             \
                                        std::int64_t, Buffer<T>&,             \
                                        std::int64_t, ref::RotmParam<T>);     \
  template Event Context::swap_async<T>(std::int64_t, Buffer<T>&,             \
                                        std::int64_t, Buffer<T>&,             \
                                        std::int64_t);                        \
  template Event Context::scal_async<T>(std::int64_t, T, Buffer<T>&,          \
                                        std::int64_t);                        \
  template Event Context::copy_async<T>(std::int64_t, const Buffer<T>&,       \
                                        std::int64_t, Buffer<T>&,             \
                                        std::int64_t);                        \
  template Event Context::axpy_async<T>(std::int64_t, T, const Buffer<T>&,    \
                                        std::int64_t, Buffer<T>&,             \
                                        std::int64_t);                        \
  template Event Context::dot_async<T>(std::int64_t, const Buffer<T>&,        \
                                       std::int64_t, const Buffer<T>&,        \
                                       std::int64_t, T*);                     \
  template Event Context::nrm2_async<T>(std::int64_t, const Buffer<T>&,       \
                                        std::int64_t, T*);                    \
  template Event Context::asum_async<T>(std::int64_t, const Buffer<T>&,       \
                                        std::int64_t, T*);                    \
  template Event Context::iamax_async<T>(std::int64_t, const Buffer<T>&,      \
                                         std::int64_t, std::int64_t*);

FBLAS_HOST_L1_INSTANTIATE(float)
FBLAS_HOST_L1_INSTANTIATE(double)
#undef FBLAS_HOST_L1_INSTANTIATE

}  // namespace fblas::host
