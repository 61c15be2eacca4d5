// Level-1 host API: every routine lowers through its descriptor in the
// per-kind module table (host/kinds.hpp) via detail::lower_call, which
// checks the operand views at enqueue, derives the buffer read and write
// sets (hazard tracking) from the ports, and builds reader -> module ->
// writer graphs with the refblas reference as the command's fallback.
//
// What stays here is what differs per call: when the captured config
// enables verification, the ABFT checksum checkers. rotm and sdsdot carry no
// checker: rotm's modified-rotation flag cases have no single linear
// checksum identity, and sdsdot's mixed-precision accumulation has no
// tight double-precision bound — both stay covered by fault *detection*
// (taint, watchdog) rather than result verification.
#include "host/context.hpp"
#include "host/detail.hpp"
#include "host/kinds.hpp"
#include "verify/abft.hpp"

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
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Rot,
                                      {.n = n, .c = c, .s = s},
                                      {{x, incx}, {y, incy}});
  detail::verify_with<verify::PairCheck>(
      *this, cmd,
      [=, &x, &y] {
        return verify::rot_prepare<T>(x.cvec(n, incx), y.cvec(n, incy), c, s);
      },
      [=, &x, &y](const verify::PairCheck& chk, double scale) {
        verify::check_sum<T>(chk.x, "rot(x)", x.cvec(n, incx), scale);
        verify::check_sum<T>(chk.y, "rot(y)", y.cvec(n, incy), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::rotm_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                          Buffer<T>& y, std::int64_t incy,
                          ref::RotmParam<T> p) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Rotm,
                                      {.n = n, .param = p},
                                      {{x, incx}, {y, incy}});
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::swap_async(std::int64_t n, Buffer<T>& x, std::int64_t incx,
                          Buffer<T>& y, std::int64_t incy) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Swap, {.n = n},
                                      {{x, incx}, {y, incy}});
  detail::verify_with<verify::PairCheck>(
      *this, cmd,
      [=, &x, &y] {
        return verify::swap_prepare<T>(x.cvec(n, incx), y.cvec(n, incy));
      },
      [=, &x, &y](const verify::PairCheck& chk, double scale) {
        verify::check_sum<T>(chk.x, "swap(x)", x.cvec(n, incx), scale);
        verify::check_sum<T>(chk.y, "swap(y)", y.cvec(n, incy), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::scal_async(std::int64_t n, T alpha, Buffer<T>& x,
                          std::int64_t incx) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Scal,
                                      {.n = n, .alpha = alpha}, {{x, incx}});
  detail::verify_with<verify::ScalarCheck>(
      *this, cmd,
      [=, &x] { return verify::scal_prepare<T>(alpha, x.cvec(n, incx)); },
      [=, &x](const verify::ScalarCheck& chk, double scale) {
        verify::check_sum<T>(chk, "scal", x.cvec(n, incx), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::copy_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, Buffer<T>& y,
                          std::int64_t incy) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Copy, {.n = n},
                                      {{x, incx}, {y, incy}});
  detail::verify_with<verify::ScalarCheck>(
      *this, cmd, [=, &x] { return verify::copy_prepare<T>(x.cvec(n, incx)); },
      [=, &y](const verify::ScalarCheck& chk, double scale) {
        verify::check_sum<T>(chk, "copy", y.cvec(n, incy), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::axpy_async(std::int64_t n, T alpha, const Buffer<T>& x,
                          std::int64_t incx, Buffer<T>& y,
                          std::int64_t incy) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Axpy,
                                      {.n = n, .alpha = alpha},
                                      {{x, incx}, {y, incy}});
  detail::verify_with<verify::ScalarCheck>(
      *this, cmd,
      [=, &x, &y] {
        return verify::axpy_prepare<T>(alpha, x.cvec(n, incx),
                                       y.cvec(n, incy));
      },
      [=, &y](const verify::ScalarCheck& chk, double scale) {
        verify::check_sum<T>(chk, "axpy", y.cvec(n, incy), scale);
      });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::dot_async(std::int64_t n, const Buffer<T>& x,
                         std::int64_t incx, const Buffer<T>& y,
                         std::int64_t incy, T* result) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Dot, {.n = n},
                                      {{x, incx}, {y, incy}, {result}});
  // Single-phase: the inputs are untouched, so the checker recomputes the
  // reduction in double after the fact — no prepare pass needed.
  detail::verify_with(*this, cmd, [=, &x, &y](double scale) {
    verify::dot_check<T>(x.cvec(n, incx), y.cvec(n, incy), *result, scale);
  });
  return enqueue(std::move(cmd));
}

Event Context::sdsdot_async(std::int64_t n, float sb, const Buffer<float>& x,
                            std::int64_t incx, const Buffer<float>& y,
                            std::int64_t incy, float* result) {
  Command cmd = detail::lower_call<float>(*this, RoutineKind::Sdsdot,
                                          {.n = n, .alpha = sb},
                                          {{x, incx}, {y, incy}, {result}});
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::nrm2_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, T* result) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Nrm2, {.n = n},
                                      {{x, incx}, {result}});
  detail::verify_with(*this, cmd, [=, &x](double scale) {
    verify::nrm2_check<T>(x.cvec(n, incx), *result, scale);
  });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::asum_async(std::int64_t n, const Buffer<T>& x,
                          std::int64_t incx, T* result) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Asum, {.n = n},
                                      {{x, incx}, {result}});
  detail::verify_with(*this, cmd, [=, &x](double scale) {
    verify::asum_check<T>(x.cvec(n, incx), *result, scale);
  });
  return enqueue(std::move(cmd));
}

template <typename T>
Event Context::iamax_async(std::int64_t n, const Buffer<T>& x,
                           std::int64_t incx, std::int64_t* result) {
  Command cmd = detail::lower_call<T>(*this, RoutineKind::Iamax, {.n = n},
                                      {{x, incx}, {result}});
  detail::verify_with(*this, cmd, [=, &x](double) {
    verify::iamax_check<T>(x.cvec(n, incx), *result);
  });
  return enqueue(std::move(cmd));
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
