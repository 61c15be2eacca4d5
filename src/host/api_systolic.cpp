// Host lowering for the explicit PE-grid systolic GEMM engine, including
// the in-grid ABFT path: when the captured verification Options enable
// .in_grid(), the grid's own checksum rank detects / localizes /
// corrects PE faults as each tile drains, and the command's verify_check
// only has to inspect the engine's report — an uncorrectable (multi-
// fault) tile rejects with VerificationError and falls onto the standard
// rollback -> retry -> CPU-fallback ladder. Without .in_grid() the
// command arms the host-side Huang–Abraham checker of GEMM's descriptor
// in the per-kind module table (host/kinds.hpp), as gemm_async does.
//
// PE-targeted fault injection: wrap_work draws FaultKind::PeFault per
// attempt; this lowering derives the deterministic (tile, r, c, mac)
// plan from the draw's (seq, attempt) via FaultInjector::pick, arms the
// grid, and records the materialized plan as last_pe_victim() ground
// truth once the flip fires.
#include <algorithm>
#include <memory>
#include <sstream>

#include "host/context.hpp"
#include "host/detail.hpp"
#include "refblas/level3.hpp"

namespace fblas::host {

template <typename T>
Event Context::gemm_systolic_async(std::int64_t m, std::int64_t n,
                                   std::int64_t k, const Buffer<T>& a,
                                   const Buffer<T>& b, Buffer<T>& c) {
  Command command;
  command.label = "gemm_systolic";
  command.reads = {&a, &b};
  command.writes = {&c};
  const verify::Options& vo = cfg_.verification;
  const bool in_grid = vo.enabled() && vo.in_grid();
  // The engine's ABFT report, shared between the work body (which fills
  // it per attempt) and verify_check (which decides accept/reject on it).
  struct GridState {
    systolic::AbftReport report;
  };
  auto st = std::make_shared<GridState>();
  command.work = [this, rc = cfg_, m, n, k, &a, &b, &c, st, in_grid] {
    systolic::SystolicArray<T> arr(rc.pe_rows, rc.pe_cols);
    if (in_grid) {
      systolic::AbftConfig acfg;
      acfg.enabled = true;
      acfg.correct_single_faults = rc.verification.correct_single_faults();
      acfg.tolerance_scale = rc.verification.tolerance_scale();
      arr.set_abft(acfg);
    }
    // Derive and arm this attempt's PE fault plan, if wrap_work drew one
    // — from the injector of the device this attempt was placed on, so
    // the recorded ground truth lands next to the draw.
    FaultInjector& faults = attempt_device().faults();
    std::uint64_t seq = 0;
    int attempt = 0;
    bool armed = false;
    systolic::PeFaultPlan plan{};
    const std::int64_t nti = (m + rc.pe_rows - 1) / rc.pe_rows;
    const std::int64_t ntj = (n + rc.pe_cols - 1) / rc.pe_cols;
    if (k > 0 && nti > 0 && ntj > 0 && pe_fault_draw(&seq, &attempt)) {
      plan.tile = static_cast<std::int64_t>(
          faults.pick(seq, attempt, 2,
                      static_cast<std::uint64_t>(nti * ntj)));
      const std::int64_t ti = plan.tile / ntj;
      const std::int64_t tj = plan.tile % ntj;
      const std::int64_t th = std::min<std::int64_t>(rc.pe_rows,
                                                     m - ti * rc.pe_rows);
      const std::int64_t tw = std::min<std::int64_t>(rc.pe_cols,
                                                     n - tj * rc.pe_cols);
      plan.r = static_cast<int>(
          faults.pick(seq, attempt, 3, static_cast<std::uint64_t>(th)));
      plan.c = static_cast<int>(
          faults.pick(seq, attempt, 4, static_cast<std::uint64_t>(tw)));
      plan.mac = static_cast<std::int64_t>(
          faults.pick(seq, attempt, 5, static_cast<std::uint64_t>(k)));
      arr.arm_fault(plan);
      armed = true;
      if (faults.pe_fault_pairs() && th * tw > 1) {
        // Double-fault testing mode: a second flip in a distinct PE of
        // the same tile, which the checksum rank must refuse to correct.
        systolic::PeFaultPlan second = plan;
        second.r = static_cast<int>(
            faults.pick(seq, attempt, 6, static_cast<std::uint64_t>(th)));
        second.c = static_cast<int>(
            faults.pick(seq, attempt, 7, static_cast<std::uint64_t>(tw)));
        second.mac = static_cast<std::int64_t>(
            faults.pick(seq, attempt, 8, static_cast<std::uint64_t>(k)));
        if (second.r == plan.r && second.c == plan.c) {
          if (tw > 1) {
            second.c = static_cast<int>((second.c + 1) % tw);
          } else {
            second.r = static_cast<int>((second.r + 1) % th);
          }
        }
        arr.arm_fault(second);
      }
    }
    const std::uint64_t cycles =
        arr.multiply(a.cmat(m, k), b.cmat(k, n), c.mat(m, n));
    // Per-PE utilization for the tracing layer: one event per grid cell
    // with its MAC count and fault tally for this attempt's multiply.
    if (trace::Recorder* tr = trace::sink();
        tr != nullptr && tr->options().engine_events) {
      for (int r = 0; r < rc.pe_rows; ++r) {
        for (int col = 0; col < rc.pe_cols; ++col) {
          trace::Event te;
          te.kind = trace::EventKind::PeStats;
          te.device = static_cast<std::int16_t>(trace::attempt_device());
          te.attempt = static_cast<std::uint8_t>(std::min(r, 255));
          te.flags = static_cast<std::uint16_t>(col);
          te.a = arr.pe_macs(r, col);
          te.b = arr.pe_faults(r, col);
          te.set_name("pe");
          trace::emit(te);
        }
      }
    }
    st->report = arr.report();
    store_grid_report(arr.report());
    if (armed && arr.faults_fired() > 0) {
      pe_fault_fired();
      PeVictim victim;
      victim.tile_row = plan.tile / ntj;
      victim.tile_col = plan.tile % ntj;
      victim.r = plan.r;
      victim.c = plan.c;
      victim.mac = plan.mac;
      victim.valid = true;
      faults.record_pe_victim(victim);
    }
    Executor::note_pe_faults(st->report.faults_localized,
                             st->report.faults_corrected);
    Executor::note_cycles(cycles);
    last_cycles_.store(cycles);
    total_cycles_.fetch_add(cycles);
  };
  command.fallback = [m, n, k, &a, &b, &c] {
    ref::gemm(Transpose::None, Transpose::None, T(1), a.cmat(m, k),
              b.cmat(k, n), T(0), c.mat(m, n));
  };
  if (in_grid) {
    // The checksum rank already checked every tile inside the engine;
    // accept/reject on its report. An uncorrectable tile (multi-fault or
    // inconsistent residuals) — or any localized fault left in place
    // because correction is disabled — rejects like a host-side checksum
    // mismatch would, feeding the rollback -> retry -> fallback ladder.
    command.verify_check = [st] {
      const systolic::AbftReport& report = st->report;
      if (report.uncorrectable_tiles > 0) {
        throw VerificationError("systolic in-grid ABFT: " +
                                report.first_uncorrectable);
      }
      for (const systolic::LocalizedFault& f : report.faults) {
        if (f.corrected) continue;
        std::ostringstream os;
        os << "systolic in-grid ABFT: tile (" << f.tile_row << ", "
           << f.tile_col << "): fault localized to PE (" << f.r << ", "
           << f.c << ") left uncorrected";
        throw VerificationError(os.str());
      }
    };
  } else if (vo.enabled()) {
    // C = A B: alpha 1, beta 0.
    detail::arm_verify<T>(command, vo.tolerance_scale(),
                          kinds::kind_of<T>(RoutineKind::Gemm),
                          {.rows = m, .cols = n, .k = k},
                          {{{}, a.cmat(m, k)}, {{}, b.cmat(k, n)},
                           {{}, c.cmat(m, n)}},
                          {{{}, c.mat(m, n)}});
  }
  return enqueue(std::move(command));
}

template Event Context::gemm_systolic_async<float>(std::int64_t, std::int64_t,
                                                   std::int64_t,
                                                   const Buffer<float>&,
                                                   const Buffer<float>&,
                                                   Buffer<float>&);
template Event Context::gemm_systolic_async<double>(std::int64_t, std::int64_t,
                                                    std::int64_t,
                                                    const Buffer<double>&,
                                                    const Buffer<double>&,
                                                    Buffer<double>&);

}  // namespace fblas::host
