// The benchmark's three closed-loop workloads. Each owns its seeded
// inputs and references, runs epochs (set-up plus a fixed unit
// sequence) against the public host API, gates every unit, and adds the
// per-layer probes of the layers it exercises.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` and computes every reference the
  /// gate compares against, including one warm-up epoch whose result
  /// bits and per-unit simulated cycles later epochs must repeat
  /// exactly. Untimed; the warm-up epoch's gate failures land in
  /// `warmup`.
  virtual void prepare(std::uint64_t seed, Tally& warmup) = 0;

  /// One epoch: a timed set-up followed by the unit sequence. Every
  /// unit is timed, gated and classified into `t`. With `spans` set, the
  /// calls into the library are recorded as spans.
  virtual void epoch(Tally& t, Spans* spans) = 0;

  /// CPUs the threads an epoch's set-up creates get (see CpuRotation): one
  /// when at most one command runs at a time, one per worker when the
  /// pool is meant to run commands side by side.
  virtual std::size_t worker_cpus() const = 0;

  /// Per-layer probes owned by this workload (traced pass only). Gate
  /// failures (e.g. a ledger that does not reconcile) go to `t`.
  virtual void probe(std::vector<Metric>& out, Tally& t) = 0;

  /// Self-test hook: the read-back output of the unit with this global
  /// index (Tally::units at its gate) is mangled before it is compared,
  /// so the gate has to catch it. -1 (the default) disables it.
  std::int64_t corrupt_unit = -1;

 protected:
  bool corrupt_now(const Tally& t) const {
    return corrupt_unit >= 0 &&
           static_cast<std::uint64_t>(corrupt_unit) == t.units;
  }
};

std::unique_ptr<Workload> make_cg_solve();
std::unique_ptr<Workload> make_fleet_burst();
std::unique_ptr<Workload> make_composed_faulty();

}  // namespace perfbench
