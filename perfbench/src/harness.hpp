// Shared machinery of the repository benchmark: wall-clock helpers,
// order statistics, the benchmark's own span recorder, per-run tallies
// and the one-line JSON result.
//
// Two clocks appear everywhere. Host wall-clock (steady_clock) is what
// the simulator and runtime cost and what every timing metric reports.
// Simulated device cycles are the paper's quantity; the benchmark only
// checks them (they must never move) and reports them as exact counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median and p-quantile (nearest rank on the sorted sample).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double p);

/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();

// --- Spans ------------------------------------------------------------------

/// One timed call the benchmark made into the library. `layer` groups
/// spans for the self-time split: "setup" (an epoch's set-up), "unit"
/// (benchmark glue around one unit), "runtime" (sync and *_async calls,
/// Event::wait, Context::finish), "transfer" (Buffer::write / to_host)
/// and "check" (the refblas correctness gate).
struct Span {
  const char* name;
  const char* layer;
  std::uint64_t unit;
  std::int64_t parent;  // index into the span list, -1 for a root
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Single-threaded, in-memory span list (the benchmark has one caller
/// thread). Written out only at the end of the run.
class Spans {
 public:
  std::size_t open(const char* name, const char* layer, std::uint64_t unit);
  void close(std::size_t id);
  /// Self time (span minus its children) summed per layer, in ms.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Writes the spans as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span around one call; a no-op when `spans` is null (the
/// untraced end-to-end runs).
class Scope {
 public:
  Scope(Spans* spans, const char* name, const char* layer,
        std::uint64_t unit)
      : spans_(spans), id_(spans ? spans->open(name, layer, unit) : 0) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  std::size_t id_;
};

// --- CPU rotation -----------------------------------------------------------

/// Host wall time here depends on which CPU a thread runs on: on a
/// shared virtual machine a neighbour can slow one vCPU by a third or
/// more for minutes at a time, so a run left where the scheduler first
/// put it is a lottery draw. Each epoch therefore gives the calling
/// thread the next CPU of its allowed set and the threads the library
/// creates during set-up the `worker_cpus` CPUs after it: set-up runs on
/// those (begin_epoch), the units on the caller's own (pin). Worker
/// threads never share the caller's CPU, every run visits every CPU
/// evenly, and each unit records the caller's CPU.
class CpuRotation {
 public:
  CpuRotation();
  /// Allows the `worker_cpus` CPUs after the next one (at least one, at
  /// most all the others).
  void begin_epoch(std::size_t worker_cpus);
  void pin();          ///< pin to the next CPU and advance
  void release();      ///< allow every CPU again
  /// CPU the caller is pinned to, or -1 between pin() and the next
  /// begin_epoch()/release() and when there is a single CPU.
  int current() const { return pinned_; }
  /// Distinct values current() takes over a rotation.
  std::size_t groups() const { return cpus_.size() < 2 ? 1 : cpus_.size(); }

 private:
  int next() const { return cpus_[next_ % cpus_.size()]; }
  static void allow(const std::vector<int>& cpus);
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  int pinned_ = -1;
};

// --- Tallies ----------------------------------------------------------------

/// One timed unit.
struct UnitSample {
  double ms;
  std::uint64_t commands;  ///< ExecStats::executed during the unit
  std::uint64_t cycles;    ///< simulated cycles of the unit
  int cpu;                 ///< CpuRotation::current() while it ran
};

/// Everything one run of a workload accumulates across its epochs. An
/// epoch is a fresh set-up (context, pool, buffers, uploads) followed by
/// a fixed unit sequence, so its simulated cycles are exact.
struct Tally {
  std::vector<double> setup_s;     ///< one per epoch
  std::vector<UnitSample> samples;  ///< one per timed unit
  std::uint64_t units = 0, ok = 0, degraded = 0, failed = 0;
  std::uint64_t degraded_commands = 0;  ///< Event::status() == Degraded
  std::uint64_t epoch_cycles = 0;    ///< Context::total_cycles per epoch
  std::uint64_t epoch_makespan = 0;  ///< Context::makespan_cycles per epoch
  std::vector<std::string> errors;   ///< gate / reconciliation failures
  CpuRotation* rotation = nullptr;   ///< pins the caller after set-up

  /// Ends an epoch's set-up that began at `t0`: records its wall time,
  /// then pins the caller to its CPU for the units.
  void setup_done(Clock::time_point t0);
  /// Records a failed gate; keeps the first few messages for stderr.
  void fail(const std::string& what);
  /// Records and classifies one unit: failed if any gate failed, else
  /// degraded if any of its commands ended Degraded, else ok.
  void unit_done(double ms, std::uint64_t commands, std::uint64_t cycles,
                 bool gate_ok, bool any_degraded);

  /// Unit latencies, of every unit or of those that ran on `cpu`.
  std::vector<double> unit_ms() const;
  std::vector<double> unit_ms(int cpu) const;
  /// Fewest units any of the rotation's CPUs has run so far.
  std::size_t fewest_units_per_cpu() const;
  /// The distinct CPUs units ran on (one -1 entry without rotation).
  std::vector<int> cpus() const;
};

/// Per-epoch exact-count checks shared by all workloads: the epoch's
/// simulated cycles and makespan against the workload's golden values,
/// and the runtime's ledgers against the benchmark's own counts.
struct EpochLedger {
  std::uint64_t total_cycles = 0;
  std::uint64_t makespan_cycles = 0;
  std::uint64_t executed = 0;       ///< ExecStats::executed
  std::uint64_t issued = 0;         ///< commands the benchmark enqueued
  std::uint64_t degraded = 0;       ///< ExecStats::degraded
  std::uint64_t seen_degraded = 0;  ///< counted from Event::status()
  std::uint64_t verify_failures = 0;
  std::uint64_t sdc_caught = 0;
};
void check_epoch(Tally& t, const EpochLedger& e, std::uint64_t golden_cycles,
                 std::uint64_t golden_makespan);

// --- Gate helpers ----------------------------------------------------------

bool same_bits(const std::vector<float>& a, const std::vector<float>& b);
/// rel_error (max |a-b| / max(1, max|b|)) below `tol`, as the tests use.
bool close(const std::vector<float>& got, const std::vector<float>& want,
           double tol);
/// Flips the first element of `v` far away from its value.
void mangle(std::vector<float>& v);

// --- Result -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the final result line: {"correct", "attempted", "failed",
/// "metrics"}.
void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
