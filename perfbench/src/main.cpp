// The repository benchmark's driver binary.
//
//   fblas_perfbench --workload <cg_solve|fleet_burst|composed_faulty>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <path>] [--corrupt-unit <k>]
//
// --trace 0 runs the workload for <s> seconds with no instrumentation
// and prints the end-to-end metrics. --trace 1 is the separate traced
// pass: epochs alternate between recording the benchmark's own spans
// and running bare (the difference is the spans' overhead), then every
// workload's per-layer probes run. Either way the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}, and the
// exit code is non-zero when any gate failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Per CPU of the rotation, so p90 keeps >= 10 samples beyond it.
constexpr std::size_t kMinUnits = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  std::int64_t corrupt_unit = -1;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--spans") {
      a.spans_path = val;
    } else if (key == "--corrupt-unit") {
      a.corrupt_unit = std::strtoll(val, nullptr, 10);
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "cg_solve") return make_cg_solve();
  if (name == "fleet_burst") return make_fleet_burst();
  if (name == "composed_faulty") return make_composed_faulty();
  return nullptr;
}

bool report_errors(const char* phase, const Tally& t) {
  for (const auto& e : t.errors) {
    std::fprintf(stderr, "perfbench: %s: %s\n", phase, e.c_str());
  }
  if (t.units != t.ok + t.degraded + t.failed) {
    std::fprintf(stderr, "perfbench: %s: units %llu != ok + degraded + "
                 "failed\n", phase, static_cast<unsigned long long>(t.units));
    return false;
  }
  return t.errors.empty() && t.failed == 0;
}

// Each CPU of the rotation is one replicate of the timings, and the
// median replicate is reported: a neighbour that slows or speeds up one
// CPU cannot move it. Counts and fractions use every unit.
std::vector<Metric> end_to_end(const Tally& t) {
  std::vector<double> p50, p90, cmds_rate, cycle_rate;
  for (int cpu : t.cpus()) {
    double ms = 0, cmds = 0, cycles = 0;
    for (const UnitSample& u : t.samples) {
      if (u.cpu != cpu) continue;
      ms += u.ms;
      cmds += static_cast<double>(u.commands);
      cycles += static_cast<double>(u.cycles);
    }
    const std::vector<double> lat = t.unit_ms(cpu);
    p50.push_back(median(lat));
    p90.push_back(quantile(lat, 0.9));
    cmds_rate.push_back(cmds / (ms * 1e-3));
    cycle_rate.push_back(cycles / (ms * 1e-3));
  }
  double all_cmds = 0;
  for (const UnitSample& u : t.samples) {
    all_cmds += static_cast<double>(u.commands);
  }
  const double units = static_cast<double>(t.units);
  return {
      {"setup_s", median(t.setup_s), "s"},
      {"cmds_per_s", median(cmds_rate), "1/s"},
      {"unit_p50_ms", median(p50), "ms"},
      {"unit_p90_ms", median(p90), "ms"},
      {"sim_cycles_per_s", median(cycle_rate), "1/s"},
      {"sim_cycles", static_cast<double>(t.epoch_cycles), "cycles"},
      {"sim_makespan_cycles", static_cast<double>(t.epoch_makespan),
       "cycles"},
      {"ok_frac", (units - static_cast<double>(t.failed)) / units, "ratio"},
      {"device_path_frac",
       (all_cmds - static_cast<double>(t.degraded_commands)) / all_cmds,
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> span_metrics(const Spans& spans, const Tally& traced,
                                 const Tally& bare) {
  auto self = spans.self_ms_by_layer();
  const double units = static_cast<double>(traced.units);
  return {
      {"span.runtime_self_ms", self["runtime"] / units, "ms"},
      {"span.transfer_self_ms", self["transfer"] / units, "ms"},
      {"span.check_self_ms", self["check"] / units, "ms"},
      {"span.glue_self_ms", self["unit"] / units, "ms"},
      {"span.overhead_pct",
       100.0 * (median(traced.unit_ms()) / median(bare.unit_ms()) - 1.0),
       "%"},
  };
}

int run(const Args& args) {
  auto w = make(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Tally warm;
  w->prepare(args.seed, warm);
  w->corrupt_unit = args.corrupt_unit;
  bool correct = report_errors("warm-up", warm);

  // Closed loop: epoch after epoch until the time is up and enough units
  // were timed. The traced pass alternates traced and bare epochs.
  Tally bare, traced;
  CpuRotation rotation, traced_rotation;  // each kind visits every CPU
  bare.rotation = &rotation;
  traced.rotation = &traced_rotation;
  Spans spans;
  const auto start = Clock::now();
  for (std::uint64_t e = 0;
       seconds_since(start) < args.seconds ||
       bare.fewest_units_per_cpu() < kMinUnits ||
       (args.trace && traced.fewest_units_per_cpu() < kMinUnits);
       ++e) {
    if (args.trace && e % 2 == 0) {
      traced_rotation.begin_epoch(w->worker_cpus());
      w->epoch(traced, &spans);
    } else {
      rotation.begin_epoch(w->worker_cpus());
      w->epoch(bare, nullptr);
    }
  }
  rotation.release();
  correct = report_errors("run", bare) && correct;

  std::vector<Metric> metrics;
  std::uint64_t attempted = bare.units, failed = bare.failed;
  if (!args.trace) {
    metrics = end_to_end(bare);
  } else {
    correct = report_errors("traced run", traced) && correct;
    attempted += traced.units;
    failed += traced.failed;
    metrics = span_metrics(spans, traced, bare);
    Tally probes;
    w->probe(metrics, probes);
    for (const char* other : {"cg_solve", "fleet_burst", "composed_faulty"}) {
      if (args.workload == other) continue;
      auto o = make(other);
      Tally owarm;
      o->prepare(args.seed, owarm);
      correct = report_errors(other, owarm) && correct;
      o->probe(metrics, probes);
    }
    correct = report_errors("probes", probes) && correct;
    if (!args.spans_path.empty() && !spans.write_json(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
      correct = false;
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      correct = false;
    }
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>] [--corrupt-unit <k>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
