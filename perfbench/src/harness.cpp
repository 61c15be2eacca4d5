#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/workload.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::size_t Spans::open(const char* name, const char* layer,
                        std::uint64_t unit) {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
  const std::int64_t parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(Span{name, layer, unit, parent, now, now});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Spans::close(std::size_t id) {
  spans_[id].end_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
  // Scopes nest strictly (RAII on one thread), so `id` is the top.
  stack_.pop_back();
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns -
                                           spans_[i].start_ns);
    out[spans_[i].layer] += (dur - child_ns[i]) * 1e-6;
  }
  return out;
}

bool Spans::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
      << "\",\"unit\":" << s.unit << ",\"parent\":" << s.parent
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
}

void CpuRotation::allow(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// With a single CPU there is nothing to rotate.
void CpuRotation::begin_epoch(std::size_t worker_cpus) {
  pinned_ = -1;
  if (cpus_.size() < 2) return;
  const std::size_t n =
      std::clamp<std::size_t>(worker_cpus, 1, cpus_.size() - 1);
  std::vector<int> workers;
  for (std::size_t i = 1; i <= n; ++i) {
    workers.push_back(cpus_[(next_ + i) % cpus_.size()]);
  }
  allow(workers);
}

void CpuRotation::pin() {
  if (cpus_.size() < 2) return;
  pinned_ = next();
  allow({pinned_});
  ++next_;
}

void CpuRotation::release() {
  pinned_ = -1;
  if (cpus_.size() >= 2) allow(cpus_);
}

void Tally::setup_done(Clock::time_point t0) {
  setup_s.push_back(seconds_since(t0));
  if (rotation != nullptr) rotation->pin();
}

void Tally::fail(const std::string& what) {
  if (errors.size() < 8) errors.push_back(what);
}

void Tally::unit_done(double ms, std::uint64_t commands,
                      std::uint64_t cycles, bool gate_ok, bool any_degraded) {
  samples.push_back(UnitSample{ms, commands, cycles,
                               rotation != nullptr ? rotation->current() : -1});
  ++units;
  if (!gate_ok) {
    ++failed;
  } else if (any_degraded) {
    ++degraded;
  } else {
    ++ok;
  }
}

std::vector<double> Tally::unit_ms() const {
  std::vector<double> ms;
  for (const UnitSample& u : samples) ms.push_back(u.ms);
  return ms;
}

std::vector<double> Tally::unit_ms(int cpu) const {
  std::vector<double> ms;
  for (const UnitSample& u : samples) {
    if (u.cpu == cpu) ms.push_back(u.ms);
  }
  return ms;
}

std::size_t Tally::fewest_units_per_cpu() const {
  std::map<int, std::size_t> count;
  for (const UnitSample& u : samples) ++count[u.cpu];
  const std::size_t groups = rotation != nullptr ? rotation->groups() : 1;
  if (count.size() < groups) return 0;
  std::size_t fewest = samples.size();
  for (const auto& [cpu, n] : count) fewest = std::min(fewest, n);
  return fewest;
}

std::vector<int> Tally::cpus() const {
  std::vector<int> out;
  for (const UnitSample& u : samples) {
    if (std::find(out.begin(), out.end(), u.cpu) == out.end()) {
      out.push_back(u.cpu);
    }
  }
  return out;
}

void check_epoch(Tally& t, const EpochLedger& e, std::uint64_t golden_cycles,
                 std::uint64_t golden_makespan) {
  auto expect = [&](const char* what, std::uint64_t got,
                    std::uint64_t want) {
    if (got != want) {
      t.fail(std::string(what) + ": " + std::to_string(got) +
             " != " + std::to_string(want));
    }
  };
  expect("epoch sim cycles vs golden", e.total_cycles, golden_cycles);
  expect("epoch makespan vs golden", e.makespan_cycles, golden_makespan);
  expect("ExecStats::executed vs commands issued", e.executed, e.issued);
  expect("ExecStats::degraded vs Degraded events", e.degraded,
         e.seen_degraded);
  expect("verify rejects vs sdc_caught", e.verify_failures, e.sdc_caught);
  t.epoch_cycles = e.total_cycles;
  t.epoch_makespan = e.makespan_cycles;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool close(const std::vector<float>& got, const std::vector<float>& want,
           double tol) {
  return got.size() == want.size() && fblas::rel_error(got, want) < tol;
}

void mangle(std::vector<float>& v) {
  if (!v.empty()) v[0] = -v[0] - 1000.0f;
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
