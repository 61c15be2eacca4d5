// Off-chip memory bank model. A bank has a fixed byte budget per clock
// cycle shared by every interface module (reader/writer helper kernel)
// attached to it. This reproduces both the bandwidth ceiling that
// dimensions the optimal vectorization width (Sec. IV-B) and the
// same-bank read/write contention that makes the non-streamed AXPYDOT
// slower than expected (Sec. VI-C).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "stream/scheduler.hpp"

namespace fblas::stream {

class DramBank {
 public:
  /// `bytes_per_cycle` is the bank bandwidth divided by the design clock;
  /// in functional mode the budget is ignored.
  DramBank(Scheduler* sched, std::string name, double bytes_per_cycle);

  const std::string& name() const { return name_; }
  double bytes_per_cycle() const { return bytes_per_cycle_; }

  /// Grants up to `want` elements of `elem_bytes` each against this
  /// cycle's remaining budget; returns the granted element count (possibly
  /// zero). Unmetered (functional mode) grants return `want`.
  std::int64_t grant_elems(std::int64_t want, std::size_t elem_bytes) {
    if (want <= 0) return 0;
    if (!metered_) {
      total_bytes_ += static_cast<std::uint64_t>(want) * elem_bytes;
      return want;
    }
    refill();
    const auto affordable =
        static_cast<std::int64_t>(available_ / static_cast<double>(elem_bytes));
    const std::int64_t granted = std::min(want, affordable);
    if (granted > 0) {
      available_ -= static_cast<double>(granted * elem_bytes);
      total_bytes_ += static_cast<std::uint64_t>(granted) * elem_bytes;
    }
    return granted;
  }

  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  // Every clock edge refills the budget: unused budget accumulates up to
  // one burst so that banks narrower than a single element still make
  // progress (a fractional budget must be able to add up to one grant)
  // without allowing unbounded bursts. Only a grant reads the budget, so
  // the edges since the last grant are applied here, one addition each
  // in clock order, stopping once the bank is full: a full bank stays
  // full (min(burst + b, burst) == burst).
  void refill() {
    const std::uint64_t edges = sched_->cycle_edges();
    for (std::uint64_t e = refilled_; e < edges && available_ < burst_; ++e) {
      available_ = std::min(available_ + bytes_per_cycle_, burst_);
    }
    refilled_ = edges;
  }

  Scheduler* sched_;
  std::string name_;
  double bytes_per_cycle_;
  double burst_;
  double available_;
  bool metered_;
  std::uint64_t refilled_ = 0;  // clock edges already applied
  std::uint64_t total_bytes_ = 0;
};

}  // namespace fblas::stream
