#include "stream/dram.hpp"

#include "common/error.hpp"

namespace fblas::stream {

DramBank::DramBank(Scheduler* sched, std::string name, double bytes_per_cycle)
    : sched_(sched),
      name_(std::move(name)),
      bytes_per_cycle_(bytes_per_cycle),
      burst_(std::max(bytes_per_cycle, 64.0)),
      available_(bytes_per_cycle),
      metered_(sched->cycle_mode()),
      refilled_(sched->cycle_edges()) {
  FBLAS_REQUIRE(bytes_per_cycle > 0, "bank bandwidth must be positive");
}

}  // namespace fblas::stream
