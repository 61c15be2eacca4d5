#include "stream/channel.hpp"

namespace fblas::stream {

ChannelBase::ChannelBase(Scheduler* sched, std::string name,
                         std::size_t capacity)
    : sched_(sched),
      name_(std::move(name)),
      capacity_(capacity),
      mask_(std::bit_ceil(capacity) - 1) {
  FBLAS_REQUIRE(capacity >= 1, "channel '" + name_ + "' needs capacity >= 1");
  sched_->register_channel(this);
}

void ChannelBase::wake_consumer() {
  const int id = waiting_consumer_;
  waiting_consumer_ = -1;
  sched_->wake(id);
}

void ChannelBase::wake_producer() {
  const int id = waiting_producer_;
  waiting_producer_ = -1;
  sched_->wake(id);
}

}  // namespace fblas::stream
