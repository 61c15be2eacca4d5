// Bounded single-producer/single-consumer typed FIFO channels — the
// software equivalent of the HLS `channel`/`pipe` abstraction the paper's
// modules communicate through. push/pop are awaitable: a full push or
// empty pop suspends the module until its peer makes progress. push_n /
// pop_n and try_put_n / try_take_n move bursts of elements per hop.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "stream/scheduler.hpp"
#include "stream/task.hpp"

namespace fblas::stream {

/// Type-erased channel state: identity, occupancy and waiter bookkeeping
/// shared by the scheduler's diagnostics, plus the checksum tap the
/// streaming-ABFT layer arms per run.
class ChannelBase {
 public:
  ChannelBase(Scheduler* sched, std::string name, std::size_t capacity);
  virtual ~ChannelBase() = default;
  ChannelBase(const ChannelBase&) = delete;
  ChannelBase& operator=(const ChannelBase&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  /// Free slots: how many pushes would succeed right now.
  std::size_t room() const { return capacity_ - count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ >= capacity_; }

  /// True while a push can throw (the taint trap is armed). A module
  /// that pops before it pushes then steps element by element, so a
  /// trap leaves its inputs where the per-element schedule would.
  bool push_may_throw() const { return sched_->taint_trap(); }
  /// Graph-wide floating-point pushes until an armed corruption fires,
  /// counting the targeted one; 0 when none is armed
  /// (Scheduler::corrupt_countdown).
  std::uint64_t corrupt_countdown() const {
    return sched_->corrupt_countdown();
  }

  std::uint64_t total_pushed() const { return total_pushed_; }
  std::uint64_t total_popped() const { return total_popped_; }
  std::size_t peak_occupancy() const { return peak_; }
  /// Times a module suspended on this channel (full push / empty pop) —
  /// the per-channel backpressure split of
  /// Scheduler::stall_module_cycles(). Bumped by the scheduler when a
  /// module blocks here.
  std::uint64_t stall_events() const { return stalls_; }
  void note_stall() { ++stalls_; }

  /// Clears the per-run statistics (push/pop totals, peak occupancy,
  /// stall events) without touching an armed checksum tap — the
  /// GraphChecker arms taps *before* Graph::run, which calls this at
  /// entry. Peak restarts at the current fill: values already buffered
  /// genuinely occupy the FIFO.
  void reset_run_stats() {
    total_pushed_ = 0;
    total_popped_ = 0;
    stalls_ = 0;
    peak_ = count_;
  }

  // --- checksum tap (streaming ABFT) ------------------------------------
  /// Arms a running checksum over every floating-point value pushed into
  /// this channel: sum, magnitude (sum of absolute values) and element
  /// count. Costs nothing unless armed.
  void arm_tap() {
    tap_armed_ = true;
    tap_sum_ = tap_mag_ = 0.0;
    tap_count_ = 0;
  }
  bool tap_armed() const { return tap_armed_; }
  double tap_sum() const { return tap_sum_; }
  double tap_mag() const { return tap_mag_; }
  std::uint64_t tap_count() const { return tap_count_; }

 protected:
  // Bookkeeping for n >= 1 elements that just entered / left the ring:
  // totals, peak, and at most one waiter wake (the only out-of-line part).
  void note_pushed(std::size_t n) {
    count_ += n;
    total_pushed_ += n;
    if (count_ > peak_) peak_ = count_;
    if (waiting_consumer_ >= 0) wake_consumer();
  }
  void note_popped(std::size_t n) {
    head_ = (head_ + n) & mask_;
    count_ -= n;
    total_popped_ += n;
    if (waiting_producer_ >= 0) wake_producer();
  }
  void wake_consumer();
  void wake_producer();

  /// Folds `n` pushed values into the tap, in push order.
  template <typename T>
  void tap_accumulate(const T* v, std::size_t n) {
    double sum = tap_sum_, mag = tap_mag_;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(v[i]);
      sum += d;
      // |d| exactly as `d < 0 ? -d : d` (a NaN or -0.0 keeps its sign),
      // without the branch a random sign would mispredict.
      const auto neg = static_cast<std::uint64_t>(d < 0) << 63;
      mag += std::bit_cast<double>(std::bit_cast<std::uint64_t>(d) ^ neg);
    }
    tap_sum_ = sum;
    tap_mag_ = mag;
    tap_count_ += n;
  }

  Scheduler* sched_;
  std::string name_;
  std::size_t capacity_;
  // Ring state. Storage is capacity rounded up to a power of two and
  // indexed with `mask_`; occupancy is still bounded by capacity_.
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  int waiting_consumer_ = -1;
  int waiting_producer_ = -1;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_popped_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t stalls_ = 0;
  bool tap_armed_ = false;
  double tap_sum_ = 0.0;
  double tap_mag_ = 0.0;
  std::uint64_t tap_count_ = 0;

  friend struct PopWait;
  friend struct PushWait;
};

template <typename T>
struct PopAwaiter;
template <typename T>
struct PushAwaiter;
template <typename T>
struct PopNAwaiter;
template <typename T>
struct PushNAwaiter;

/// Typed bounded FIFO over a ring buffer.
///
/// Bursts: try_put_n / try_take_n (and the awaitable push_n / pop_n)
/// move several elements at once but are defined as that many try_put /
/// try_take calls in a row — same values, hooks, totals and peak, one
/// waiter wake at most. A module that moves k elements this way, with k
/// no more than every one of its channels can take without suspending,
/// is therefore indistinguishable from one that awaits them singly.
template <typename T>
class Channel : public ChannelBase {
 public:
  Channel(Scheduler* sched, std::string name, std::size_t capacity)
      : ChannelBase(sched, std::move(name), capacity),
        buf_(mask_ + 1) {}

  /// Awaitable pop: `T v = co_await ch.pop();`
  PopAwaiter<T> pop() { return PopAwaiter<T>{{*this}}; }
  /// Awaitable push: `co_await ch.push(v);`
  PushAwaiter<T> push(T value) {
    return PushAwaiter<T>{{*this}, std::move(value)};
  }
  /// Awaitable burst pop of 1..n elements into dst (suspends only while
  /// empty): `got = co_await ch.pop_n(dst, n);`
  PopNAwaiter<T> pop_n(T* dst, std::size_t n) {
    return PopNAwaiter<T>{{*this}, dst, n};
  }
  /// Awaitable burst push of 1..n elements from src (suspends only while
  /// full): `put = co_await ch.push_n(src, n);`
  PushNAwaiter<T> push_n(const T* src, std::size_t n) {
    return PushNAwaiter<T>{{*this}, src, n};
  }

  // Non-awaitable access used by awaiters, burst-moving modules and
  // unit tests.
  bool try_put(T value) {
    if (full()) return false;
    if constexpr (kHooked) {
      if (screening()) value = screen(value);
      if (tap_armed_) tap_accumulate(&value, 1);
    }
    buf_[(head_ + count_) & mask_] = std::move(value);
    note_pushed(1);
    return true;
  }
  /// Pushes the first min(n, room()) values of src; returns that count.
  std::size_t try_put_n(const T* src, std::size_t n) {
    n = std::min(n, room());
    if (n == 0) return 0;
    if constexpr (kHooked) {
      if (tap_armed_ || screening()) {
        put_hooked(src, n);
        return n;
      }
    }
    copy_in(src, n);
    return n;
  }
  bool try_take(T& out) {
    if (count_ == 0) return false;
    out = std::move(buf_[head_]);
    note_popped(1);
    return true;
  }
  /// Pops the first min(n, size()) elements into dst; returns that count.
  std::size_t try_take_n(T* dst, std::size_t n) {
    n = std::min(n, count_);
    if (n == 0) return 0;
    const std::size_t first = std::min(n, buf_.size() - head_);
    const auto from = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
    std::copy_n(from, first, dst);
    std::copy_n(buf_.begin(), n - first, dst + first);
    note_popped(n);
    return n;
  }

 private:
  static constexpr bool kHooked = std::is_floating_point_v<T>;
  // Unsigned integer of T's width, for bit-level corruption injection.
  using BitsOf =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

  // The per-element hooks besides the tap, armed per run by the
  // scheduler.
  bool screening() const {
    return sched_->corrupt_armed() || sched_->taint_enabled();
  }

  // Stores 1 <= n <= room() values behind the tail.
  void copy_in(const T* src, std::size_t n) {
    const std::size_t tail = (head_ + count_) & mask_;
    const std::size_t first = std::min(n, buf_.size() - tail);
    std::copy_n(src, first, buf_.begin() + static_cast<std::ptrdiff_t>(tail));
    std::copy_n(src + first, n - first, buf_.begin());
    note_pushed(n);
  }

  // try_put_n of 1 <= n <= room() values with a tap or a hook armed. A
  // burst that holds an armed corruption's target splits around it, so
  // the corruption fires on exactly its element.
  [[gnu::noinline]] void put_hooked(const T* src, std::size_t n) {
    const std::uint64_t left = sched_->corrupt_countdown();
    if (left != 0 && left <= n) {
      const auto k = static_cast<std::size_t>(left - 1);
      put_burst(src, k);
      try_put(src[k]);
      put_burst(src + k + 1, n - k - 1);
      return;
    }
    put_burst(src, n);
  }

  // Pushes n <= room() values none of which is an armed corruption's
  // target. Taint screening is one finiteness test per burst; only a
  // burst holding a NaN/Inf steps element by element, so its provenance
  // (and a trap's throw) lands on exactly that element.
  void put_burst(const T* src, std::size_t n) {
    if (n == 0) return;
    if (sched_->taint_enabled() && !all_finite(src, n)) {
      for (std::size_t i = 0; i < n; ++i) try_put(src[i]);
      return;
    }
    if (sched_->corrupt_armed()) sched_->corrupt_skip(n);
    if (tap_armed_) tap_accumulate(src, n);
    copy_in(src, n);
  }

  // True when no value has an all-ones exponent (NaN or ±Inf), tested
  // without a branch per element.
  static bool all_finite(const T* v, std::size_t n) {
    constexpr auto kExp =
        std::bit_cast<BitsOf>(std::numeric_limits<T>::infinity());
    BitsOf nonfinite = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nonfinite |= static_cast<BitsOf>(
          (std::bit_cast<BitsOf>(v[i]) & kExp) == kExp);
    }
    return nonfinite == 0;
  }
  T screen(T value) {
    // Injected in-flight corruption: when the scheduler's counter says
    // this is the targeted push, flip the value's top byte (sign /
    // exponent bits) as it enters the channel — silent damage to an
    // intermediate stream that no write-set snapshot ever sees.
    if (sched_->corrupt_armed() && sched_->corrupt_hits(*this)) {
      auto bits = std::bit_cast<BitsOf>(value);
      bits ^= BitsOf{0x5a} << (8 * (sizeof(T) - 1));
      value = std::bit_cast<T>(bits);
    }
    // Taint screening at the module boundary: every floating-point value
    // crossing a channel is checked, so the first NaN/Inf is attributed
    // to the module that produced it (and, in trap mode, stops the run
    // deterministically before the poison spreads downstream). The tap
    // runs after this, so it observes what actually crossed.
    if (sched_->taint_enabled() && !std::isfinite(static_cast<double>(value))) {
      sched_->note_nonfinite(*this, static_cast<double>(value));
    }
    return value;
  }

  std::vector<T> buf_;
};

// Suspension halves shared by the single and burst awaiters: an empty
// pop / full push parks the module until its peer makes progress.
struct PopWait {
  ChannelBase& ch;

  bool await_ready() const noexcept { return !ch.empty(); }
  void await_suspend(TaskHandle h) const {
    TaskPromise& p = h.promise();
    ch.waiting_consumer_ = p.module_id;
    p.sched->block_on_pop(p.module_id, ch);
  }
};

struct PushWait {
  ChannelBase& ch;

  bool await_ready() const noexcept { return !ch.full(); }
  void await_suspend(TaskHandle h) const {
    TaskPromise& p = h.promise();
    ch.waiting_producer_ = p.module_id;
    p.sched->block_on_push(p.module_id, ch);
  }
};

template <typename T>
struct PopAwaiter : PopWait {
  [[gnu::always_inline]] T await_resume() const {
    T v{};
    const bool ok = static_cast<Channel<T>&>(ch).try_take(v);
    FBLAS_REQUIRE(ok, "pop resumed on empty channel '" + ch.name() + "'");
    return v;
  }
};

template <typename T>
struct PushAwaiter : PushWait {
  T value;

  [[gnu::always_inline]] void await_resume() {
    const bool ok = static_cast<Channel<T>&>(ch).try_put(std::move(value));
    FBLAS_REQUIRE(ok, "push resumed on full channel '" + ch.name() + "'");
  }
};

template <typename T>
struct PopNAwaiter : PopWait {
  T* dst;
  std::size_t n;

  [[gnu::always_inline]] std::size_t await_resume() const {
    const std::size_t got = static_cast<Channel<T>&>(ch).try_take_n(dst, n);
    FBLAS_REQUIRE(got > 0 || n == 0,
                  "pop resumed on empty channel '" + ch.name() + "'");
    return got;
  }
};

template <typename T>
struct PushNAwaiter : PushWait {
  const T* src;
  std::size_t n;

  [[gnu::always_inline]] std::size_t await_resume() const {
    const std::size_t put = static_cast<Channel<T>&>(ch).try_put_n(src, n);
    FBLAS_REQUIRE(put > 0 || n == 0,
                  "push resumed on full channel '" + ch.name() + "'");
    return put;
  }
};

/// Burst rule for a module that moves one element through each of its
/// channels per step: how many steps it can take without suspending —
/// the least of `left` (steps remaining in this cycle's batch), the
/// elements buffered on every input and the room on every output. Zero
/// means the next step goes through the ordinary awaits.
inline std::size_t burst_len(std::int64_t left,
                             std::initializer_list<std::size_t> ready) {
  return std::min(static_cast<std::size_t>(left), std::min(ready));
}

}  // namespace fblas::stream
