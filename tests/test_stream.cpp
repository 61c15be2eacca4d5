// Unit tests for the streaming runtime: channels, scheduler modes,
// deadlock detection, DRAM bank metering, tile walker, streamers.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "codegen/routine_spec.hpp"
#include "codegen/runner.hpp"
#include "common/workload.hpp"
#include "fblas/level1.hpp"
#include "fblas/level2.hpp"
#include "host/buffer.hpp"
#include "host/context.hpp"
#include "host/detail.hpp"
#include "host/kinds.hpp"
#include "host/device.hpp"
#include "sim/frequency_model.hpp"
#include "stream/graph.hpp"
#include "stream/streamers.hpp"
#include "trace/trace.hpp"

namespace fblas::stream {
namespace {

// A trivial pass-through module used by several tests.
template <typename T>
Task passthrough(std::int64_t n, int width, Channel<T>& in, Channel<T>& out) {
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch; ++k) {
      T v = co_await in.pop();
      co_await out.push(std::move(v));
    }
    idx += batch;
    co_await next_cycle();
  }
}

TEST(Channel, FifoOrderAndStats) {
  Graph g;
  auto& ch = g.channel<int>("c", 4);
  EXPECT_TRUE(ch.try_put(1));
  EXPECT_TRUE(ch.try_put(2));
  int v = 0;
  EXPECT_TRUE(ch.try_take(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ch.try_take(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ch.try_take(v));
  EXPECT_EQ(ch.total_pushed(), 2u);
  EXPECT_EQ(ch.total_popped(), 2u);
  EXPECT_EQ(ch.peak_occupancy(), 2u);
}

TEST(Channel, CapacityIsBounded) {
  Graph g;
  auto& ch = g.channel<int>("c", 2);
  EXPECT_TRUE(ch.try_put(1));
  EXPECT_TRUE(ch.try_put(2));
  EXPECT_FALSE(ch.try_put(3));
  EXPECT_TRUE(ch.full());
}

TEST(Channel, RingWrapAround) {
  Graph g;
  auto& ch = g.channel<int>("c", 3);
  int v;
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(ch.try_put(round));
    EXPECT_TRUE(ch.try_take(v));
    EXPECT_EQ(v, round);
  }
}

TEST(Channel, RejectsZeroCapacity) {
  Graph g;
  EXPECT_THROW(g.channel<int>("bad", 0), ConfigError);
}

TEST(Graph, RunResetsPreRunChannelStats) {
  // Regression: host-side traffic staged through a channel *before* the
  // run (pre-loads, test setup) used to leak into the run's statistics —
  // an inflated peak that made backpressure readings meaningless. run()
  // now resets per-run stats at entry.
  Graph g;
  auto& ch = g.channel<float>("c", 8);
  float v = 0;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ch.try_put(static_cast<float>(i)));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ch.try_take(v));
  ASSERT_EQ(ch.peak_occupancy(), 5u);  // the pre-run burst
  std::vector<float> in{1, 2}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(2, ch, out));
  g.run();
  EXPECT_EQ(out, in);
  // Fresh per-run stats: the 5-deep pre-run burst must not survive.
  EXPECT_EQ(ch.total_pushed(), 2u);
  EXPECT_EQ(ch.total_popped(), 2u);
  EXPECT_LE(ch.peak_occupancy(), 2u);
}

TEST(Graph, RunPeakRestartsAtBufferedFill) {
  // Values pre-loaded and NOT drained genuinely occupy the FIFO when the
  // run starts: peak restarts at the current fill, not at zero.
  Graph g;
  auto& ch = g.channel<int>("c", 8);
  ASSERT_TRUE(ch.try_put(41));
  ASSERT_TRUE(ch.try_put(42));
  std::vector<int> out;
  g.spawn("collect", collect<int>(2, ch, out));
  g.run();
  EXPECT_EQ(out, (std::vector<int>{41, 42}));
  EXPECT_EQ(ch.total_pushed(), 0u);  // pre-run pushes are not run traffic
  EXPECT_EQ(ch.total_popped(), 2u);
  EXPECT_EQ(ch.peak_occupancy(), 2u);
}

TEST(Scheduler, OccupancyTraceThrowsWhenNeverEnabled) {
  Graph g(Mode::Cycle);
  auto& ch = g.channel<float>("c", 4);
  std::vector<float> in{1, 2, 3}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(3, ch, out));
  g.run();
  // Regression: this used to silently index an empty sample table (UB on
  // some inputs, silent empties on others). Now it names the misuse.
  try {
    g.scheduler().occupancy_trace(0);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("never enabled"), std::string::npos);
  }
}

TEST(Scheduler, OccupancyTraceThrowsOnBadChannelIndex) {
  Graph g(Mode::Cycle);
  g.scheduler().enable_occupancy_trace();
  auto& ch = g.channel<float>("c", 4);
  std::vector<float> in{1, 2, 3}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(3, ch, out));
  g.run();
  EXPECT_NO_THROW(g.scheduler().occupancy_trace(0));
  try {
    g.scheduler().occupancy_trace(7);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Scheduler, OccupancyTraceEmptyInFunctionalMode) {
  // Enabled but the clock never advances (functional mode): defined-empty
  // samples, not a throw and not an out-of-bounds read.
  Graph g;  // Mode::Functional
  g.scheduler().enable_occupancy_trace();
  auto& ch = g.channel<float>("c", 4);
  std::vector<float> in{1, 2, 3}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(3, ch, out));
  g.run();
  EXPECT_TRUE(g.scheduler().occupancy_trace(0).empty());
}

TEST(Scheduler, StallAccountingCountsBlockedModules) {
  // A wide producer forced through a capacity-1 channel spends cycles
  // blocked pushing; both the per-channel stall events and the graph's
  // blocked-module-cycle total must see it.
  Graph g(Mode::Cycle);
  auto& ch = g.channel<float>("c", 1);
  std::vector<float> out;
  g.spawn("gen", generate<float>(256, 1.0f, 8, ch));
  g.spawn("collect", collect<float>(256, ch, out));
  g.run();
  EXPECT_EQ(out.size(), 256u);
  EXPECT_GT(ch.stall_events(), 0u);
  EXPECT_GT(g.scheduler().stall_module_cycles(), 0u);
}

TEST(Graph, FeedCollectRoundTrip) {
  Graph g;
  auto& ch = g.channel<float>("c", 8);
  std::vector<float> in{1, 2, 3, 4, 5}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<float>(5, ch, out));
  g.run();
  EXPECT_EQ(out, in);
}

TEST(Graph, BackpressureThroughTinyChannel) {
  // 1000 elements through a capacity-1 channel must still complete.
  Graph g;
  auto& a = g.channel<int>("a", 1);
  auto& b = g.channel<int>("b", 1);
  std::vector<int> in(1000), out;
  std::iota(in.begin(), in.end(), 0);
  g.spawn("feed", feed(in, a));
  g.spawn("pass", passthrough<int>(1000, 4, a, b));
  g.spawn("collect", collect<int>(1000, b, out));
  g.run();
  EXPECT_EQ(out, in);
}

TEST(Graph, DeadlockDetectedWhenConsumerWantsTooMuch) {
  Graph g;
  auto& ch = g.channel<int>("c", 4);
  std::vector<int> in{1, 2, 3}, out;
  g.spawn("feed", feed(in, ch));
  g.spawn("collect", collect<int>(5, ch, out));  // wants 5, only 3 produced
  try {
    g.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("collect"), std::string::npos);
    EXPECT_NE(msg.find("'c'"), std::string::npos);
  }
}

TEST(Graph, DeadlockDetectedWhenChannelTooSmallForCycle) {
  // A module that needs to push all n before popping any: requires
  // capacity >= n on its loopback, else stalls — the paper's channel
  // sizing rule for non-multitree MDAGs.
  struct Maker {
    static Task loop_module(std::int64_t n, Channel<int>& loop) {
      for (int i = 0; i < n; ++i) co_await loop.push(i);
      for (int i = 0; i < n; ++i) (void)co_await loop.pop();
    }
  };
  {
    Graph g;
    auto& loop = g.channel<int>("loop", 4);
    g.spawn("m", Maker::loop_module(8, loop));
    EXPECT_THROW(g.run(), DeadlockError);
  }
  {
    Graph g;
    auto& loop = g.channel<int>("loop", 8);  // properly sized
    g.spawn("m", Maker::loop_module(8, loop));
    EXPECT_NO_THROW(g.run());
  }
}

TEST(Graph, ModuleExceptionPropagates) {
  struct Maker {
    static Task thrower(Channel<int>& ch) {
      (void)co_await ch.pop();
      throw std::logic_error("module blew up");
    }
  };
  Graph g;
  auto& ch = g.channel<int>("c", 2);
  std::vector<int> in{1};
  g.spawn("feed", feed(in, ch));
  g.spawn("boom", Maker::thrower(ch));
  EXPECT_THROW(g.run(), std::logic_error);
}

TEST(CycleMode, CountsCyclesForWidthBatches) {
  // 64 elements at W=8: producer emits one batch per cycle => ~8 cycles.
  Graph g(Mode::Cycle);
  auto& a = g.channel<float>("a", 16);
  std::vector<float> out;
  g.spawn("gen", generate<float>(64, 1.0f, 8, a));
  g.spawn("sink", collect<float>(64, a, out));
  g.run();
  EXPECT_EQ(out.size(), 64u);
  EXPECT_GE(g.cycles(), 8u);
  EXPECT_LE(g.cycles(), 12u);  // small scheduling slack allowed
}

TEST(CycleMode, WiderIsProportionallyFaster) {
  auto run_width = [](int w) {
    Graph g(Mode::Cycle);
    auto& a = g.channel<float>("a", 512);
    auto& b = g.channel<float>("b", 512);
    g.spawn("gen", generate<float>(4096, 1.0f, w, a));
    g.spawn("pass", passthrough<float>(4096, w, a, b));
    g.spawn("sink", sink<float>(4096, w, b));
    g.run();
    return g.cycles();
  };
  const auto c16 = run_width(16);
  const auto c64 = run_width(64);
  EXPECT_NEAR(static_cast<double>(c16) / static_cast<double>(c64), 4.0, 0.5);
}

TEST(DramBank, MetersBandwidthInCycleMode) {
  // Bank allows 32 bytes/cycle = 8 floats; reader wants W=16 floats/cycle,
  // so it should take ~twice as long as unmetered.
  std::vector<float> data(1024, 2.0f);
  auto run = [&](bool metered) {
    Graph g(Mode::Cycle);
    auto& ch = g.channel<float>("x", 64);
    DramBank* bank = metered ? &g.bank("ddr", 32.0) : nullptr;
    g.spawn("read", read_vector<float>(
                        VectorView<const float>(data.data(), 1024), 1, 16, ch,
                        bank));
    g.spawn("sink", sink<float>(1024, 16, ch));
    g.run();
    return g.cycles();
  };
  const auto fast = run(false);
  const auto slow = run(true);
  EXPECT_NEAR(static_cast<double>(slow) / static_cast<double>(fast), 2.0, 0.4);
}

TEST(DramBank, SharedBudgetCausesContention) {
  // Two readers on one bank each get half the bandwidth.
  std::vector<float> data(1024, 1.0f);
  auto run = [&](int nreaders) {
    Graph g(Mode::Cycle);
    auto& bank = g.bank("ddr", 64.0);  // 16 floats/cycle total
    std::vector<Channel<float>*> chans;
    for (int r = 0; r < nreaders; ++r) {
      auto& ch = g.channel<float>("x" + std::to_string(r), 64);
      chans.push_back(&ch);
      g.spawn("read" + std::to_string(r),
              read_vector<float>(VectorView<const float>(data.data(), 1024),
                                 1, 16, ch, &bank));
      g.spawn("sink" + std::to_string(r), sink<float>(1024, 16, ch));
    }
    g.run();
    return g.cycles();
  };
  const auto one = run(1);
  const auto two = run(2);
  EXPECT_NEAR(static_cast<double>(two) / static_cast<double>(one), 2.0, 0.4);
}

TEST(DramBank, FunctionalModeUnmetered) {
  Graph g(Mode::Functional);
  auto& bank = g.bank("ddr", 1.0);  // 1 byte/cycle would be glacial
  EXPECT_EQ(bank.grant_elems(100, 8), 100);
  EXPECT_EQ(bank.total_bytes(), 800u);
}

TEST(CycleMode, ModuleResumeStatistics) {
  // In cycle mode a balanced producer/consumer pair is scheduled about
  // once per cycle — the utilization diagnostic the scheduler exposes.
  Graph g(Mode::Cycle);
  auto& a = g.channel<float>("a", 32);
  std::vector<float> out;
  const int gen_id = g.spawn("gen", generate<float>(1024, 1.0f, 16, a));
  const int col_id = g.spawn("collect", collect<float>(1024, a, out));
  g.run();
  const auto cycles = g.cycles();
  EXPECT_GE(g.scheduler().module_resumes(gen_id), cycles - 2);
  EXPECT_GE(g.scheduler().module_resumes(col_id), 1u);
}

TEST(CycleMode, OccupancyTraceRecordsBackpressure) {
  // A fast producer against a slow consumer fills the channel; the trace
  // shows the fill level saturating at the capacity.
  Graph g(Mode::Cycle);
  auto& ch = g.channel<float>("hot", 16);
  std::vector<float> out;
  g.scheduler().enable_occupancy_trace();
  g.spawn("gen", generate<float>(512, 1.0f, 32, ch));   // 32/cycle offered
  g.spawn("slow", collect<float>(512, ch, out));        // unbounded pops but
  g.run();                                              // capacity limits
  ASSERT_EQ(g.scheduler().channel_count(), 1u);
  const auto& trace = g.scheduler().occupancy_trace(0);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.size(), g.cycles());
  std::uint32_t peak = 0;
  for (const auto v : trace) peak = std::max(peak, v);
  EXPECT_LE(peak, 16u);
}

// ---- TileWalker -----------------------------------------------------------

std::vector<std::pair<std::int64_t, std::int64_t>> walk_all(
    std::int64_t rows, std::int64_t cols, TileSchedule s) {
  TileWalker w(rows, cols, s);
  std::vector<std::pair<std::int64_t, std::int64_t>> seq;
  std::int64_t i, j;
  while (w.next(i, j)) seq.emplace_back(i, j);
  return seq;
}

TEST(TileWalker, RowMajorTilesRowMajorElems) {
  // 4x4 matrix, 2x2 tiles: tile (0,0) row-major, then tile (0,1), ...
  auto seq = walk_all(4, 4, {Order::RowMajor, Order::RowMajor, 2, 2});
  ASSERT_EQ(seq.size(), 16u);
  std::vector<std::pair<std::int64_t, std::int64_t>> expect{
      {0, 0}, {0, 1}, {1, 0}, {1, 1},  // tile (0,0)
      {0, 2}, {0, 3}, {1, 2}, {1, 3},  // tile (0,1)
      {2, 0}, {2, 1}, {3, 0}, {3, 1},  // tile (1,0)
      {2, 2}, {2, 3}, {3, 2}, {3, 3},  // tile (1,1)
  };
  EXPECT_EQ(seq, expect);
}

TEST(TileWalker, ColMajorTilesColMajorElems) {
  auto seq = walk_all(4, 4, {Order::ColMajor, Order::ColMajor, 2, 2});
  ASSERT_EQ(seq.size(), 16u);
  std::vector<std::pair<std::int64_t, std::int64_t>> expect{
      {0, 0}, {1, 0}, {0, 1}, {1, 1},  // tile (0,0) col-major elems
      {2, 0}, {3, 0}, {2, 1}, {3, 1},  // tile (1,0)
      {0, 2}, {1, 2}, {0, 3}, {1, 3},  // tile (0,1)
      {2, 2}, {3, 2}, {2, 3}, {3, 3},  // tile (1,1)
  };
  EXPECT_EQ(seq, expect);
}

TEST(TileWalker, VisitsEveryCellExactlyOnce) {
  for (Order to : {Order::RowMajor, Order::ColMajor}) {
    for (Order eo : {Order::RowMajor, Order::ColMajor}) {
      auto seq = walk_all(5, 7, {to, eo, 2, 3});  // non-divisible edges
      EXPECT_EQ(seq.size(), 35u);
      std::set<std::pair<std::int64_t, std::int64_t>> uniq(seq.begin(),
                                                           seq.end());
      EXPECT_EQ(uniq.size(), 35u);
      for (auto [i, j] : seq) {
        EXPECT_GE(i, 0);
        EXPECT_LT(i, 5);
        EXPECT_GE(j, 0);
        EXPECT_LT(j, 7);
      }
    }
  }
}

TEST(TileWalker, SingleTileCoversWholeMatrix) {
  auto seq = walk_all(3, 3, {Order::RowMajor, Order::RowMajor, 8, 8});
  ASSERT_EQ(seq.size(), 9u);
  EXPECT_EQ(seq.front(), (std::pair<std::int64_t, std::int64_t>{0, 0}));
  EXPECT_EQ(seq.back(), (std::pair<std::int64_t, std::int64_t>{2, 2}));
}

TEST(TileWalker, EmptyMatrix) {
  auto seq = walk_all(0, 5, {Order::RowMajor, Order::RowMajor, 2, 2});
  EXPECT_TRUE(seq.empty());
}

// ---- Streamers -------------------------------------------------------------

TEST(Streamers, MatrixRoundTripAllSchedules) {
  Workload wl(3);
  const std::int64_t N = 6, M = 9;
  auto a = wl.matrix<double>(N, M);
  for (Order to : {Order::RowMajor, Order::ColMajor}) {
    for (Order eo : {Order::RowMajor, Order::ColMajor}) {
      TileSchedule s{to, eo, 4, 3};
      std::vector<double> b(N * M, 0.0);
      Graph g;
      auto& ch = g.channel<double>("m", 16);
      g.spawn("read", read_matrix<double>(
                          MatrixView<const double>(a.data(), N, M), s, 1, 8,
                          ch));
      g.spawn("write", write_matrix<double>(MatrixView<double>(b.data(), N, M),
                                            s, 8, ch));
      g.run();
      EXPECT_EQ(a, b) << "schedule tiles=" << to_string(to)
                      << " elems=" << to_string(eo);
    }
  }
}

TEST(Streamers, VectorReplayStreamsRepeatTimes) {
  std::vector<float> v{1, 2, 3};
  Graph g;
  auto& ch = g.channel<float>("v", 4);
  std::vector<float> out;
  g.spawn("read", read_vector<float>(VectorView<const float>(v.data(), 3), 3,
                                     2, ch));
  g.spawn("collect", collect<float>(9, ch, out));
  g.run();
  EXPECT_EQ(out, (std::vector<float>{1, 2, 3, 1, 2, 3, 1, 2, 3}));
}

TEST(Streamers, WriteVectorLastPassPersists) {
  std::vector<float> target(3, 0.0f);
  std::vector<float> stream{1, 2, 3, 10, 20, 30};
  Graph g;
  auto& ch = g.channel<float>("v", 8);
  g.spawn("feed", feed(stream, ch));
  g.spawn("write", write_vector<float>(VectorView<float>(target.data(), 3), 2,
                                       4, ch));
  g.run();
  EXPECT_EQ(target, (std::vector<float>{10, 20, 30}));
}

TEST(Streamers, Fanout2DuplicatesStream) {
  std::vector<int> in{5, 6, 7, 8};
  Graph g;
  auto& a = g.channel<int>("a", 8);
  auto& b = g.channel<int>("b", 8);
  auto& c = g.channel<int>("c", 8);
  std::vector<int> ob, oc;
  g.spawn("feed", feed(in, a));
  g.spawn("fan", fanout2<int>(4, 2, a, b, c));
  g.spawn("cb", collect<int>(4, b, ob));
  g.spawn("cc", collect<int>(4, c, oc));
  g.run();
  EXPECT_EQ(ob, in);
  EXPECT_EQ(oc, in);
}

TEST(Streamers, GenerateAndSinkBalance) {
  Graph g(Mode::Cycle);
  auto& ch = g.channel<double>("g", 32);
  g.spawn("gen", generate<double>(256, 3.5, 16, ch));
  g.spawn("sink", sink<double>(256, 16, ch));
  g.run();
  EXPECT_EQ(ch.total_pushed(), 256u);
  EXPECT_EQ(ch.total_popped(), 256u);
}

// ---- Burst transfers are element-exact ------------------------------------
//
// The streamers, the fan-out and the SCAL/AXPY/DOT/GEMV/GER/SYR2 modules
// move bursts through try_put_n / try_take_n. These tests run seeded
// random graphs twice: once with the per-element modules below (one
// await per element, kept as the oracle) and once with the library's.
// Every per-element observable must match: cycles, stalls, channel
// counters and peaks, module resumes, per-cycle occupancy, DRAM bytes,
// output bits, every channel's checksum tap, and the fault hooks'
// victims.

namespace per_element {

template <typename T>
Task read_vector(VectorView<const T> v, std::int64_t repeat, int width,
                 Channel<T>& out, DramBank* bank = nullptr) {
  const std::int64_t n = v.size();
  for (std::int64_t r = 0; r < repeat; ++r) {
    std::int64_t idx = 0;
    while (idx < n) {
      const std::int64_t want = std::min<std::int64_t>(width, n - idx);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got; ++k) co_await out.push(v[idx + k]);
      idx += got;
      co_await next_cycle();
    }
  }
}

template <typename T>
Task write_vector(VectorView<T> v, std::int64_t repeat, int width,
                  Channel<T>& in, DramBank* bank = nullptr) {
  const std::int64_t n = v.size();
  for (std::int64_t r = 0; r < repeat; ++r) {
    std::int64_t idx = 0;
    while (idx < n) {
      const std::int64_t want = std::min<std::int64_t>(width, n - idx);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got; ++k) v[idx + k] = co_await in.pop();
      idx += got;
      co_await next_cycle();
    }
  }
}

template <typename T>
Task read_matrix(MatrixView<const T> A, TileSchedule sched, std::int64_t repeat,
                 int width, Channel<T>& out, DramBank* bank = nullptr) {
  for (std::int64_t r = 0; r < repeat; ++r) {
    TileWalker walk(A.rows(), A.cols(), sched);
    std::int64_t remaining = walk.total();
    while (remaining > 0) {
      const std::int64_t want = std::min<std::int64_t>(width, remaining);
      const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
      for (std::int64_t k = 0; k < got; ++k) {
        std::int64_t i = 0, j = 0;
        walk.next(i, j);
        co_await out.push(A(i, j));
      }
      remaining -= got;
      co_await next_cycle();
    }
  }
}

template <typename T>
Task write_matrix(MatrixView<T> A, TileSchedule sched, int width,
                  Channel<T>& in, DramBank* bank = nullptr) {
  TileWalker walk(A.rows(), A.cols(), sched);
  std::int64_t remaining = walk.total();
  while (remaining > 0) {
    const std::int64_t want = std::min<std::int64_t>(width, remaining);
    const std::int64_t got = bank ? bank->grant_elems(want, sizeof(T)) : want;
    for (std::int64_t k = 0; k < got; ++k) {
      std::int64_t i = 0, j = 0;
      walk.next(i, j);
      A(i, j) = co_await in.pop();
    }
    remaining -= got;
    co_await next_cycle();
  }
}

template <typename T>
Task fanout2(std::int64_t n, int width, Channel<T>& in, Channel<T>& out_a,
             Channel<T>& out_b) {
  std::int64_t idx = 0;
  while (idx < n) {
    const std::int64_t batch = std::min<std::int64_t>(width, n - idx);
    for (std::int64_t k = 0; k < batch; ++k) {
      T v = co_await in.pop();
      co_await out_a.push(v);
      co_await out_b.push(std::move(v));
    }
    idx += batch;
    co_await next_cycle();
  }
}

template <typename T>
Task scal(core::Level1Config cfg, std::int64_t n, T alpha, Channel<T>& ch_x,
          Channel<T>& ch_out) {
  cfg.validate();
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min<std::int64_t>(cfg.width, n - it);
    for (std::int64_t i = 0; i < batch; ++i) {
      co_await ch_out.push(alpha * co_await ch_x.pop());
    }
    it += batch;
    co_await next_cycle();
  }
}

template <typename T>
Task axpy(core::Level1Config cfg, std::int64_t n, T alpha, Channel<T>& ch_x,
          Channel<T>& ch_y, Channel<T>& ch_out) {
  cfg.validate();
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min<std::int64_t>(cfg.width, n - it);
    for (std::int64_t i = 0; i < batch; ++i) {
      const T x = co_await ch_x.pop();
      const T y = co_await ch_y.pop();
      co_await ch_out.push(alpha * x + y);
    }
    it += batch;
    co_await next_cycle();
  }
}

template <typename T>
Task dot(core::Level1Config cfg, std::int64_t n, Channel<T>& ch_x,
         Channel<T>& ch_y, Channel<T>& ch_res) {
  cfg.validate();
  T res = T(0);
  for (std::int64_t it = 0; it < n;) {
    const std::int64_t batch = std::min<std::int64_t>(cfg.width, n - it);
    T acc = T(0);
    for (std::int64_t i = 0; i < batch; ++i) {
      acc += co_await ch_x.pop() * co_await ch_y.pop();
    }
    res += acc;
    it += batch;
    co_await next_cycle();
  }
  co_await ch_res.push(res);
}

template <typename T>
Task gemv(core::GemvConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
          T beta, Channel<T>& ch_a, Channel<T>& ch_x, Channel<T>& ch_y,
          Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(rows, TN), ntj = ceil_div(cols, TM);
  const int W = cfg.width;
  // Element traversal within a tile (row- or column-major): the loops
  // below iterate (outer, inner) and map to (r, c) through these lambdas.
  const bool row_elems = cfg.elem_order == Order::RowMajor;
  auto row_of = [row_elems](std::int64_t o, std::int64_t i) {
    return row_elems ? o : i;
  };
  auto col_of = [row_elems](std::int64_t o, std::int64_t i) {
    return row_elems ? i : o;
  };
  std::vector<T> xbuf, acc;

  if (cfg.trans == Transpose::None &&
      cfg.tiling == core::MatrixTiling::TilesByRows) {
    // Fig. 2 (left): reuse over y; x replayed once per tile-row.
    xbuf.resize(static_cast<std::size_t>(TM));
    acc.resize(static_cast<std::size_t>(TN));
    std::vector<T> ybuf(static_cast<std::size_t>(TN));
    for (std::int64_t ti = 0; ti < nti; ++ti) {
      const std::int64_t th = std::min(TN, rows - ti * TN);
      for (std::int64_t r = 0; r < th; ++r) {
        ybuf[r] = beta * co_await ch_y.pop();
        acc[r] = T(0);
      }
      for (std::int64_t tj = 0; tj < ntj; ++tj) {
        const std::int64_t tw = std::min(TM, cols - tj * TM);
        for (std::int64_t c = 0; c < tw; ++c) xbuf[c] = co_await ch_x.pop();
        int in_cycle = 0;
        const std::int64_t no = row_elems ? th : tw;
        const std::int64_t ni = row_elems ? tw : th;
        for (std::int64_t o = 0; o < no; ++o) {
          for (std::int64_t i = 0; i < ni; ++i) {
            acc[row_of(o, i)] += co_await ch_a.pop() * xbuf[col_of(o, i)];
            if (++in_cycle == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
      for (std::int64_t r = 0; r < th; ++r) {
        co_await ch_out.push(ybuf[r] + alpha * acc[r]);
      }
      co_await next_cycle();
    }
  } else if (cfg.trans == Transpose::None &&
             cfg.tiling == core::MatrixTiling::TilesByCols) {
    // Fig. 2 (right): x read once; y (partial results) replayed. The
    // full-length partial buffer models the DRAM round trip.
    xbuf.resize(static_cast<std::size_t>(TM));
    std::vector<T> part(static_cast<std::size_t>(rows), T(0));
    for (std::int64_t tj = 0; tj < ntj; ++tj) {
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      for (std::int64_t c = 0; c < tw; ++c) xbuf[c] = co_await ch_x.pop();
      for (std::int64_t ti = 0; ti < nti; ++ti) {
        const std::int64_t th = std::min(TN, rows - ti * TN);
        if (tj == 0) {
          for (std::int64_t r = 0; r < th; ++r) {
            part[ti * TN + r] = beta * co_await ch_y.pop();
          }
        }
        int in_cycle = 0;
        const std::int64_t no = row_elems ? th : tw;
        const std::int64_t ni = row_elems ? tw : th;
        for (std::int64_t o = 0; o < no; ++o) {
          for (std::int64_t i = 0; i < ni; ++i) {
            part[ti * TN + row_of(o, i)] +=
                alpha * co_await ch_a.pop() * xbuf[col_of(o, i)];
            if (++in_cycle == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
        if (tj == ntj - 1) {
          for (std::int64_t r = 0; r < th; ++r) {
            co_await ch_out.push(part[ti * TN + r]);
          }
        }
      }
      co_await next_cycle();
    }
  } else if (cfg.trans == Transpose::Trans &&
             cfg.tiling == core::MatrixTiling::TilesByRows) {
    // y = alpha A^T x + beta y with A in tiles by rows: x (length rows)
    // read once, block per tile-row; y partials buffered full-length.
    xbuf.resize(static_cast<std::size_t>(TN));
    std::vector<T> part(static_cast<std::size_t>(cols));
    for (std::int64_t c = 0; c < cols; ++c) {
      part[c] = beta * co_await ch_y.pop();
    }
    for (std::int64_t ti = 0; ti < nti; ++ti) {
      const std::int64_t th = std::min(TN, rows - ti * TN);
      for (std::int64_t r = 0; r < th; ++r) xbuf[r] = co_await ch_x.pop();
      for (std::int64_t tj = 0; tj < ntj; ++tj) {
        const std::int64_t tw = std::min(TM, cols - tj * TM);
        int in_cycle = 0;
        const std::int64_t no = row_elems ? th : tw;
        const std::int64_t ni = row_elems ? tw : th;
        for (std::int64_t o = 0; o < no; ++o) {
          for (std::int64_t i = 0; i < ni; ++i) {
            part[tj * TM + col_of(o, i)] +=
                alpha * co_await ch_a.pop() * xbuf[row_of(o, i)];
            if (++in_cycle == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
    }
    for (std::int64_t c = 0; c < cols; ++c) co_await ch_out.push(part[c]);
    co_await next_cycle();
  } else {
    // trans, tiles by columns: reuse over y blocks; x replayed per
    // tile-column.
    xbuf.resize(static_cast<std::size_t>(TN));
    acc.resize(static_cast<std::size_t>(TM));
    std::vector<T> ybuf(static_cast<std::size_t>(TM));
    for (std::int64_t tj = 0; tj < ntj; ++tj) {
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      for (std::int64_t c = 0; c < tw; ++c) {
        ybuf[c] = beta * co_await ch_y.pop();
        acc[c] = T(0);
      }
      for (std::int64_t ti = 0; ti < nti; ++ti) {
        const std::int64_t th = std::min(TN, rows - ti * TN);
        for (std::int64_t r = 0; r < th; ++r) xbuf[r] = co_await ch_x.pop();
        int in_cycle = 0;
        const std::int64_t no = row_elems ? th : tw;
        const std::int64_t ni = row_elems ? tw : th;
        for (std::int64_t o = 0; o < no; ++o) {
          for (std::int64_t i = 0; i < ni; ++i) {
            acc[col_of(o, i)] += co_await ch_a.pop() * xbuf[row_of(o, i)];
            if (++in_cycle == W) {
              in_cycle = 0;
              co_await next_cycle();
            }
          }
        }
      }
      for (std::int64_t c = 0; c < tw; ++c) {
        co_await ch_out.push(ybuf[c] + alpha * acc[c]);
      }
      co_await next_cycle();
    }
  }
}

template <typename T>
Task ger(core::GerConfig cfg, std::int64_t rows, std::int64_t cols, T alpha,
         Channel<T>& ch_a, Channel<T>& ch_x, Channel<T>& ch_y,
         Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(rows, TN), ntj = ceil_div(cols, TM);
  const int W = cfg.width;
  const bool by_rows = cfg.tiling == core::MatrixTiling::TilesByRows;
  std::vector<T> rbuf(static_cast<std::size_t>(TN));
  std::vector<T> cbuf(static_cast<std::size_t>(TM));
  const std::int64_t outer = by_rows ? nti : ntj;
  const std::int64_t inner = by_rows ? ntj : nti;
  for (std::int64_t to = 0; to < outer; ++to) {
    for (std::int64_t tin = 0; tin < inner; ++tin) {
      const std::int64_t ti = by_rows ? to : tin;
      const std::int64_t tj = by_rows ? tin : to;
      const std::int64_t th = std::min(TN, rows - ti * TN);
      const std::int64_t tw = std::min(TM, cols - tj * TM);
      if (by_rows) {
        if (tin == 0) {
          for (std::int64_t r = 0; r < th; ++r) rbuf[r] = co_await ch_x.pop();
        }
        for (std::int64_t c = 0; c < tw; ++c) cbuf[c] = co_await ch_y.pop();
      } else {
        if (tin == 0) {
          for (std::int64_t c = 0; c < tw; ++c) cbuf[c] = co_await ch_y.pop();
        }
        for (std::int64_t r = 0; r < th; ++r) rbuf[r] = co_await ch_x.pop();
      }
      int in_cycle = 0;
      const bool row_elems = cfg.elem_order == Order::RowMajor;
      const std::int64_t no = row_elems ? th : tw;
      const std::int64_t ni = row_elems ? tw : th;
      for (std::int64_t o = 0; o < no; ++o) {
        for (std::int64_t i = 0; i < ni; ++i) {
          const std::int64_t r = row_elems ? o : i;
          const std::int64_t c = row_elems ? i : o;
          const T a = co_await ch_a.pop();
          co_await ch_out.push(a + alpha * rbuf[r] * cbuf[c]);
          if (++in_cycle == W) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
      }
    }
    co_await next_cycle();
  }
}

template <typename T>
Task syr2(core::GerConfig cfg, std::int64_t n, T alpha, Channel<T>& ch_a,
          Channel<T>& ch_x_row, Channel<T>& ch_x_col, Channel<T>& ch_y_row,
          Channel<T>& ch_y_col, Channel<T>& ch_out) {
  cfg.validate();
  const std::int64_t TN = cfg.tile_rows, TM = cfg.tile_cols;
  const std::int64_t nti = ceil_div(n, TN), ntj = ceil_div(n, TM);
  const int W = cfg.width;
  const bool by_rows = cfg.tiling == core::MatrixTiling::TilesByRows;
  std::vector<T> xr(static_cast<std::size_t>(TN)), yr(static_cast<std::size_t>(TN));
  std::vector<T> xc(static_cast<std::size_t>(TM)), yc(static_cast<std::size_t>(TM));
  const std::int64_t outer = by_rows ? nti : ntj;
  const std::int64_t inner = by_rows ? ntj : nti;
  for (std::int64_t to = 0; to < outer; ++to) {
    for (std::int64_t tin = 0; tin < inner; ++tin) {
      const std::int64_t ti = by_rows ? to : tin;
      const std::int64_t tj = by_rows ? tin : to;
      const std::int64_t th = std::min(TN, n - ti * TN);
      const std::int64_t tw = std::min(TM, n - tj * TM);
      if (by_rows) {
        if (tin == 0) {
          for (std::int64_t r = 0; r < th; ++r) {
            xr[r] = co_await ch_x_row.pop();
            yr[r] = co_await ch_y_row.pop();
          }
        }
        for (std::int64_t c = 0; c < tw; ++c) {
          xc[c] = co_await ch_x_col.pop();
          yc[c] = co_await ch_y_col.pop();
        }
      } else {
        if (tin == 0) {
          for (std::int64_t c = 0; c < tw; ++c) {
            xc[c] = co_await ch_x_col.pop();
            yc[c] = co_await ch_y_col.pop();
          }
        }
        for (std::int64_t r = 0; r < th; ++r) {
          xr[r] = co_await ch_x_row.pop();
          yr[r] = co_await ch_y_row.pop();
        }
      }
      int in_cycle = 0;
      const bool row_elems = cfg.elem_order == Order::RowMajor;
      const std::int64_t no = row_elems ? th : tw;
      const std::int64_t ni = row_elems ? tw : th;
      for (std::int64_t o = 0; o < no; ++o) {
        for (std::int64_t i = 0; i < ni; ++i) {
          const std::int64_t r = row_elems ? o : i;
          const std::int64_t c = row_elems ? i : o;
          const T a = co_await ch_a.pop();
          co_await ch_out.push(a + alpha * (xr[r] * yc[c] + yr[r] * xc[c]));
          if (++in_cycle == W) {
            in_cycle = 0;
            co_await next_cycle();
          }
        }
      }
    }
    co_await next_cycle();
  }
}

}  // namespace per_element

/// A consumer-rate limiter: forwards n elements, `rate` per cycle, one
/// await at a time (identical in both runs).
Task throttle(std::int64_t n, int rate, Channel<float>& in,
              Channel<float>& out) {
  for (std::int64_t i = 0; i < n;) {
    for (int k = 0; k < rate && i < n; ++k, ++i) {
      co_await out.push(co_await in.pop());
    }
    co_await next_cycle();
  }
}

/// Everything a run exposes per element, cycle or stall.
struct Observed {
  std::string error;
  std::uint64_t cycles = 0, stall_cycles = 0;
  std::vector<std::uint64_t> pushed, popped, stalls, peaks, resumes, bytes;
  std::vector<std::vector<std::uint32_t>> occupancy;
  std::vector<std::uint32_t> out_bits;
  bool tainted = false;
  std::string taint_module, taint_channel;
  std::uint64_t taint_cycle = 0, taint_bits = 0;
  bool corrupted = false;
  std::string corrupt_channel, corrupt_module;
  std::vector<std::uint64_t> tap_bits;  // per channel: sum, mag, count
};

/// Names the first field where two runs differ ("" when they match).
std::string mismatch(const Observed& got, const Observed& want) {
  std::ostringstream os;
  auto field = [&](const char* name, const auto& a, const auto& b) {
    if (os.tellp() == 0 && !(a == b)) os << name << " differs";
  };
  field("error", got.error, want.error);
  field("cycles", got.cycles, want.cycles);
  field("stall_module_cycles", got.stall_cycles, want.stall_cycles);
  field("total_pushed", got.pushed, want.pushed);
  field("total_popped", got.popped, want.popped);
  field("stall_events", got.stalls, want.stalls);
  field("peak_occupancy", got.peaks, want.peaks);
  field("module resumes", got.resumes, want.resumes);
  field("DRAM bytes", got.bytes, want.bytes);
  field("occupancy_trace", got.occupancy, want.occupancy);
  field("output bits", got.out_bits, want.out_bits);
  field("taint", std::tie(got.tainted, got.taint_module, got.taint_channel,
                          got.taint_cycle, got.taint_bits),
        std::tie(want.tainted, want.taint_module, want.taint_channel,
                 want.taint_cycle, want.taint_bits));
  field("corruption", std::tie(got.corrupted, got.corrupt_channel,
                               got.corrupt_module),
        std::tie(want.corrupted, want.corrupt_channel, want.corrupt_module));
  field("checksum taps", got.tap_bits, want.tap_bits);
  if (got.error != want.error) {
    os << " (got '" << got.error << "', want '" << want.error << "')";
  }
  return os.str();
}

struct Faults {
  std::uint64_t corrupt_k = 0;  // 0: no in-flight corruption
  bool taint = false, trap = false;
};

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Runs `g` (with its outputs in `outs`) and records every observable.
/// With `record` off no occupancy trace or tap is armed, so the run
/// takes the plain path a host-API graph takes.
Observed observe(Graph& g, const std::vector<DramBank*>& banks,
                 const std::vector<const std::vector<float>*>& outs,
                 const Faults& f, bool record = true) {
  Scheduler& s = g.scheduler();
  if (record) {
    s.enable_occupancy_trace();
    for (const auto& ch : g.channels()) ch->arm_tap();
  }
  if (f.taint) s.enable_taint(f.trap);
  if (f.corrupt_k != 0) s.corrupt_push(f.corrupt_k);
  Observed o;
  try {
    g.run();
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  o.cycles = g.cycles();
  o.stall_cycles = s.stall_module_cycles();
  for (std::size_t c = 0; c < g.channels().size(); ++c) {
    const ChannelBase& ch = *g.channels()[c];
    o.pushed.push_back(ch.total_pushed());
    o.popped.push_back(ch.total_popped());
    o.stalls.push_back(ch.stall_events());
    o.peaks.push_back(ch.peak_occupancy());
    if (record) o.occupancy.push_back(s.occupancy_trace(c));
    o.tap_bits.push_back(std::bit_cast<std::uint64_t>(ch.tap_sum()));
    o.tap_bits.push_back(std::bit_cast<std::uint64_t>(ch.tap_mag()));
    o.tap_bits.push_back(ch.tap_count());
  }
  for (std::size_t m = 0; m < s.module_count(); ++m) {
    o.resumes.push_back(s.module_resumes(static_cast<int>(m)));
  }
  for (const DramBank* b : banks) o.bytes.push_back(b->total_bytes());
  for (const auto* v : outs) {
    for (const float x : *v) o.out_bits.push_back(bits_of(x));
  }
  o.tainted = s.taint().tainted;
  o.taint_module = s.taint().module;
  o.taint_channel = s.taint().channel;
  o.taint_cycle = s.taint().cycle;
  o.taint_bits = std::bit_cast<std::uint64_t>(s.taint().value);
  o.corrupted = s.corruption_fired();
  o.corrupt_channel = s.corrupted_channel();
  o.corrupt_module = s.corrupting_module();
  return o;
}

constexpr std::size_t kCaps[] = {1, 3, 5, 63, 64, 100};
constexpr int kWidths[] = {1, 3, 16};

/// A random Level-1 pipeline: x -> SCAL -> AXPY(+y) -> fan-out -> {DOT(z),
/// throttled metered writer}, readers metered on two shared banks.
struct VectorCase {
  std::int64_t n;
  int width, rate;
  float alpha, beta;
  std::size_t caps[9];
  double bank_bytes[2];
  int bank_of[4];  // readers x, y, z and the writer
  std::vector<float> x, y, z;

  explicit VectorCase(std::mt19937& rng) {
    auto pick = [&](int k) {
      return std::uniform_int_distribution<int>(0, k - 1)(rng);
    };
    n = 1 + pick(300);
    width = kWidths[pick(3)];
    rate = 1 + pick(2 * width);
    alpha = 0.5f + 0.25f * static_cast<float>(pick(8));
    beta = -1.0f + 0.125f * static_cast<float>(pick(16));
    for (auto& c : caps) c = kCaps[pick(6)];
    for (auto& b : bank_bytes) b = 2.0 + 8.0 * pick(12);
    for (auto& b : bank_of) b = pick(2);
    x = Workload(rng()).vector<float>(n);
    y = Workload(rng()).vector<float>(n);
    z = Workload(rng()).vector<float>(n);
  }

  Observed run(bool burst, Mode mode, const Faults& f = {}) const {
    Graph g(mode);
    std::vector<DramBank*> banks{&g.bank("ddr0", bank_bytes[0]),
                                 &g.bank("ddr1", bank_bytes[1])};
    std::vector<Channel<float>*> ch;
    for (int c = 0; c < 9; ++c) {
      ch.push_back(&g.channel<float>("c" + std::to_string(c), caps[c]));
    }
    std::vector<float> out(static_cast<std::size_t>(n)), res;
    const core::Level1Config cfg{width};
    const auto cx = VectorView<const float>(x.data(), n);
    const auto cy = VectorView<const float>(y.data(), n);
    const auto cz = VectorView<const float>(z.data(), n);
    const auto vout = VectorView<float>(out.data(), n);
    DramBank* bx = banks[bank_of[0]];
    DramBank* by = banks[bank_of[1]];
    DramBank* bz = banks[bank_of[2]];
    DramBank* bw = banks[bank_of[3]];
    if (burst) {
      g.spawn("rx", read_vector<float>(cx, 1, width, *ch[0], bx));
      g.spawn("ry", read_vector<float>(cy, 1, width, *ch[1], by));
      g.spawn("rz", read_vector<float>(cz, 1, width, *ch[2], bz));
      g.spawn("scal", core::scal<float>(cfg, n, alpha, *ch[0], *ch[3]));
      g.spawn("axpy", core::axpy<float>(cfg, n, beta, *ch[3], *ch[1], *ch[4]));
      g.spawn("fan", fanout2<float>(n, width, *ch[4], *ch[5], *ch[6]));
      g.spawn("dot", core::dot<float>(cfg, n, *ch[5], *ch[2], *ch[7]));
      g.spawn("wr", write_vector<float>(vout, 1, width, *ch[8], bw));
    } else {
      g.spawn("rx", per_element::read_vector<float>(cx, 1, width, *ch[0], bx));
      g.spawn("ry", per_element::read_vector<float>(cy, 1, width, *ch[1], by));
      g.spawn("rz", per_element::read_vector<float>(cz, 1, width, *ch[2], bz));
      g.spawn("scal", per_element::scal<float>(cfg, n, alpha, *ch[0], *ch[3]));
      g.spawn("axpy",
              per_element::axpy<float>(cfg, n, beta, *ch[3], *ch[1], *ch[4]));
      g.spawn("fan",
              per_element::fanout2<float>(n, width, *ch[4], *ch[5], *ch[6]));
      g.spawn("dot", per_element::dot<float>(cfg, n, *ch[5], *ch[2], *ch[7]));
      g.spawn("wr",
              per_element::write_vector<float>(vout, 1, width, *ch[8], bw));
    }
    g.spawn("throttle", throttle(n, rate, *ch[6], *ch[8]));
    g.spawn("res", collect<float>(1, *ch[7], res));
    return observe(g, banks, {&out, &res}, f);
  }
};

/// A random GEMV: every transpose / tiling / element order, ragged tiles,
/// metered readers, a throttled result consumer.
struct GemvCase {
  std::int64_t rows, cols;
  core::GemvConfig cfg;
  int rate;
  float alpha, beta;
  std::size_t caps[5];
  double bank_bytes;
  std::vector<float> a, x, y;

  explicit GemvCase(std::mt19937& rng) {
    auto pick = [&](int k) {
      return std::uniform_int_distribution<int>(0, k - 1)(rng);
    };
    rows = 1 + pick(24);
    cols = 1 + pick(24);
    cfg.trans = pick(2) ? Transpose::Trans : Transpose::None;
    cfg.tiling = pick(2) ? core::MatrixTiling::TilesByCols
                         : core::MatrixTiling::TilesByRows;
    cfg.elem_order = pick(2) ? Order::ColMajor : Order::RowMajor;
    cfg.width = kWidths[pick(3)];
    cfg.tile_rows = 1 + pick(9);
    cfg.tile_cols = 1 + pick(9);
    rate = 1 + pick(2 * cfg.width);
    alpha = 0.5f + 0.25f * static_cast<float>(pick(8));
    beta = -1.0f + 0.125f * static_cast<float>(pick(16));
    for (auto& c : caps) c = kCaps[pick(6)];
    bank_bytes = 2.0 + 8.0 * pick(12);
    a = Workload(rng()).vector<float>(rows * cols);
    const bool t = cfg.trans == Transpose::Trans;
    x = Workload(rng()).vector<float>(t ? rows : cols);
    y = Workload(rng()).vector<float>(t ? cols : rows);
  }

  Observed run(bool burst, Mode mode, const Faults& f = {}) const {
    Graph g(mode);
    std::vector<DramBank*> banks{&g.bank("ddr", bank_bytes)};
    std::vector<Channel<float>*> ch;
    for (int c = 0; c < 5; ++c) {
      ch.push_back(&g.channel<float>("c" + std::to_string(c), caps[c]));
    }
    const auto nx = static_cast<std::int64_t>(x.size());
    const auto ny = static_cast<std::int64_t>(y.size());
    std::vector<float> out(y.size());
    const MatrixView<const float> A(a.data(), rows, cols, cols);
    const VectorView<const float> cx(x.data(), nx), cy(y.data(), ny);
    const VectorView<float> vout(out.data(), ny);
    const TileSchedule sched = core::gemv_a_schedule(cfg);
    const std::int64_t xr = core::gemv_x_repeat(cfg, rows, cols);
    const int w = cfg.width;
    if (burst) {
      g.spawn("ra", read_matrix<float>(A, sched, 1, w, *ch[0], banks[0]));
      g.spawn("rx", read_vector<float>(cx, xr, w, *ch[1], banks[0]));
      g.spawn("ry", read_vector<float>(cy, 1, w, *ch[2]));
      g.spawn("gemv", core::gemv<float>(cfg, rows, cols, alpha, beta, *ch[0],
                                        *ch[1], *ch[2], *ch[3]));
      g.spawn("wr", write_vector<float>(vout, 1, w, *ch[4], banks[0]));
    } else {
      g.spawn("ra", per_element::read_matrix<float>(A, sched, 1, w, *ch[0],
                                                    banks[0]));
      g.spawn("rx",
              per_element::read_vector<float>(cx, xr, w, *ch[1], banks[0]));
      g.spawn("ry", per_element::read_vector<float>(cy, 1, w, *ch[2]));
      g.spawn("gemv", per_element::gemv<float>(cfg, rows, cols, alpha, beta,
                                               *ch[0], *ch[1], *ch[2], *ch[3]));
      g.spawn("wr",
              per_element::write_vector<float>(vout, 1, w, *ch[4], banks[0]));
    }
    g.spawn("throttle", throttle(ny, rate, *ch[3], *ch[4]));
    return observe(g, banks, {&out}, f);
  }
};

/// A random matrix round trip: read_matrix -> throttle -> write_matrix,
/// both metered on one bank, under random tile schedules. In place, the
/// writer stores into the matrix being read, in its own schedule, so
/// the reader must load each element exactly when a single push would.
struct MatrixCase {
  std::int64_t rows, cols;
  TileSchedule rsched, wsched;
  bool in_place;
  int width, rate;
  std::size_t caps[2];
  double bank_bytes;
  std::vector<float> a;

  explicit MatrixCase(std::mt19937& rng) {
    auto pick = [&](int k) {
      return std::uniform_int_distribution<int>(0, k - 1)(rng);
    };
    rows = 1 + pick(24);
    cols = 1 + pick(24);
    for (TileSchedule* s : {&rsched, &wsched}) {
      s->tile_order = pick(2) ? Order::ColMajor : Order::RowMajor;
      s->elem_order = pick(2) ? Order::ColMajor : Order::RowMajor;
      s->tile_rows = 1 + pick(9);
      s->tile_cols = 1 + pick(9);
    }
    in_place = pick(2) == 1;
    if (!in_place) wsched = rsched;
    width = kWidths[pick(3)];
    rate = 1 + pick(2 * width);
    for (auto& c : caps) c = kCaps[pick(6)];
    bank_bytes = 2.0 + 8.0 * pick(12);
    a = Workload(rng()).vector<float>(rows * cols);
  }

  Observed run(bool burst, Mode mode) const {
    Graph g(mode);
    std::vector<DramBank*> banks{&g.bank("ddr", bank_bytes)};
    auto& c0 = g.channel<float>("c0", caps[0]);
    auto& c1 = g.channel<float>("c1", caps[1]);
    std::vector<float> in = a, out(a.size());
    std::vector<float>& dst = in_place ? in : out;
    const MatrixView<const float> A(in.data(), rows, cols, cols);
    const MatrixView<float> B(dst.data(), rows, cols, cols);
    if (burst) {
      g.spawn("ra", read_matrix<float>(A, rsched, 1, width, c0, banks[0]));
      g.spawn("wa", write_matrix<float>(B, wsched, width, c1, banks[0]));
    } else {
      g.spawn("ra", per_element::read_matrix<float>(A, rsched, 1, width, c0,
                                                    banks[0]));
      g.spawn("wa", per_element::write_matrix<float>(B, wsched, width, c1,
                                                     banks[0]));
    }
    g.spawn("throttle", throttle(rows * cols, rate, c0, c1));
    return observe(g, banks, {&dst}, {});
  }
};

TEST(BurstExactness, RandomMatrixRoundTripsMatchPerElement) {
  std::mt19937 rng(2020);
  int in_place = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const MatrixCase c(rng);
    in_place += c.in_place;
    for (const Mode mode : {Mode::Cycle, Mode::Functional}) {
      const Observed ref = c.run(false, mode);
      ASSERT_TRUE(ref.error.empty()) << ref.error;
      if (!c.in_place) {
        ASSERT_EQ(ref.out_bits.size(), c.a.size());
        for (std::size_t e = 0; e < c.a.size(); ++e) {
          ASSERT_EQ(ref.out_bits[e], bits_of(c.a[e]));
        }
      }
      EXPECT_EQ(mismatch(c.run(true, mode), ref), "")
          << "trial " << trial << " " << c.rows << "x" << c.cols
          << " W=" << c.width << (c.in_place ? " in place" : "");
    }
  }
  EXPECT_GT(in_place, 20);
}

TEST(BurstExactness, RandomVectorPipelinesMatchPerElement) {
  std::mt19937 rng(20200901);
  for (int trial = 0; trial < 60; ++trial) {
    const VectorCase c(rng);
    for (const Mode mode : {Mode::Cycle, Mode::Functional}) {
      const Observed ref = c.run(false, mode);
      ASSERT_TRUE(ref.error.empty()) << ref.error;
      EXPECT_EQ(mismatch(c.run(true, mode), ref), "")
          << "trial " << trial << " n=" << c.n << " W=" << c.width;
    }
  }
}

TEST(BurstExactness, RandomGemvsMatchPerElement) {
  std::mt19937 rng(1912);
  for (int trial = 0; trial < 80; ++trial) {
    const GemvCase c(rng);
    for (const Mode mode : {Mode::Cycle, Mode::Functional}) {
      const Observed ref = c.run(false, mode);
      ASSERT_TRUE(ref.error.empty()) << ref.error;
      EXPECT_EQ(mismatch(c.run(true, mode), ref), "")
          << "trial " << trial << " " << c.rows << "x" << c.cols
          << " W=" << c.cfg.width;
    }
  }
}

/// A corruption target drawn from every push a clean run makes, so it
/// lands in any module, mostly inside a burst.
template <typename Case>
void expect_corruption_matches(const Case& c, std::mt19937& rng) {
  const Observed clean = c.run(false, Mode::Cycle);
  std::uint64_t pushes = 0;
  for (const std::uint64_t p : clean.pushed) pushes += p;
  const std::uint64_t k =
      std::uniform_int_distribution<std::uint64_t>(1, pushes)(rng);
  const Observed ref = c.run(false, Mode::Cycle, {k});
  ASSERT_TRUE(ref.corrupted);
  EXPECT_EQ(mismatch(c.run(true, Mode::Cycle, {k}), ref), "")
      << "target " << k << " of " << pushes << " in '"
      << ref.corrupt_channel << "' by '" << ref.corrupt_module << "'";
}

TEST(BurstExactness, MidBurstCorruptionHitsTheSameElement) {
  // The damaged element, channel and module must be those of the
  // per-element run.
  std::mt19937 rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    expect_corruption_matches(VectorCase(rng), rng);
    expect_corruption_matches(GemvCase(rng), rng);
  }
}

/// A random fan-out: a metered reader feeds fanout2, whose branches drain
/// through throttles of their own rates into a metered and an unmetered
/// writer. The branch consumers are spawned in random order.
struct FanoutCase {
  std::int64_t n;
  int width, rate[2];
  bool b_first;
  std::size_t caps[5];
  double bank_bytes;
  std::vector<float> x;

  explicit FanoutCase(std::mt19937& rng) {
    auto pick = [&](int k) {
      return std::uniform_int_distribution<int>(0, k - 1)(rng);
    };
    n = 1 + pick(300);
    width = kWidths[pick(3)];
    for (auto& r : rate) r = 1 + pick(2 * width);
    b_first = pick(2) == 1;
    for (auto& c : caps) c = kCaps[pick(6)];
    bank_bytes = 2.0 + 8.0 * pick(12);
    x = Workload(rng()).vector<float>(n);
  }

  /// Puts a NaN or Inf at a random element of the input.
  void poison(std::mt19937& rng) {
    const auto j = std::uniform_int_distribution<std::int64_t>(0, n - 1)(rng);
    x[static_cast<std::size_t>(j)] =
        rng() % 2 ? std::numeric_limits<float>::quiet_NaN()
                  : -std::numeric_limits<float>::infinity();
  }

  Observed run(bool burst, Mode mode, const Faults& f = {}) const {
    Graph g(mode);
    std::vector<DramBank*> banks{&g.bank("ddr", bank_bytes)};
    std::vector<Channel<float>*> ch;
    for (int c = 0; c < 5; ++c) {
      ch.push_back(&g.channel<float>("c" + std::to_string(c), caps[c]));
    }
    std::vector<float> out_a(x.size()), out_b(x.size());
    const VectorView<const float> cx(x.data(), n);
    const VectorView<float> va(out_a.data(), n), vb(out_b.data(), n);
    if (burst) {
      g.spawn("rx", read_vector<float>(cx, 1, width, *ch[0], banks[0]));
      g.spawn("fan", fanout2<float>(n, width, *ch[0], *ch[1], *ch[2]));
    } else {
      g.spawn("rx",
              per_element::read_vector<float>(cx, 1, width, *ch[0], banks[0]));
      g.spawn("fan",
              per_element::fanout2<float>(n, width, *ch[0], *ch[1], *ch[2]));
    }
    for (int k = 0; k < 2; ++k) {
      const int b = b_first ? 1 - k : k;
      Channel<float>& drained = *ch[3 + b];
      DramBank* bank = b == 0 ? banks[0] : nullptr;
      const VectorView<float>& dst = b == 0 ? va : vb;
      g.spawn(b == 0 ? "throttle_a" : "throttle_b",
              throttle(n, rate[b], *ch[1 + b], drained));
      g.spawn(b == 0 ? "wa" : "wb",
              burst ? write_vector<float>(dst, 1, width, drained, bank)
                    : per_element::write_vector<float>(dst, 1, width, drained,
                                                       bank));
    }
    return observe(g, banks, {&out_a, &out_b}, f);
  }
};

/// A random GER (or, one draw in three, SYR2 on a square A): both tilings
/// and element orders, ragged tiles, replayed vector operands, metered
/// readers and writer, a throttled consumer.
struct GerCase {
  std::int64_t rows, cols;
  bool syr2;
  core::GerConfig cfg;
  int rate;
  float alpha;
  std::size_t caps[7];
  double bank_bytes;
  std::vector<float> a, x, y;

  explicit GerCase(std::mt19937& rng) {
    auto pick = [&](int k) {
      return std::uniform_int_distribution<int>(0, k - 1)(rng);
    };
    rows = 1 + pick(24);
    syr2 = pick(3) == 0;
    cols = syr2 ? rows : 1 + pick(24);
    cfg.tiling = pick(2) ? core::MatrixTiling::TilesByCols
                         : core::MatrixTiling::TilesByRows;
    cfg.elem_order = pick(2) ? Order::ColMajor : Order::RowMajor;
    cfg.width = kWidths[pick(3)];
    cfg.tile_rows = 1 + pick(9);
    cfg.tile_cols = 1 + pick(9);
    rate = 1 + pick(2 * cfg.width);
    alpha = 0.5f + 0.25f * static_cast<float>(pick(8));
    for (auto& c : caps) c = kCaps[pick(6)];
    bank_bytes = 2.0 + 8.0 * pick(12);
    a = Workload(rng()).vector<float>(rows * cols);
    x = Workload(rng()).vector<float>(rows);
    y = Workload(rng()).vector<float>(cols);
  }

  /// Makes one product overflow, so the GER module itself produces the
  /// Inf, or (every other draw) puts a NaN into A.
  void poison(std::mt19937& rng) {
    if (rng() % 2) {
      x[rng() % x.size()] = 3e38f;
      y[rng() % y.size()] = 2.0f;
      alpha = 4.0f;
    } else {
      a[rng() % a.size()] = std::numeric_limits<float>::quiet_NaN();
    }
  }

  Observed run(bool burst, Mode mode, const Faults& f = {}) const {
    Graph g(mode);
    std::vector<DramBank*> banks{&g.bank("ddr", bank_bytes)};
    std::vector<Channel<float>*> ch;
    for (int c = 0; c < (syr2 ? 7 : 5); ++c) {
      ch.push_back(&g.channel<float>("c" + std::to_string(c), caps[c]));
    }
    std::vector<float> out(a.size());
    const MatrixView<const float> A(a.data(), rows, cols, cols);
    const MatrixView<float> B(out.data(), rows, cols, cols);
    const VectorView<const float> cx(x.data(), rows), cy(y.data(), cols);
    const TileSchedule sched = core::ger_a_schedule(cfg);
    const std::int64_t xr = core::ger_x_repeat(cfg, rows, cols);
    const std::int64_t yr = core::ger_y_repeat(cfg, rows, cols);
    const int w = cfg.width;
    // SYR2 streams x and y along both dimensions: x_row and y_row (c1,
    // c5) replay like GER's x, x_col and y_col (c2, c6) like its y.
    const VectorView<const float> col_in = syr2 ? cx : cy;
    if (burst) {
      g.spawn("ra", read_matrix<float>(A, sched, 1, w, *ch[0], banks[0]));
      g.spawn("rx", read_vector<float>(cx, xr, w, *ch[1], banks[0]));
      g.spawn("ry", read_vector<float>(col_in, yr, w, *ch[2]));
      if (syr2) {
        g.spawn("ryr", read_vector<float>(cy, xr, w, *ch[5], banks[0]));
        g.spawn("ryc", read_vector<float>(cy, yr, w, *ch[6]));
        g.spawn("ger", core::syr2<float>(cfg, rows, alpha, *ch[0], *ch[1],
                                         *ch[2], *ch[5], *ch[6], *ch[3]));
      } else {
        g.spawn("ger", core::ger<float>(cfg, rows, cols, alpha, *ch[0],
                                        *ch[1], *ch[2], *ch[3]));
      }
      g.spawn("wa", write_matrix<float>(B, sched, w, *ch[4], banks[0]));
    } else {
      g.spawn("ra", per_element::read_matrix<float>(A, sched, 1, w, *ch[0],
                                                    banks[0]));
      g.spawn("rx",
              per_element::read_vector<float>(cx, xr, w, *ch[1], banks[0]));
      g.spawn("ry", per_element::read_vector<float>(col_in, yr, w, *ch[2]));
      if (syr2) {
        g.spawn("ryr",
                per_element::read_vector<float>(cy, xr, w, *ch[5], banks[0]));
        g.spawn("ryc", per_element::read_vector<float>(cy, yr, w, *ch[6]));
        g.spawn("ger",
                per_element::syr2<float>(cfg, rows, alpha, *ch[0], *ch[1],
                                         *ch[2], *ch[5], *ch[6], *ch[3]));
      } else {
        g.spawn("ger", per_element::ger<float>(cfg, rows, cols, alpha,
                                               *ch[0], *ch[1], *ch[2],
                                               *ch[3]));
      }
      g.spawn("wa",
              per_element::write_matrix<float>(B, sched, w, *ch[4], banks[0]));
    }
    g.spawn("throttle", throttle(rows * cols, rate, *ch[3], *ch[4]));
    return observe(g, banks, {&out}, f);
  }
};

/// Runs `c` per element and in bursts under each hook setting — none,
/// taint recording, the taint trap, an armed corruption — and expects
/// every observable to match. The taint settings run a poisoned copy.
template <typename Case>
void expect_hooks_match(const Case& c, std::mt19937& rng,
                        const std::string& what) {
  for (const Mode mode : {Mode::Cycle, Mode::Functional}) {
    const Observed ref = c.run(false, mode);
    ASSERT_TRUE(ref.error.empty()) << ref.error;
    EXPECT_EQ(mismatch(c.run(true, mode), ref), "") << what << ", no hooks";
  }
  Case poisoned = c;
  poisoned.poison(rng);
  for (const bool trap : {false, true}) {
    const Faults f{0, true, trap};
    const Observed ref = poisoned.run(false, Mode::Cycle, f);
    ASSERT_TRUE(ref.tainted) << what;
    EXPECT_EQ(!ref.error.empty(), trap) << what;
    EXPECT_EQ(mismatch(poisoned.run(true, Mode::Cycle, f), ref), "")
        << what << ", taint " << (trap ? "trap" : "recording") << " in '"
        << ref.taint_channel << "' by '" << ref.taint_module << "'";
  }
  expect_corruption_matches(c, rng);
}

TEST(BurstExactness, RandomFanoutsMatchPerElementUnderEveryHook) {
  std::mt19937 rng(1907);
  for (int trial = 0; trial < 80; ++trial) {
    const FanoutCase c(rng);
    expect_hooks_match(c, rng,
                       "trial " + std::to_string(trial) + " n=" +
                           std::to_string(c.n) +
                           " W=" + std::to_string(c.width));
  }
}

TEST(BurstExactness, RandomGersMatchPerElementUnderEveryHook) {
  std::mt19937 rng(7929);
  int syr2 = 0;
  for (int trial = 0; trial < 90; ++trial) {
    const GerCase c(rng);
    syr2 += c.syr2;
    expect_hooks_match(c, rng,
                       "trial " + std::to_string(trial) +
                           (c.syr2 ? " SYR2 " : " GER ") +
                           std::to_string(c.rows) + "x" +
                           std::to_string(c.cols) +
                           " W=" + std::to_string(c.cfg.width));
  }
  EXPECT_GT(syr2, 20);
}

TEST(BurstExactness, FanoutCorruptionIntoNonFiniteKeepsProvenance) {
  // Every input value turns into an Inf when the injected flip hits it,
  // so the damaged push is also the first non-finite one. On either
  // branch of the fan-out it must be recorded (or trapped) at the
  // element, channel and module of the per-element run, which interleaves
  // the two branches a0 b0 a1 b1.
  std::mt19937 rng(1809);
  int on_branch_b = 0;
  for (int trial = 0; trial < 60; ++trial) {
    FanoutCase c(rng);
    for (float& v : c.x) v = std::bit_cast<float>(0x25800000u);
    const Observed clean = c.run(false, Mode::Cycle);
    std::uint64_t pushes = 0;
    for (const std::uint64_t p : clean.pushed) pushes += p;
    for (const bool trap : {false, true}) {
      const Faults f{std::uniform_int_distribution<std::uint64_t>(
                         1, pushes)(rng),
                     true, trap};
      const Observed ref = c.run(false, Mode::Cycle, f);
      ASSERT_TRUE(ref.corrupted);
      ASSERT_TRUE(ref.tainted);
      EXPECT_EQ(ref.taint_channel, ref.corrupt_channel);
      on_branch_b += ref.corrupt_channel == "c2";
      EXPECT_EQ(mismatch(c.run(true, Mode::Cycle, f), ref), "")
          << "trial " << trial << " target " << f.corrupt_k << " of "
          << pushes << " in '" << ref.corrupt_channel << "'";
    }
  }
  EXPECT_GT(on_branch_b, 10);
}

TEST(BurstExactness, MidBurstNonFiniteKeepsTaintProvenance) {
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 24; ++trial) {
    VectorCase c(rng);
    const auto j = std::uniform_int_distribution<std::int64_t>(0, c.n - 1)(rng);
    // Odd trials poison an input (first seen at the reader); even ones
    // make SCAL overflow, so the module itself produces the Inf.
    if (trial % 2 == 1) {
      c.x[static_cast<std::size_t>(j)] =
          std::numeric_limits<float>::quiet_NaN();
    } else {
      c.x[static_cast<std::size_t>(j)] = 3e38f;
      c.alpha = 4.0f;
    }
    for (const bool trap : {false, true}) {
      const Faults f{0, true, trap};
      const Observed ref = c.run(false, Mode::Cycle, f);
      ASSERT_TRUE(ref.tainted);
      EXPECT_EQ(ref.taint_module, trial % 2 == 1 ? "rx" : "scal");
      EXPECT_EQ(!ref.error.empty(), trap);  // trap mode throws
      EXPECT_EQ(mismatch(c.run(true, Mode::Cycle, f), ref), "")
          << "trial " << trial << " trap=" << trap << " j=" << j;
    }
  }
}

TEST(Channel, BurstTapMatchesPerElementTap) {
  // Checksum taps: bursts of uneven length must fold the same values in
  // the same order as single pushes, bit for bit, and re-arming restarts
  // the tap.
  std::vector<float> data = Workload(9).vector<float>(101, -4.0, 4.0);
  data[17] = -0.0f;
  Graph g;
  auto& one = g.channel<float>("one", 100);
  auto& many = g.channel<float>("many", 100);
  one.arm_tap();
  many.arm_tap();
  float sinkv[16];
  std::size_t k = 0;
  for (std::size_t len = 1; k < data.size(); len = len % 13 + 1) {
    const std::size_t n = std::min(len, data.size() - k);
    for (std::size_t e = 0; e < n; ++e) ASSERT_TRUE(one.try_put(data[k + e]));
    ASSERT_EQ(many.try_put_n(data.data() + k, n), n);
    ASSERT_EQ(one.try_take_n(sinkv, 16), n);
    ASSERT_EQ(many.try_take_n(sinkv, 16), n);
    k += n;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(many.tap_sum()),
            std::bit_cast<std::uint64_t>(one.tap_sum()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(many.tap_mag()),
            std::bit_cast<std::uint64_t>(one.tap_mag()));
  EXPECT_EQ(many.tap_count(), data.size());
  // The reference: the values summed in push order.
  double sum = 0, mag = 0;
  for (const float v : data) {
    sum += v;
    mag += v < 0 ? -static_cast<double>(v) : v;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(many.tap_sum()),
            std::bit_cast<std::uint64_t>(sum));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(many.tap_mag()),
            std::bit_cast<std::uint64_t>(mag));
  // Re-arming after a burst starts the tap afresh.
  auto& ch = g.channel<float>("rearm", 8);
  const float v[3] = {1.0f, 2.0f, 4.0f};
  ch.arm_tap();
  ASSERT_EQ(ch.try_put_n(v, 3), 3u);
  ch.arm_tap();
  float out[3];
  ASSERT_EQ(ch.try_take_n(out, 3), 3u);
  ASSERT_EQ(ch.try_put_n(v, 2), 2u);
  EXPECT_EQ(ch.tap_sum(), 1.0 + 2.0);
  EXPECT_EQ(ch.tap_count(), 2u);
}

TEST(Channel, NonPowerOfTwoCapacityStaysLogical) {
  // Storage is rounded up to 4 slots; the channel must still hold 3.
  Graph g(Mode::Cycle);
  auto& ch = g.channel<float>("c3", 3);
  const float src[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(ch.try_put_n(src, 10), 3u);
  EXPECT_TRUE(ch.full());
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch.room(), 0u);
  EXPECT_FALSE(ch.try_put(10.0f));
  float dst[10] = {};
  EXPECT_EQ(ch.try_take_n(dst, 2), 2u);
  EXPECT_EQ(dst[0], 0.0f);
  EXPECT_EQ(dst[1], 1.0f);
  // Wrap the ring through the unused storage slot several times.
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(ch.try_put_n(src + 3, 10), 2u);
    EXPECT_TRUE(ch.full());
    EXPECT_EQ(ch.try_take_n(dst, 10), 3u);
    EXPECT_EQ(dst[0], round == 0 ? 2.0f : 4.0f);
    EXPECT_EQ(dst[1], 3.0f);
    EXPECT_EQ(dst[2], 4.0f);
    EXPECT_EQ(ch.try_put_n(src + 4, 1), 1u);
  }
  EXPECT_EQ(ch.peak_occupancy(), 3u);

  // A producer that fills it and a consumer that never comes: the
  // deadlock diagnostic reports the logical 3/3.
  Graph d;
  auto& c3 = d.channel<float>("c3", 3);
  d.spawn("gen", generate<float>(8, 1.0f, 8, c3));
  try {
    d.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("occupancy 3/3"), std::string::npos)
        << e.what();
  }
}

// --- Step and cycle budgets -------------------------------------------

/// gen -> sink over 256 elements at W=16 through a channel that never
/// fills: 34 resumes (16 batches and a final resume per module) in 16
/// cycles.
void build_gen_sink(Graph& g) {
  auto& ch = g.channel<float>("c", 64);
  g.spawn("gen", generate<float>(256, 1.0f, 16, ch));
  g.spawn("sink", sink<float>(256, 16, ch));
}

TEST(Watchdog, StepBudgetAllowsExactlyNResumes) {
  for (const Mode mode : {Mode::Cycle, Mode::Functional}) {
    Graph probe(mode);
    build_gen_sink(probe);
    probe.run();
    std::uint64_t resumes = 0;
    for (int m = 0; m < 2; ++m) resumes += probe.scheduler().module_resumes(m);
    if (mode == Mode::Cycle) {
      EXPECT_EQ(resumes, 34u);
    }
    Watchdog wd;
    wd.max_steps = resumes;
    Graph exact(mode);
    build_gen_sink(exact);
    EXPECT_NO_THROW(exact.run(wd));
    EXPECT_TRUE(exact.scheduler().finished());
    wd.max_steps = resumes - 1;
    Graph tight(mode);
    build_gen_sink(tight);
    EXPECT_THROW(tight.run(wd), TimeoutError);
  }
}

TEST(Watchdog, CycleBudgetAllowsExactlyNCycles) {
  Graph probe(Mode::Cycle);
  build_gen_sink(probe);
  probe.run();
  const std::uint64_t cycles = probe.cycles();
  EXPECT_EQ(cycles, 16u);
  Watchdog wd;
  wd.max_cycles = cycles;
  Graph exact(Mode::Cycle);
  build_gen_sink(exact);
  EXPECT_NO_THROW(exact.run(wd));
  wd.max_cycles = cycles - 1;
  Graph tight(Mode::Cycle);
  build_gen_sink(tight);
  EXPECT_THROW(tight.run(wd), TimeoutError);
}

// --- DRAM refill --------------------------------------------------------

/// The bank model applied eagerly: every cycle boundary refills, every
/// grant spends.
struct EagerBank {
  double bytes_per_cycle, available;
  std::uint64_t total = 0;

  void refill() {
    const double burst = std::max(bytes_per_cycle, 64.0);
    available = std::min(available + bytes_per_cycle, burst);
  }
  std::int64_t grant(std::int64_t want, std::size_t elem_bytes) {
    const auto affordable =
        static_cast<std::int64_t>(available / static_cast<double>(elem_bytes));
    const std::int64_t granted = std::min(want, affordable);
    if (granted > 0) {
      available -= static_cast<double>(granted * elem_bytes);
      total += static_cast<std::uint64_t>(granted) * elem_bytes;
    }
    return granted;
  }
};

struct Grant {
  std::uint64_t cycle;
  std::int64_t want;
  std::size_t elem_bytes;
  std::int64_t granted;
};

/// Asks `bank` for random amounts of 4- or 8-byte elements, several
/// times in some cycles and after random idle gaps (up to 300 cycles) in
/// others, and logs every grant.
Task random_grants(std::uint32_t seed, DramBank& bank, const Scheduler& s,
                   std::vector<Grant>& log) {
  std::mt19937 rng(seed);
  for (int step = 0; step < 400; ++step) {
    const int asks = 1 + static_cast<int>(rng() % 3);
    for (int a = 0; a < asks; ++a) {
      const auto want = static_cast<std::int64_t>(rng() % 40);
      const std::size_t eb = rng() % 2 ? 4 : 8;
      log.push_back({s.cycle(), want, eb, bank.grant_elems(want, eb)});
    }
    const std::uint32_t r = rng() % 8;
    const std::uint32_t gap = r < 4 ? 1 : r < 7 ? rng() % 20 : rng() % 300;
    for (std::uint32_t c = 0; c < gap; ++c) co_await next_cycle();
  }
}

TEST(DramBank, LazyRefillMatchesPerCycleModel) {
  std::uint32_t seed = 11;
  for (const double budget : {0.3, 2.5, 63.7, 100.0}) {
    for (int trial = 0; trial < 6; ++trial, ++seed) {
      Graph g(Mode::Cycle);
      DramBank& bank = g.bank("ddr", budget);
      std::vector<Grant> log;
      g.spawn("grants", random_grants(seed, bank, g.scheduler(), log));
      g.run();
      EagerBank eager{budget, budget};
      std::uint64_t cycle = 0;
      std::uint64_t granted = 0;
      for (std::size_t k = 0; k < log.size(); ++k) {
        const Grant& e = log[k];
        for (; cycle < e.cycle; ++cycle) eager.refill();
        ASSERT_EQ(e.granted, eager.grant(e.want, e.elem_bytes))
            << budget << " B/cycle, seed " << seed << ", grant " << k
            << " at cycle " << e.cycle;
        granted += static_cast<std::uint64_t>(e.granted);
      }
      EXPECT_GT(granted, 0u);
      EXPECT_EQ(bank.total_bytes(), eager.total);
    }
  }
}

TEST(DramBank, TriangleStoreBytesMatchStreamedElements) {
  // SYRK and SYR2K as a host call lowers them, every operand on bank 0
  // under a 4 x 16 grid: the panel and C readers and the C triangle
  // writer contend for one bank, whose byte count must equal what the
  // streams move, each element read plus each kept C element written.
  constexpr std::int64_t n = 17, k = 5;
  for (const RoutineKind kind : {RoutineKind::Syrk, RoutineKind::Syr2k}) {
    host::Device dev;
    host::Buffer<float> a(dev, n * k, 0), b(dev, n * k, 0), c(dev, n * n, 0);
    a.write(Workload(90).matrix<float>(n, k));
    b.write(Workload(92).matrix<float>(n, k));
    c.write(Workload(91).matrix<float>(n, n));
    host::kinds::Call<float> call{
        .rows = n, .cols = n, .k = k, .alpha = 1.25f, .beta = 0.5f};
    call.pe_rows = 4;
    call.pe_cols = 16;
    Graph g(Mode::Cycle);
    host::detail::BankSet banks(
        g, dev, host::detail::call_mhz(kind, call, dev.spec()));
    host::detail::Results<float> res;
    if (kind == RoutineKind::Syrk) {
      host::detail::build_call<float>(g, banks, kind, call, {{a}, {c}}, res);
    } else {
      host::detail::build_call<float>(g, banks, kind, call, {{a}, {b}, {c}},
                                      res);
    }
    g.run();
    std::uint64_t elems = n * (n + 1) / 2;  // the kept triangle of C
    for (int p = 0; p < routine_info(kind).inputs; ++p) {
      elems += g.channels()[static_cast<std::size_t>(p)]->total_pushed();
    }
    EXPECT_EQ(banks.at(0)->total_bytes(), elems * sizeof(float))
        << routine_info(kind).name;
  }
}

// --- Golden pins -----------------------------------------------------------
//
// BurstExactness compares burst modules with per-element ones on the
// same scheduler and banks, so it cannot see a change in those. These
// pin what the stream layer produces outright: cycles, stalls, resumes,
// channel totals, peaks and stalls, DRAM bytes and output bits.

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  template <typename V>
  void add_all(const V& v) {
    add(v.size());
    for (const auto x : v) add(static_cast<std::uint64_t>(x));
  }
};

/// Every pinned field, spelled out.
std::string pin(const Observed& o) {
  std::ostringstream os;
  auto list = [&](const char* name, const std::vector<std::uint64_t>& v) {
    os << ' ' << name << '=';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  };
  os << "cycles=" << o.cycles << " stall=" << o.stall_cycles;
  list("resumes", o.resumes);
  list("pushed", o.pushed);
  list("popped", o.popped);
  list("peaks", o.peaks);
  list("stalls", o.stalls);
  list("bytes", o.bytes);
  Fnv out;
  out.add_all(o.out_bits);
  os << " out=" << std::hex << out.h;
  return os.str();
}

/// Cycles and stalls spelled out, everything else (taps and occupancy
/// samples included) folded into one hash.
std::string pin_hashed(const Observed& o) {
  Fnv all;
  for (const auto* v : {&o.pushed, &o.popped, &o.stalls, &o.peaks,
                        &o.resumes, &o.bytes, &o.tap_bits}) {
    all.add_all(*v);
  }
  for (const auto& occ : o.occupancy) all.add_all(occ);
  all.add_all(o.out_bits);
  std::ostringstream os;
  os << "cycles=" << o.cycles << " stall=" << o.stall_cycles << " all="
     << std::hex << all.h;
  if (!o.error.empty()) os << " error";
  return os.str();
}

/// The Stratix 10's four DDR banks at `kind`'s single-precision clock,
/// as the host API registers them.
std::vector<DramBank*> board_banks(Graph& g, const host::Device& dev,
                                   RoutineKind kind) {
  const double mhz =
      sim::module_frequency(kind, Precision::Single, dev.spec()).mhz;
  host::detail::BankSet set(g, dev, mhz);
  std::vector<DramBank*> banks;
  for (int b = 0; b < dev.bank_count(); ++b) banks.push_back(set.at(b));
  return banks;
}

/// The GEMV graph a host-API call lowers to (the shared single-call
/// builder), at perfbench cg_solve's shape: 512^2, W=16, 128^2 tiles,
/// A / x / y on banks 0 / 1 / 2.
Observed run_board_gemv(Transpose trans, core::MatrixTiling tiling) {
  constexpr std::int64_t n = 512;
  host::Device dev(sim::DeviceId::Stratix10);
  host::Buffer<float> a(dev, n * n, 0), x(dev, n, 1), y(dev, n, 2);
  a.write(Workload(51).matrix<float>(n, n));
  x.write(Workload(52).vector<float>(n));
  y.write(Workload(53).vector<float>(n));
  Graph g(Mode::Cycle);
  host::detail::BankSet set(
      g, dev,
      sim::module_frequency(RoutineKind::Gemv, Precision::Single, dev.spec())
          .mhz);
  std::vector<DramBank*> banks;
  for (int b = 0; b < dev.bank_count(); ++b) banks.push_back(set.at(b));
  host::kinds::Call<float> c{
      .rows = n, .cols = n, .alpha = 1.25f, .beta = -0.5f, .trans = trans};
  c.width = 16;
  c.tiling = tiling;
  c.tile_rows = c.tile_cols = 128;
  host::detail::Results<float> res;
  host::detail::build_call<float>(g, set, RoutineKind::Gemv, c,
                                  {{a}, {x, 1}, {y, 1}}, res);
  Observed o = observe(g, banks, {}, {}, false);
  for (const float v : y.to_host()) o.out_bits.push_back(bits_of(v));
  return o;
}

TEST(StreamGolden, BoardGemvBranches) {
  struct Branch {
    Transpose trans;
    core::MatrixTiling tiling;
    const char* want;
  };
  const Branch branches[] = {
      {Transpose::None, core::MatrixTiling::TilesByRows,
       "cycles=19026 stall=53590 resumes=18966,165,54,19049,56"
       " pushed=262144,2048,512,512 popped=262144,2048,512,512"
       " peaks=64,64,64,64 stalls=2538,108,29,24"
       " bytes=1048576,8192,4096,0 out=f2dcf93aa028fb19"},
      {Transpose::None, core::MatrixTiling::TilesByCols,
       "cycles=18979 stall=39275 resumes=18961,41,42,18996,47"
       " pushed=262144,512,512,512 popped=262144,512,512,512"
       " peaks=64,64,64,64 stalls=2549,28,27,24"
       " bytes=1048576,2048,4096,0 out=bbbef4093cb5c04e"},
      {Transpose::Trans, core::MatrixTiling::TilesByRows,
       "cycles=19029 stall=35858 resumes=18956,42,39,19035,76"
       " pushed=262144,512,512,512 popped=262144,512,512,512"
       " peaks=64,64,14,64 stalls=2560,27,37,34"
       " bytes=1048576,2048,4096,0 out=d3fa882e0b7f4f6a"},
      {Transpose::Trans, core::MatrixTiling::TilesByCols,
       "cycles=19026 stall=53590 resumes=18966,165,54,19049,56"
       " pushed=262144,2048,512,512 popped=262144,2048,512,512"
       " peaks=64,64,64,64 stalls=2538,108,29,24"
       " bytes=1048576,8192,4096,0 out=3f1ad4505115447"},
  };
  for (const Branch& b : branches) {
    const Observed o = run_board_gemv(b.trans, b.tiling);
    EXPECT_TRUE(o.error.empty()) << o.error;
    EXPECT_EQ(pin(o), b.want)
        << (b.trans == Transpose::Trans ? "A^T x" : "A x") << ", tiles by "
        << (b.tiling == core::MatrixTiling::TilesByRows ? "rows" : "cols");
  }
}

TEST(StreamGolden, BoardFanout) {
  // read_x -> fanout2 -> {write_a, throttled write_b}: the b branch
  // backs up into the fan-out, which backs up into the reader.
  constexpr std::int64_t n = 1 << 14;
  constexpr int w = 16;
  const host::Device dev(sim::DeviceId::Stratix10);
  const auto x = Workload(54).vector<float>(n);
  std::vector<float> out_a(x.size()), out_b(x.size());
  Graph g(Mode::Cycle);
  const auto banks = board_banks(g, dev, RoutineKind::Copy);
  const std::size_t cap = host::detail::chan_cap(w);
  auto& in = g.channel<float>("in", cap);
  auto& a = g.channel<float>("a", cap);
  auto& b = g.channel<float>("b", cap);
  auto& bt = g.channel<float>("b_throttled", cap);
  g.spawn("read_x", read_vector<float>(VectorView<const float>(x.data(), n),
                                       1, w, in, banks[0]));
  g.spawn("fan", fanout2<float>(n, w, in, a, b));
  g.spawn("write_a", write_vector<float>(VectorView<float>(out_a.data(), n),
                                         1, w, a, banks[1]));
  g.spawn("throttle", throttle(n, 11, b, bt));
  g.spawn("write_b", write_vector<float>(VectorView<float>(out_b.data(), n),
                                         1, w, bt, banks[2]));
  const Observed o = observe(g, banks, {&out_a, &out_b}, {}, false);
  EXPECT_TRUE(o.error.empty()) << o.error;
  EXPECT_EQ(pin(o),
            "cycles=1492 stall=1341 resumes=1858,1486,1893,1493,1494"
            " pushed=16384,16384,16384,16384 popped=16384,16384,16384,16384"
            " peaks=64,35,64,21 stalls=668,699,458,301"
            " bytes=65536,65536,65536,0 out=bf4d6f19f2552d39");
}

TEST(StreamGolden, BoardGer) {
  constexpr std::int64_t n = 256;
  constexpr int w = 16;
  const host::Device dev(sim::DeviceId::Stratix10);
  const auto a = Workload(55).matrix<float>(n, n);
  const auto x = Workload(56).vector<float>(n);
  const auto y = Workload(57).vector<float>(n);
  std::vector<float> out(a.size());
  Graph g(Mode::Cycle);
  const auto banks = board_banks(g, dev, RoutineKind::Ger);
  core::GerConfig cfg;
  cfg.tile_rows = cfg.tile_cols = 64;
  const TileSchedule sched = core::ger_a_schedule(cfg);
  const std::size_t cap = host::detail::chan_cap(w);
  auto& ca = g.channel<float>("A", cap);
  auto& cx = g.channel<float>("x", cap);
  auto& cy = g.channel<float>("y", cap);
  auto& co = g.channel<float>("out", cap);
  g.spawn("read_A", read_matrix<float>(MatrixView<const float>(a.data(), n, n),
                                       sched, 1, w, ca, banks[0]));
  g.spawn("read_x",
          read_vector<float>(VectorView<const float>(x.data(), n),
                             core::ger_x_repeat(cfg, n, n), w, cx, banks[1]));
  g.spawn("read_y",
          read_vector<float>(VectorView<const float>(y.data(), n),
                             core::ger_y_repeat(cfg, n, n), w, cy, banks[2]));
  g.spawn("ger", core::ger<float>(cfg, n, n, 0.75f, ca, cx, cy, co));
  g.spawn("write_A", write_matrix<float>(MatrixView<float>(out.data(), n, n),
                                         sched, w, co, banks[3]));
  const Observed o = observe(g, banks, {&out}, {}, false);
  EXPECT_TRUE(o.error.empty()) << o.error;
  EXPECT_EQ(pin(o),
            "cycles=4742 stall=7078 resumes=4740,22,89,4741,4740"
            " pushed=65536,256,1024,65536 popped=65536,256,1024,65536"
            " peaks=64,64,64,54 stalls=637,6,15,1"
            " bytes=262144,1024,4096,262144 out=ba0848ba3485637f");
}

TEST(StreamGolden, SeededRandomGraphs) {
  // The BurstExactness graph families on banks with fractional, narrow
  // and wide budgets (below one element per cycle up to more than a
  // burst), with taps and occupancy sampling on.
  std::mt19937 rng(4096);
  constexpr double kBudgets[] = {0.3, 2.5, 9.0, 63.7, 100.0};
  auto budget = [&] { return kBudgets[rng() % 5]; };
  std::vector<std::string> got;
  for (int round = 0; round < 3; ++round) {
    VectorCase v(rng);
    for (double& b : v.bank_bytes) b = budget();
    got.push_back(pin_hashed(v.run(true, Mode::Cycle)));
    GemvCase gm(rng);
    gm.bank_bytes = budget();
    got.push_back(pin_hashed(gm.run(true, Mode::Cycle)));
    MatrixCase m(rng);
    m.bank_bytes = budget();
    got.push_back(pin_hashed(m.run(true, Mode::Cycle)));
    FanoutCase f(rng);
    f.bank_bytes = budget();
    got.push_back(pin_hashed(f.run(true, Mode::Cycle)));
    GerCase r(rng);
    r.bank_bytes = budget();
    got.push_back(pin_hashed(r.run(true, Mode::Cycle)));
  }
  const std::vector<std::string> want = {
      "cycles=10721 stall=69255 all=faa3ffc29b362861",
      "cycles=5107 stall=14224 all=4bd51e6bddbfb4f9",
      "cycles=43 stall=69 all=6774a02856237da3",
      "cycles=249 stall=124 all=83d634d00a120cb4",
      "cycles=168 stall=461 all=15f2a8ae43c75e9d",
      "cycles=882 stall=6915 all=d279e4b2a1ce905",
      "cycles=161 stall=365 all=a2eea4368acf354",
      "cycles=10881 stall=9514 all=88af54e9359195c8",
      "cycles=4054 stall=10350 all=ac2dbf378c250ca2",
      "cycles=10801 stall=22103 all=77549c267d751118",
      "cycles=174 stall=828 all=8eb6fe54685b987c",
      "cycles=1201 stall=3251 all=691bc7ea2c4b4ec6",
      "cycles=134 stall=66 all=a5241bb781535ec8",
      "cycles=269 stall=134 all=f43e97d9e11f166c",
      "cycles=3987 stall=12658 all=4374571d81400a8b",
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << "graph " << k;
  }
}


// ---- Host routine pins ----------------------------------------------------
//
// Every host routine as a user calls it: the graph the host API
// builds, run through Context::run_graph with engine tracing on. Each line
// pins the command's cycles, the GraphStats event (cycles / module-cycles
// stalled), every ChannelStats event (name, peak, stalls, capacity) folded
// into one hash, and the output bits. Recorded before the routines were
// lowered through the per-kind module table.

template <typename T>
std::uint64_t word_of(T v) {
  if constexpr (sizeof(T) == 4) {
    return std::bit_cast<std::uint32_t>(v);
  } else {
    return std::bit_cast<std::uint64_t>(v);
  }
}

/// One host routine call: runs it on `ctx` and returns its output words.
template <typename T>
struct HostCase {
  std::string name;
  std::function<std::vector<std::uint64_t>(host::Context&, host::Device&)>
      run;
};

template <typename T>
std::vector<std::uint64_t> words(const std::vector<T>& v) {
  std::vector<std::uint64_t> w;
  for (const T x : v) w.push_back(word_of(x));
  return w;
}

template <typename T>
std::vector<HostCase<T>> host_cases() {
  using host::Buffer;
  using host::Context;
  using host::Device;
  std::vector<HostCase<T>> cs;
  constexpr std::int64_t n = 100;
  // Two stride variants of every vector routine: unit, and x/y at 2/3.
  for (const std::int64_t ix : {1, 2}) {
    const std::int64_t iy = ix == 1 ? 1 : 3;
    const std::string sfx = ix == 1 ? "/unit" : "/strided";
    const auto vec = [](Device& dev, std::uint64_t seed, std::int64_t len,
                        int bank) {
      auto b = std::make_unique<Buffer<T>>(dev, len, bank);
      b->write(Workload(seed).vector<T>(len));
      return b;
    };
    const auto pair_case = [&](std::string name, auto call) {
      cs.push_back({name + sfx, [=](Context& ctx, Device& dev) {
                      auto x = vec(dev, 61, n * ix, 0);
                      auto y = vec(dev, 62, n * iy, 1);
                      call(ctx, *x, *y, ix, iy);
                      auto w = words(x->to_host());
                      const auto wy = words(y->to_host());
                      w.insert(w.end(), wy.begin(), wy.end());
                      return w;
                    }});
    };
    pair_case("rot", [](Context& ctx, Buffer<T>& x, Buffer<T>& y,
                        std::int64_t a, std::int64_t b) {
      ctx.rot(n, x, a, y, b, T(0.6), T(0.8));
    });
    pair_case("rotm", [](Context& ctx, Buffer<T>& x, Buffer<T>& y,
                         std::int64_t a, std::int64_t b) {
      ctx.rotm(n, x, a, y, b,
               ref::RotmParam<T>{T(-1), T(0.5), T(-0.25), T(0.75), T(1.5)});
    });
    pair_case("swap", [](Context& ctx, Buffer<T>& x, Buffer<T>& y,
                         std::int64_t a, std::int64_t b) {
      ctx.swap(n, x, a, y, b);
    });
    pair_case("scal", [](Context& ctx, Buffer<T>& x, Buffer<T>&,
                         std::int64_t a, std::int64_t) {
      ctx.scal(n, T(-1.75), x, a);
    });
    pair_case("copy", [](Context& ctx, Buffer<T>& x, Buffer<T>& y,
                         std::int64_t a, std::int64_t b) {
      ctx.copy(n, x, a, y, b);
    });
    pair_case("axpy", [](Context& ctx, Buffer<T>& x, Buffer<T>& y,
                         std::int64_t a, std::int64_t b) {
      ctx.axpy(n, T(0.375), x, a, y, b);
    });
    const auto scalar_case = [&](std::string name, auto call) {
      cs.push_back({name + sfx, [=](Context& ctx, Device& dev) {
                      auto x = vec(dev, 63, n * ix, 2);
                      auto y = vec(dev, 64, n * iy, 3);
                      return std::vector<std::uint64_t>{
                          call(ctx, *x, *y, ix, iy)};
                    }});
    };
    scalar_case("dot", [](Context& ctx, Buffer<T>& x, Buffer<T>& y,
                          std::int64_t a, std::int64_t b) {
      return word_of(ctx.dot(n, x, a, y, b));
    });
    if constexpr (std::is_same_v<T, float>) {
      scalar_case("sdsdot", [](Context& ctx, Buffer<T>& x, Buffer<T>& y,
                               std::int64_t a, std::int64_t b) {
        return word_of(ctx.sdsdot(n, 0.125f, x, a, y, b));
      });
    }
    scalar_case("nrm2", [](Context& ctx, Buffer<T>& x, Buffer<T>&,
                           std::int64_t a, std::int64_t) {
      return word_of(ctx.nrm2(n, x, a));
    });
    scalar_case("asum", [](Context& ctx, Buffer<T>& x, Buffer<T>&,
                           std::int64_t a, std::int64_t) {
      return word_of(ctx.asum(n, x, a));
    });
    scalar_case("iamax", [](Context& ctx, Buffer<T>& x, Buffer<T>&,
                            std::int64_t a, std::int64_t) {
      return static_cast<std::uint64_t>(ctx.iamax(n, x, a));
    });
  }
  cs.push_back({"rotg", [](Context& ctx, Device&) {
                  T a = T(3), b = T(-4);
                  const auto gv = ctx.rotg(a, b);
                  return words(std::vector<T>{a, b, gv.c, gv.s});
                }});
  cs.push_back({"rotmg", [](Context& ctx, Device&) {
                  T d1 = T(1.5), d2 = T(0.5), x1 = T(2);
                  const auto p = ctx.rotmg(d1, d2, x1, T(1));
                  return words(std::vector<T>{p.flag, p.h11, p.h21, p.h12,
                                              p.h22, d1, d2, x1});
                }});

  // Level 2 on 32 x 32 tiles, shapes ragged against the tiles and W.
  constexpr std::int64_t rows = 70, cols = 50;
  const auto level2 = [&](std::string name, core::MatrixTiling tiling,
                          auto call) {
    cs.push_back({name, [=](Context& ctx, Device& dev) {
                    ctx.config().tile_rows = ctx.config().tile_cols = 32;
                    ctx.config().tiling = tiling;
                    return call(ctx, dev);
                  }});
  };
  const auto load = [](Device& dev, std::vector<T> host, int bank) {
    auto b = std::make_unique<Buffer<T>>(
        dev, static_cast<std::int64_t>(host.size()), bank);
    b->write(host);
    return b;
  };
  for (const Transpose trans : {Transpose::None, Transpose::Trans}) {
    for (const auto tiling : {core::MatrixTiling::TilesByRows,
                              core::MatrixTiling::TilesByCols}) {
      for (const std::int64_t inc : {1, 2}) {
        if (inc == 2 && (trans != Transpose::None ||
                         tiling != core::MatrixTiling::TilesByRows)) {
          continue;
        }
        const std::string name =
            std::string("gemv/") + (trans == Transpose::None ? "N" : "T") +
            (tiling == core::MatrixTiling::TilesByRows ? "/rows" : "/cols") +
            (inc == 1 ? "" : "/strided");
        level2(name, tiling, [=](Context& ctx, Device& dev) {
          const std::int64_t xl = trans == Transpose::None ? cols : rows;
          const std::int64_t yl = trans == Transpose::None ? rows : cols;
          auto a = load(dev, Workload(65).matrix<T>(rows, cols), 0);
          auto x = load(dev, Workload(66).vector<T>(xl * inc), 1);
          auto y = load(dev, Workload(67).vector<T>(yl * (inc + 1)), 2);
          ctx.gemv(trans, rows, cols, T(1.25), *a, *x, inc, T(-0.5), *y,
                   inc + 1);
          return words(y->to_host());
        });
      }
    }
  }
  constexpr std::int64_t tn = 40;
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Transpose trans : {Transpose::None, Transpose::Trans}) {
      for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
        for (const std::int64_t inc : {1, 2}) {
          if (inc == 2 && (uplo != Uplo::Upper || trans != Transpose::Trans ||
                           diag != Diag::NonUnit)) {
            continue;
          }
          const std::string name =
              std::string("trsv/") + (uplo == Uplo::Lower ? "L" : "U") +
              (trans == Transpose::None ? "N" : "T") +
              (diag == Diag::Unit ? "U" : "N") + (inc == 1 ? "" : "/strided");
          level2(name, core::MatrixTiling::TilesByRows,
                 [=](Context& ctx, Device& dev) {
                   auto a = load(
                       dev, Workload(68).triangular<T>(tn, uplo, diag), 0);
                   auto x = load(dev, Workload(69).vector<T>(tn * inc), 1);
                   ctx.trsv(uplo, trans, diag, tn, *a, *x, inc);
                   return words(x->to_host());
                 });
        }
      }
    }
  }
  for (const std::int64_t inc : {1, 2}) {
    const std::string sfx = inc == 1 ? "" : "/strided";
    level2("ger" + sfx, core::MatrixTiling::TilesByRows,
           [=](Context& ctx, Device& dev) {
             auto x = load(dev, Workload(70).vector<T>(rows * inc), 1);
             auto y = load(dev, Workload(71).vector<T>(cols * (inc + 1)), 2);
             auto a = load(dev, Workload(72).matrix<T>(rows, cols), 0);
             ctx.ger(rows, cols, T(0.75), *x, inc, *y, inc + 1, *a);
             return words(a->to_host());
           });
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      if (inc == 2 && uplo == Uplo::Lower) continue;
      const std::string u = uplo == Uplo::Lower ? "/L" : "/U";
      level2("syr" + u + sfx, core::MatrixTiling::TilesByCols,
             [=](Context& ctx, Device& dev) {
               auto x = load(dev, Workload(73).vector<T>(tn * inc), 1);
               auto a = load(dev, Workload(74).matrix<T>(tn, tn), 0);
               ctx.syr(uplo, tn, T(-0.5), *x, inc, *a);
               return words(a->to_host());
             });
      level2("syr2" + u + sfx, core::MatrixTiling::TilesByRows,
             [=](Context& ctx, Device& dev) {
               auto x = load(dev, Workload(75).vector<T>(tn * inc), 1);
               auto y = load(dev, Workload(76).vector<T>(tn * (inc + 1)), 2);
               auto a = load(dev, Workload(77).matrix<T>(tn, tn), 3);
               ctx.syr2(uplo, tn, T(1.5), *x, inc, *y, inc + 1, *a);
               return words(a->to_host());
             });
    }
  }
  return cs;
}

/// "name cycles=.. graph=cycles/stall chans=k:hash out=hash" for one call.
template <typename T>
std::string host_pin(const HostCase<T>& c, Mode mode) {
  host::Device dev;
  host::Context ctx(dev, mode);
  const auto rec = ctx.tracing();
  const std::vector<std::uint64_t> out = c.run(ctx, dev);
  Fnv chans, outs;
  std::size_t nchan = 0;
  std::ostringstream graph;
  for (const trace::Event& e : rec->events()) {
    if (e.kind == trace::EventKind::ChannelStats) {
      ++nchan;
      for (const char ch : e.name_view()) {
        chans.add(static_cast<unsigned char>(ch));
      }
      chans.add(e.a);
      chans.add(e.b);
      chans.add(e.flags);
    } else if (e.kind == trace::EventKind::GraphStats) {
      graph << (graph.tellp() == 0 ? "" : ",") << e.a << '/' << e.b;
    }
  }
  outs.add_all(out);
  std::ostringstream os;
  os << c.name << " cycles=" << ctx.last_cycles() << " graph=" << graph.str()
     << " chans=" << nchan << ':' << std::hex << chans.h << " out=" << outs.h;
  return os.str();
}

/// Level 3 as a user calls it, on a 4 x 4 grid of 8 x 12 compute tiles
/// with shapes ragged against them: GEMM in all four transpositions with
/// beta zero (C gets a channel but no reader) and not, SYRK and SYR2K in
/// both triangles and transpositions, and all 16 TRSM variants. The
/// bank0 cases put every operand on bank 0 under a 4 x 16 grid, where
/// bank contention shows in the cycles. Recorded while Level 3 still had
/// hand-built graphs; the SYRK and SYR2K bank0 cycles, stalls and channel
/// stats re-recorded (outputs unchanged) when their C store became the
/// triangle writer that waits for each grant.
template <typename T>
std::vector<HostCase<T>> level3_cases() {
  using host::Buffer;
  using host::Context;
  using host::Device;
  std::vector<HostCase<T>> cs;
  constexpr std::int64_t m = 21, n = 19, k = 11;
  const auto load = [](Device& dev, std::vector<T> host, int bank) {
    auto b = std::make_unique<Buffer<T>>(
        dev, static_cast<std::int64_t>(host.size()), bank);
    b->write(host);
    return b;
  };
  const auto level3 = [&](std::string name, auto call) {
    cs.push_back({name, [=](Context& ctx, Device& dev) {
                    ctx.config().gemm_tile_rows = 8;
                    ctx.config().gemm_tile_cols = 12;
                    return call(ctx, dev);
                  }});
  };
  const auto t = [](Transpose x) { return x == Transpose::None ? "N" : "T"; };
  const auto u = [](Uplo x) { return x == Uplo::Lower ? "L" : "U"; };
  for (const Transpose ta : {Transpose::None, Transpose::Trans}) {
    for (const Transpose tb : {Transpose::None, Transpose::Trans}) {
      for (const T beta : {T(0), T(0.5)}) {
        level3(std::string("gemm/") + t(ta) + t(tb) +
                   (beta == T(0) ? "/b0" : ""),
               [=](Context& ctx, Device& dev) {
                 auto a = load(dev, Workload(80).matrix<T>(m, k), 0);
                 auto b = load(dev, Workload(81).matrix<T>(k, n), 1);
                 auto c = load(dev, Workload(82).matrix<T>(m, n), 2);
                 ctx.gemm(ta, tb, m, n, k, T(1.25), *a, *b, beta, *c);
                 return words(c->to_host());
               });
      }
    }
  }
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Transpose trans : {Transpose::None, Transpose::Trans}) {
      const std::string sfx = std::string("/") + u(uplo) + t(trans);
      level3("syrk" + sfx, [=](Context& ctx, Device& dev) {
        auto a = load(dev, Workload(83).matrix<T>(n, k), 0);
        auto c = load(dev, Workload(84).matrix<T>(n, n), 2);
        ctx.syrk(uplo, trans, n, k, T(-0.75), *a, T(0.5), *c);
        return words(c->to_host());
      });
      level3("syr2k" + sfx, [=](Context& ctx, Device& dev) {
        auto a = load(dev, Workload(85).matrix<T>(n, k), 0);
        auto b = load(dev, Workload(86).matrix<T>(n, k), 1);
        auto c = load(dev, Workload(87).matrix<T>(n, n), 3);
        ctx.syr2k(uplo, trans, n, k, T(0.625), *a, *b, T(-1.5), *c);
        return words(c->to_host());
      });
    }
  }
  level3("syrk/LN/b0", [=](Context& ctx, Device& dev) {
    auto a = load(dev, Workload(83).matrix<T>(n, k), 0);
    auto c = load(dev, Workload(84).matrix<T>(n, n), 2);
    ctx.syrk(Uplo::Lower, Transpose::None, n, k, T(-0.75), *a, T(0), *c);
    return words(c->to_host());
  });
  for (const Side side : {Side::Left, Side::Right}) {
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (const Transpose trans : {Transpose::None, Transpose::Trans}) {
        for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
          const std::string name =
              std::string("trsm/") + (side == Side::Left ? "L" : "R") +
              u(uplo) + t(trans) + (diag == Diag::Unit ? "U" : "N");
          level3(name, [=](Context& ctx, Device& dev) {
            const std::int64_t ad = side == Side::Left ? m : n;
            auto a = load(dev, Workload(88).triangular<T>(ad, uplo, diag), 0);
            auto b = load(dev, Workload(89).matrix<T>(m, n), 1);
            ctx.trsm(side, uplo, trans, diag, m, n, T(1.5), *a, *b);
            return words(b->to_host());
          });
        }
      }
    }
  }
  constexpr std::int64_t cn = 17, ck = 5;
  const auto bank0 = [&](std::string name, auto call) {
    cs.push_back({name + "/bank0", [=](Context& ctx, Device& dev) {
                    ctx.config().pe_rows = 4;
                    ctx.config().pe_cols = 16;
                    return call(ctx, dev);
                  }});
  };
  bank0("syrk", [=](Context& ctx, Device& dev) {
    auto a = load(dev, Workload(90).matrix<T>(cn, ck), 0);
    auto c = load(dev, Workload(91).matrix<T>(cn, cn), 0);
    ctx.syrk(Uplo::Lower, Transpose::None, cn, ck, T(1.25), *a, T(0.5), *c);
    return words(c->to_host());
  });
  bank0("syr2k", [=](Context& ctx, Device& dev) {
    auto a = load(dev, Workload(90).matrix<T>(cn, ck), 0);
    auto b = load(dev, Workload(92).matrix<T>(cn, ck), 0);
    auto c = load(dev, Workload(91).matrix<T>(cn, cn), 0);
    ctx.syr2k(Uplo::Upper, Transpose::None, cn, ck, T(0.5), *a, *b, T(0.9),
              *c);
    return words(c->to_host());
  });
  bank0("gemm", [=](Context& ctx, Device& dev) {
    auto a = load(dev, Workload(90).matrix<T>(cn, ck), 0);
    auto b = load(dev, Workload(92).matrix<T>(ck, cn), 0);
    auto c = load(dev, Workload(91).matrix<T>(cn, cn), 0);
    ctx.gemm(Transpose::None, Transpose::None, cn, cn, ck, T(0.5), *a, *b,
             T(0.9), *c);
    return words(c->to_host());
  });
  return cs;
}

template <typename T>
std::vector<std::string> host_pins(
    Mode mode, const std::vector<HostCase<T>>& cases = host_cases<T>()) {
  std::vector<std::string> got;
  for (const auto& c : cases) got.push_back(host_pin(c, mode));
  return got;
}

/// The channel an armed corruption lands on, per routine (single
/// precision, cycle mode, unit strides): the first injector seed whose
/// draw reaches a push, and the victim it records.
std::vector<std::string> victim_pins(
    const std::vector<HostCase<float>>& cases = host_cases<float>()) {
  std::vector<std::string> got;
  for (const auto& c : cases) {
    if (c.name.find("/strided") != std::string::npos || c.name == "rotg" ||
        c.name == "rotmg") {
      continue;  // the scalar setup routines run outside any command
    }
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      host::Device dev;
      host::FaultConfig fc;
      fc.seed = seed;
      fc.channel_corrupt_rate = 1.0;
      fc.max_faults = 1;
      dev.inject_faults(fc);
      host::Context ctx(dev, Mode::Cycle);
      c.run(ctx, dev);
      const std::string victim = dev.faults().last_victim();
      if (victim.empty()) continue;
      got.push_back(c.name + " seed=" + std::to_string(seed) + " victim=" +
                    victim);
      break;
    }
  }
  return got;
}

/// A generated Level-1 design of `blas` at width 8 on the Stratix 10.
codegen::GeneratedDesign design_of(const std::string& blas,
                                   const std::string& precision) {
  const auto spec = codegen::parse_spec(
      "{\"routines\": [{\"blas\": \"" + blas + "\", \"precision\": \"" +
      precision + "\", \"width\": 8}]}");
  return codegen::emit(spec.routines[0], sim::stratix10());
}

/// "blas cycles=.. out=hash" of codegen::run_level1 for all 13 Level-1
/// kinds (sdsdot in single precision only).
std::vector<std::string> runner_pins(const std::string& precision, Mode mode) {
  std::vector<std::string> got;
  for (const char* blas : {"rotg", "rotmg", "rot", "rotm", "swap", "scal",
                           "copy", "axpy", "dot", "sdsdot", "nrm2", "asum",
                           "iamax"}) {
    if (precision == "double" && std::string(blas) == "sdsdot") continue;
    codegen::Level1Inputs in;
    in.x = Workload(78).vector<double>(100);
    in.y = Workload(79).vector<double>(100);
    in.alpha = 2.5;
    in.c = 0.6;
    in.s = 0.8;
    if (std::string(blas) == "rotg") in.x = {3.0, 4.0};
    if (std::string(blas) == "rotmg") in.x = {1.5, 0.5, 2.0, 1.0};
    const auto r = codegen::run_level1(design_of(blas, precision), mode, in);
    Fnv h;
    for (const auto* v : {&r.out_x, &r.out_y}) {
      h.add(v->size());
      for (const double x : *v) h.add(std::bit_cast<std::uint64_t>(x));
    }
    h.add(std::bit_cast<std::uint64_t>(r.scalar));
    h.add(static_cast<std::uint64_t>(r.index));
    std::ostringstream os;
    os << blas << " cycles=" << r.cycles << " out=" << std::hex << h.h;
    got.push_back(os.str());
  }
  return got;
}

void expect_lines(const std::vector<std::string>& got,
                  const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size()) << [&] {
    std::string all;
    for (const auto& s : got) all += "\"" + s + "\",\n";
    return all;
  }();
  for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], want[k]);
}

TEST(HostGolden, FloatCycle) {
  expect_lines(host_pins<float>(Mode::Cycle),
               {
                   "rot/unit cycles=16 graph=16/5 chans=4:41e0f776db0bce67 out=1f506862c3bc3fcc",
                   "rotm/unit cycles=16 graph=16/5 chans=4:41e0f776db0bce67 out=2153cc659b573212",
                   "swap/unit cycles=16 graph=16/5 chans=4:41e0f776db0bce67 out=6b3d6c7611871b25",
                   "scal/unit cycles=16 graph=16/5 chans=2:da2cfed6e5069192 out=d1a03122de271d2f",
                   "copy/unit cycles=10 graph=10/4 chans=2:e519ecceee5fdf15 out=b70e06728891b799",
                   "axpy/unit cycles=16 graph=16/5 chans=3:594c5bf8dc91e568 out=45abeaa3b46214b1",
                   "dot/unit cycles=10 graph=10/11 chans=3:d347dace397d8400 out=ad47b56e9f50f9f0",
                   "sdsdot/unit cycles=10 graph=10/11 chans=3:d347dace397d8400 out=ebbc0d43a7753791",
                   "nrm2/unit cycles=10 graph=10/11 chans=2:37a8e5c8cbe8c5ce out=51a0c739822727dc",
                   "asum/unit cycles=10 graph=10/11 chans=2:37a8e5c8cbe8c5ce out=20d0b77dd0d96046",
                   "iamax/unit cycles=10 graph=10/11 chans=2:37a8e5c8cbe8c5ce out=c560b584cab2d298",
                   "rot/strided cycles=16 graph=16/5 chans=4:41e0f776db0bce67 out=e678dcb191511583",
                   "rotm/strided cycles=16 graph=16/5 chans=4:41e0f776db0bce67 out=c0337d48a0d0819d",
                   "swap/strided cycles=16 graph=16/5 chans=4:41e0f776db0bce67 out=d1abffb20051ae17",
                   "scal/strided cycles=16 graph=16/5 chans=2:da2cfed6e5069192 out=f02c83c32f7d8272",
                   "copy/strided cycles=10 graph=10/4 chans=2:e519ecceee5fdf15 out=1274e55be3884358",
                   "axpy/strided cycles=16 graph=16/5 chans=3:594c5bf8dc91e568 out=bf0a8b060810ec0e",
                   "dot/strided cycles=10 graph=10/11 chans=3:d347dace397d8400 out=bb98519aff82c1b3",
                   "sdsdot/strided cycles=10 graph=10/11 chans=3:d347dace397d8400 out=846355139fa6c3c0",
                   "nrm2/strided cycles=10 graph=10/11 chans=2:37a8e5c8cbe8c5ce out=effe49315a1b42c1",
                   "asum/strided cycles=10 graph=10/11 chans=2:37a8e5c8cbe8c5ce out=80b56f81bb1057e3",
                   "iamax/strided cycles=10 graph=10/11 chans=2:37a8e5c8cbe8c5ce out=e2af24b83e7aaafa",
                   "rotg cycles=1 graph= chans=0:cbf29ce484222325 out=b09d30b8dbfe091e",
                   "rotmg cycles=1 graph= chans=0:cbf29ce484222325 out=6d0527d3ca4dbe6c",
                   "gemv/N/rows cycles=254 graph=254/456 chans=4:7b657628f8516079 out=49588554d31a0a0a",
                   "gemv/N/rows/strided cycles=254 graph=254/456 chans=4:7b657628f8516079 out=61a19a64bbfdf561",
                   "gemv/N/cols cycles=254 graph=254/278 chans=4:5bbc3a033cc574b8 out=6928108c3d4eebea",
                   "gemv/T/rows cycles=258 graph=258/285 chans=4:de24af1c72a7dc75 out=c8245b89b61de829",
                   "gemv/T/cols cycles=255 graph=255/435 chans=4:fb818c855d982e73 out=4ba3c66c9ed15800",
                   "trsv/LNN cycles=78 graph=78/99 chans=3:631af4886db48571 out=47201a4c1bc73a7f",
                   "trsv/LNU cycles=78 graph=78/99 chans=3:631af4886db48571 out=65409f0399abbd94",
                   "trsv/LTN cycles=78 graph=78/99 chans=3:631af4886db48571 out=aefc6a2808c62731",
                   "trsv/LTU cycles=78 graph=78/99 chans=3:631af4886db48571 out=4a171b32b7b669b7",
                   "trsv/UNN cycles=78 graph=78/99 chans=3:631af4886db48571 out=7c8d363eaee20d2e",
                   "trsv/UNU cycles=78 graph=78/99 chans=3:631af4886db48571 out=384c3c67fe445559",
                   "trsv/UTN cycles=78 graph=78/99 chans=3:631af4886db48571 out=a2c7c01010a3f05a",
                   "trsv/UTN/strided cycles=78 graph=78/99 chans=3:631af4886db48571 out=86c6187e82a41506",
                   "trsv/UTU cycles=78 graph=78/99 chans=3:631af4886db48571 out=ddb86f1ce875e2cc",
                   "ger cycles=507 graph=507/726 chans=4:28ebe84b0078b041 out=b6ca6fb5647c3ffe",
                   "syr/L cycles=181 graph=181/95 chans=4:c28ff6b381878357 out=d9af623af9afc10b",
                   "syr2/L cycles=179 graph=179/86 chans=6:4ba77d93ce557dd7 out=82fe2166e377f85b",
                   "syr/U cycles=183 graph=183/99 chans=4:2fc5a1d007861853 out=48939ed1e59643ab",
                   "syr2/U cycles=180 graph=180/89 chans=6:af924d38e99579d7 out=4ed52723588babff",
                   "ger/strided cycles=507 graph=507/726 chans=4:28ebe84b0078b041 out=9e8747c4944a4184",
                   "syr/U/strided cycles=183 graph=183/99 chans=4:2fc5a1d007861853 out=24a59a2ffc91351",
                   "syr2/U/strided cycles=180 graph=180/89 chans=6:af924d38e99579d7 out=b08ed29695133a1d",
               });
}
TEST(HostGolden, FloatFunctional) {
  expect_lines(host_pins<float>(Mode::Functional),
               {
                   "rot/unit cycles=0 graph=0/0 chans=4:3f36db638d630126 out=1f506862c3bc3fcc",
                   "rotm/unit cycles=0 graph=0/0 chans=4:3f36db638d630126 out=2153cc659b573212",
                   "swap/unit cycles=0 graph=0/0 chans=4:3f36db638d630126 out=6b3d6c7611871b25",
                   "scal/unit cycles=0 graph=0/0 chans=2:414f98be45d8e350 out=d1a03122de271d2f",
                   "copy/unit cycles=0 graph=0/0 chans=2:414f98be45d8e350 out=b70e06728891b799",
                   "axpy/unit cycles=0 graph=0/0 chans=3:9aa71df689adac28 out=45abeaa3b46214b1",
                   "dot/unit cycles=0 graph=0/0 chans=3:53b389401f799641 out=ad47b56e9f50f9f0",
                   "sdsdot/unit cycles=0 graph=0/0 chans=3:53b389401f799641 out=ebbc0d43a7753791",
                   "nrm2/unit cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=51a0c739822727dc",
                   "asum/unit cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=20d0b77dd0d96046",
                   "iamax/unit cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=c560b584cab2d298",
                   "rot/strided cycles=0 graph=0/0 chans=4:3f36db638d630126 out=e678dcb191511583",
                   "rotm/strided cycles=0 graph=0/0 chans=4:3f36db638d630126 out=c0337d48a0d0819d",
                   "swap/strided cycles=0 graph=0/0 chans=4:3f36db638d630126 out=d1abffb20051ae17",
                   "scal/strided cycles=0 graph=0/0 chans=2:414f98be45d8e350 out=f02c83c32f7d8272",
                   "copy/strided cycles=0 graph=0/0 chans=2:414f98be45d8e350 out=1274e55be3884358",
                   "axpy/strided cycles=0 graph=0/0 chans=3:9aa71df689adac28 out=bf0a8b060810ec0e",
                   "dot/strided cycles=0 graph=0/0 chans=3:53b389401f799641 out=bb98519aff82c1b3",
                   "sdsdot/strided cycles=0 graph=0/0 chans=3:53b389401f799641 out=846355139fa6c3c0",
                   "nrm2/strided cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=effe49315a1b42c1",
                   "asum/strided cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=80b56f81bb1057e3",
                   "iamax/strided cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=e2af24b83e7aaafa",
                   "rotg cycles=0 graph= chans=0:cbf29ce484222325 out=b09d30b8dbfe091e",
                   "rotmg cycles=0 graph= chans=0:cbf29ce484222325 out=6d0527d3ca4dbe6c",
                   "gemv/N/rows cycles=0 graph=0/0 chans=4:b76ad758b1c65061 out=49588554d31a0a0a",
                   "gemv/N/rows/strided cycles=0 graph=0/0 chans=4:b76ad758b1c65061 out=61a19a64bbfdf561",
                   "gemv/N/cols cycles=0 graph=0/0 chans=4:bef3a21732e1e097 out=6928108c3d4eebea",
                   "gemv/T/rows cycles=0 graph=0/0 chans=4:2ce3c4ea871a47 out=c8245b89b61de829",
                   "gemv/T/cols cycles=0 graph=0/0 chans=4:b3ccd4ea24f2d253 out=4ba3c66c9ed15800",
                   "trsv/LNN cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=47201a4c1bc73a7f",
                   "trsv/LNU cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=65409f0399abbd94",
                   "trsv/LTN cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=aefc6a2808c62731",
                   "trsv/LTU cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=4a171b32b7b669b7",
                   "trsv/UNN cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=7c8d363eaee20d2e",
                   "trsv/UNU cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=384c3c67fe445559",
                   "trsv/UTN cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=a2c7c01010a3f05a",
                   "trsv/UTN/strided cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=86c6187e82a41506",
                   "trsv/UTU cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=ddb86f1ce875e2cc",
                   "ger cycles=0 graph=0/0 chans=4:2246ffe2e429def4 out=b6ca6fb5647c3ffe",
                   "syr/L cycles=0 graph=0/0 chans=4:7fe30b7d8d76d361 out=d9af623af9afc10b",
                   "syr2/L cycles=0 graph=0/0 chans=6:cefc122ea3122682 out=82fe2166e377f85b",
                   "syr/U cycles=0 graph=0/0 chans=4:7fe30b7d8d76d361 out=48939ed1e59643ab",
                   "syr2/U cycles=0 graph=0/0 chans=6:cefc122ea3122682 out=4ed52723588babff",
                   "ger/strided cycles=0 graph=0/0 chans=4:2246ffe2e429def4 out=9e8747c4944a4184",
                   "syr/U/strided cycles=0 graph=0/0 chans=4:7fe30b7d8d76d361 out=24a59a2ffc91351",
                   "syr2/U/strided cycles=0 graph=0/0 chans=6:cefc122ea3122682 out=b08ed29695133a1d",
               });
}
TEST(HostGolden, DoubleCycle) {
  expect_lines(host_pins<double>(Mode::Cycle),
               {
                   "rot/unit cycles=31 graph=31/15 chans=4:dda87f1da9e392a6 out=a5d4523ecc41178a",
                   "rotm/unit cycles=31 graph=31/15 chans=4:dda87f1da9e392a6 out=1da96f8a2e109fb4",
                   "swap/unit cycles=31 graph=31/15 chans=4:dda87f1da9e392a6 out=1c87a174b45cb90",
                   "scal/unit cycles=31 graph=31/15 chans=2:c10b48a0174ea693 out=143bd1c06efd6c26",
                   "copy/unit cycles=17 graph=17/10 chans=2:45a79c49ea9a0971 out=5a22674b13383a0d",
                   "axpy/unit cycles=31 graph=31/15 chans=3:4abbb280cf4f8169 out=1a05a0de16c4cd02",
                   "dot/unit cycles=17 graph=17/25 chans=3:2a5bdc9c7030a34b out=bf9ff96c08da6148",
                   "nrm2/unit cycles=17 graph=17/25 chans=2:9199d269504edbfe out=7ad421b8e9863944",
                   "asum/unit cycles=17 graph=17/25 chans=2:9199d269504edbfe out=e4bf30399a239d4",
                   "iamax/unit cycles=17 graph=17/25 chans=2:9199d269504edbfe out=c560b584cab2d298",
                   "rot/strided cycles=31 graph=31/15 chans=4:dda87f1da9e392a6 out=2e4ed84adb352bfa",
                   "rotm/strided cycles=31 graph=31/15 chans=4:dda87f1da9e392a6 out=db0364a13c6a699d",
                   "swap/strided cycles=31 graph=31/15 chans=4:dda87f1da9e392a6 out=51265bcf178cf5a",
                   "scal/strided cycles=31 graph=31/15 chans=2:c10b48a0174ea693 out=e8e2ef53f2a697fd",
                   "copy/strided cycles=17 graph=17/10 chans=2:45a79c49ea9a0971 out=14ed3c57fd116728",
                   "axpy/strided cycles=31 graph=31/15 chans=3:4abbb280cf4f8169 out=da21d1932d94034f",
                   "dot/strided cycles=17 graph=17/25 chans=3:2a5bdc9c7030a34b out=d2c746022d1769e9",
                   "nrm2/strided cycles=17 graph=17/25 chans=2:9199d269504edbfe out=8cce29058253dcc0",
                   "asum/strided cycles=17 graph=17/25 chans=2:9199d269504edbfe out=7868616ad6f7029e",
                   "iamax/strided cycles=17 graph=17/25 chans=2:9199d269504edbfe out=e2af24b83e7aaafa",
                   "rotg cycles=1 graph= chans=0:cbf29ce484222325 out=1de430090a03f94c",
                   "rotmg cycles=1 graph= chans=0:cbf29ce484222325 out=58867d255bdfc36a",
                   "gemv/N/rows cycles=508 graph=508/1131 chans=4:cd6b8f03674c045a out=44b5a32d395f0259",
                   "gemv/N/rows/strided cycles=508 graph=508/1131 chans=4:cd6b8f03674c045a out=6c48683625330b5b",
                   "gemv/N/cols cycles=508 graph=508/774 chans=4:93c0dc39f45fd1be out=9515847fee4d5894",
                   "gemv/T/rows cycles=514 graph=514/787 chans=4:6dba4781dc1f5a6e out=ad112cdc96748a99",
                   "gemv/T/cols cycles=510 graph=510/1087 chans=4:856c1c46237d569a out=68f0e135db976cb6",
                   "trsv/LNN cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=8575182852451d00",
                   "trsv/LNU cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=bd64a4e7f1b80b0b",
                   "trsv/LTN cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=d7b83039cfa69221",
                   "trsv/LTU cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=3a592c1d1b72c691",
                   "trsv/UNN cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=e64d7181747dfd08",
                   "trsv/UNU cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=ca656acec0b5987",
                   "trsv/UTN cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=ceab23d6718bc351",
                   "trsv/UTN/strided cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=ac716fc8abf606a4",
                   "trsv/UTU cycles=154 graph=154/247 chans=3:3069d6d094eccdb1 out=a84b92b33aa85443",
                   "ger cycles=1013 graph=1013/1589 chans=4:c2dee911aa6580f2 out=2a2de7b75d45fcd2",
                   "syr/L cycles=358 graph=358/303 chans=4:fd05466fda9a934e out=6908893b80c3f5d0",
                   "syr2/L cycles=357 graph=357/282 chans=6:a04123ce5250d806 out=97eb9df1caf3542b",
                   "syr/U cycles=362 graph=362/304 chans=4:535a9e7e8c062cdb out=bb56248bc8512841",
                   "syr2/U cycles=354 graph=354/289 chans=6:dac063e3874d670e out=df49ba22adf15f9b",
                   "ger/strided cycles=1013 graph=1013/1589 chans=4:c2dee911aa6580f2 out=913ea84fb6113645",
                   "syr/U/strided cycles=362 graph=362/304 chans=4:535a9e7e8c062cdb out=80712860816a2c52",
                   "syr2/U/strided cycles=354 graph=354/289 chans=6:dac063e3874d670e out=a5d1b1958e9c5a32",
               });
}
TEST(HostGolden, DoubleFunctional) {
  expect_lines(host_pins<double>(Mode::Functional),
               {
                   "rot/unit cycles=0 graph=0/0 chans=4:3f36db638d630126 out=a5d4523ecc41178a",
                   "rotm/unit cycles=0 graph=0/0 chans=4:3f36db638d630126 out=1da96f8a2e109fb4",
                   "swap/unit cycles=0 graph=0/0 chans=4:3f36db638d630126 out=1c87a174b45cb90",
                   "scal/unit cycles=0 graph=0/0 chans=2:414f98be45d8e350 out=143bd1c06efd6c26",
                   "copy/unit cycles=0 graph=0/0 chans=2:414f98be45d8e350 out=5a22674b13383a0d",
                   "axpy/unit cycles=0 graph=0/0 chans=3:9aa71df689adac28 out=1a05a0de16c4cd02",
                   "dot/unit cycles=0 graph=0/0 chans=3:53b389401f799641 out=bf9ff96c08da6148",
                   "nrm2/unit cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=7ad421b8e9863944",
                   "asum/unit cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=e4bf30399a239d4",
                   "iamax/unit cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=c560b584cab2d298",
                   "rot/strided cycles=0 graph=0/0 chans=4:3f36db638d630126 out=2e4ed84adb352bfa",
                   "rotm/strided cycles=0 graph=0/0 chans=4:3f36db638d630126 out=db0364a13c6a699d",
                   "swap/strided cycles=0 graph=0/0 chans=4:3f36db638d630126 out=51265bcf178cf5a",
                   "scal/strided cycles=0 graph=0/0 chans=2:414f98be45d8e350 out=e8e2ef53f2a697fd",
                   "copy/strided cycles=0 graph=0/0 chans=2:414f98be45d8e350 out=14ed3c57fd116728",
                   "axpy/strided cycles=0 graph=0/0 chans=3:9aa71df689adac28 out=da21d1932d94034f",
                   "dot/strided cycles=0 graph=0/0 chans=3:53b389401f799641 out=d2c746022d1769e9",
                   "nrm2/strided cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=8cce29058253dcc0",
                   "asum/strided cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=7868616ad6f7029e",
                   "iamax/strided cycles=0 graph=0/0 chans=2:1991d5be721c05f9 out=e2af24b83e7aaafa",
                   "rotg cycles=0 graph= chans=0:cbf29ce484222325 out=1de430090a03f94c",
                   "rotmg cycles=0 graph= chans=0:cbf29ce484222325 out=58867d255bdfc36a",
                   "gemv/N/rows cycles=0 graph=0/0 chans=4:b76ad758b1c65061 out=44b5a32d395f0259",
                   "gemv/N/rows/strided cycles=0 graph=0/0 chans=4:b76ad758b1c65061 out=6c48683625330b5b",
                   "gemv/N/cols cycles=0 graph=0/0 chans=4:bef3a21732e1e097 out=9515847fee4d5894",
                   "gemv/T/rows cycles=0 graph=0/0 chans=4:2ce3c4ea871a47 out=ad112cdc96748a99",
                   "gemv/T/cols cycles=0 graph=0/0 chans=4:b3ccd4ea24f2d253 out=68f0e135db976cb6",
                   "trsv/LNN cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=8575182852451d00",
                   "trsv/LNU cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=bd64a4e7f1b80b0b",
                   "trsv/LTN cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=d7b83039cfa69221",
                   "trsv/LTU cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=3a592c1d1b72c691",
                   "trsv/UNN cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=e64d7181747dfd08",
                   "trsv/UNU cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=ca656acec0b5987",
                   "trsv/UTN cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=ceab23d6718bc351",
                   "trsv/UTN/strided cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=ac716fc8abf606a4",
                   "trsv/UTU cycles=0 graph=0/0 chans=3:6021ce8f29ef0288 out=a84b92b33aa85443",
                   "ger cycles=0 graph=0/0 chans=4:2246ffe2e429def4 out=2a2de7b75d45fcd2",
                   "syr/L cycles=0 graph=0/0 chans=4:7fe30b7d8d76d361 out=6908893b80c3f5d0",
                   "syr2/L cycles=0 graph=0/0 chans=6:cefc122ea3122682 out=97eb9df1caf3542b",
                   "syr/U cycles=0 graph=0/0 chans=4:7fe30b7d8d76d361 out=bb56248bc8512841",
                   "syr2/U cycles=0 graph=0/0 chans=6:cefc122ea3122682 out=df49ba22adf15f9b",
                   "ger/strided cycles=0 graph=0/0 chans=4:2246ffe2e429def4 out=913ea84fb6113645",
                   "syr/U/strided cycles=0 graph=0/0 chans=4:7fe30b7d8d76d361 out=80712860816a2c52",
                   "syr2/U/strided cycles=0 graph=0/0 chans=6:cefc122ea3122682 out=a5d1b1958e9c5a32",
               });
}
TEST(HostGolden, CorruptionVictims) { expect_lines(victim_pins(),
               {
                   "rot/unit seed=1 victim=ox",
                   "rotm/unit seed=1 victim=ox",
                   "swap/unit seed=1 victim=ox",
                   "scal/unit seed=5 victim=out",
                   "copy/unit seed=5 victim=out",
                   "axpy/unit seed=5 victim=y",
                   "dot/unit seed=5 victim=y",
                   "sdsdot/unit seed=5 victim=y",
                   "nrm2/unit seed=5 victim=x",
                   "asum/unit seed=5 victim=x",
                   "iamax/unit seed=5 victim=x",
                   "gemv/N/rows seed=1 victim=A",
                   "gemv/N/cols seed=1 victim=A",
                   "gemv/T/rows seed=1 victim=A",
                   "gemv/T/cols seed=1 victim=A",
                   "trsv/LNN seed=1 victim=A",
                   "trsv/LNU seed=1 victim=A",
                   "trsv/LTN seed=1 victim=A",
                   "trsv/LTU seed=1 victim=A",
                   "trsv/UNN seed=1 victim=A",
                   "trsv/UNU seed=1 victim=A",
                   "trsv/UTN seed=1 victim=A",
                   "trsv/UTU seed=1 victim=A",
                   "ger seed=1 victim=A",
                   "syr/L seed=1 victim=A",
                   "syr2/L seed=1 victim=A",
                   "syr/U seed=1 victim=out",
                   "syr2/U seed=1 victim=A",
               }); }
TEST(HostGolden, Level3FloatCycle) {
  expect_lines(host_pins<float>(Mode::Cycle, level3_cases<float>()),
               {
                   "gemm/NN/b0 cycles=380 graph=380/684 chans=4:cde611fb7397b18c out=d77a18814206e2b0",
                   "gemm/NN cycles=380 graph=380/923 chans=4:e2aeb11a8de474c9 out=3f0ea6b996f591ab",
                   "gemm/NT/b0 cycles=380 graph=380/684 chans=4:cde611fb7397b18c out=45f3c346bd0d71c2",
                   "gemm/NT cycles=380 graph=380/923 chans=4:e2aeb11a8de474c9 out=cf053ce852f5189e",
                   "gemm/TN/b0 cycles=380 graph=380/684 chans=4:cde611fb7397b18c out=f818a671297e4cb",
                   "gemm/TN cycles=380 graph=380/923 chans=4:e2aeb11a8de474c9 out=5914bc632d3a6fc4",
                   "gemm/TT/b0 cycles=380 graph=380/684 chans=4:cde611fb7397b18c out=8c037222f58ba06e",
                   "gemm/TT cycles=380 graph=380/923 chans=4:e2aeb11a8de474c9 out=2e448ff07328dfc3",
                   "syrk/LN cycles=344 graph=344/809 chans=4:4d03767066834edd out=9922881aa58fa69e",
                   "syr2k/LN cycles=344 graph=344/1166 chans=6:e16e4a0742080c09 out=3207a1ddef8e58f8",
                   "syrk/LT cycles=344 graph=344/809 chans=4:4d03767066834edd out=2ad06c66d193141a",
                   "syr2k/LT cycles=344 graph=344/1166 chans=6:e16e4a0742080c09 out=c03fbdf343fe3342",
                   "syrk/UN cycles=344 graph=344/809 chans=4:4d03767066834edd out=ef574e170f7b0f5e",
                   "syr2k/UN cycles=344 graph=344/1166 chans=6:e16e4a0742080c09 out=d0774b0ee3f0171c",
                   "syrk/UT cycles=344 graph=344/809 chans=4:4d03767066834edd out=353e08df25841d71",
                   "syr2k/UT cycles=344 graph=344/1166 chans=6:e16e4a0742080c09 out=85873f0777fc4fa1",
                   "syrk/LN/b0 cycles=344 graph=344/612 chans=4:c627e04c2d8b2999 out=afdcb66de30b5ba3",
                   "trsm/LLNN cycles=301 graph=301/631 chans=3:2ed6c14e31e80a90 out=a51ae6048a5c02f9",
                   "trsm/LLNU cycles=301 graph=301/631 chans=3:2ed6c14e31e80a90 out=a5b57252bbe1bdda",
                   "trsm/LLTN cycles=301 graph=301/630 chans=3:be66d4d498192f81 out=bf13cf5b301f21f4",
                   "trsm/LLTU cycles=301 graph=301/630 chans=3:be66d4d498192f81 out=a2cc2e43dd7167a0",
                   "trsm/LUNN cycles=301 graph=301/630 chans=3:be66d4d498192f81 out=a8e9397f49d88a1e",
                   "trsm/LUNU cycles=301 graph=301/630 chans=3:be66d4d498192f81 out=a530c53907f94784",
                   "trsm/LUTN cycles=301 graph=301/631 chans=3:2ed6c14e31e80a90 out=517069852f1d0172",
                   "trsm/LUTU cycles=301 graph=301/631 chans=3:2ed6c14e31e80a90 out=72a2dd4e28f90e18",
                   "trsm/RLNN cycles=276 graph=276/548 chans=3:506ea94a2091862 out=43f6aef225c5ddeb",
                   "trsm/RLNU cycles=276 graph=276/548 chans=3:506ea94a2091862 out=3beff8f98b2d99e3",
                   "trsm/RLTN cycles=276 graph=276/550 chans=3:f6df19797f40437c out=e8ee29899c50565a",
                   "trsm/RLTU cycles=276 graph=276/550 chans=3:f6df19797f40437c out=2d2bbaf269487207",
                   "trsm/RUNN cycles=276 graph=276/550 chans=3:f6df19797f40437c out=642be1984ba658a4",
                   "trsm/RUNU cycles=276 graph=276/550 chans=3:f6df19797f40437c out=9b7d8b9d93fd38db",
                   "trsm/RUTN cycles=276 graph=276/548 chans=3:506ea94a2091862 out=89a97da45642b9de",
                   "trsm/RUTU cycles=276 graph=276/548 chans=3:506ea94a2091862 out=1b52c0a1326550b0",
                   "syrk/bank0 cycles=54 graph=54/43 chans=4:d0674f11c68b9cf2 out=38dd9cf890ace192",
                   "syr2k/bank0 cycles=71 graph=71/116 chans=6:2d4a477bc221e174 out=a3e32517b4a3e7ba",
                   "gemm/bank0 cycles=60 graph=60/33 chans=4:a271cdd420eaeba3 out=c6ccbb9148dcd064",
               });
}
TEST(HostGolden, Level3FloatFunctional) {
  expect_lines(host_pins<float>(Mode::Functional, level3_cases<float>()),
               {
                   "gemm/NN/b0 cycles=0 graph=0/0 chans=4:d3c32f9f2b4d2458 out=d77a18814206e2b0",
                   "gemm/NN cycles=0 graph=0/0 chans=4:662093858de93713 out=3f0ea6b996f591ab",
                   "gemm/NT/b0 cycles=0 graph=0/0 chans=4:d3c32f9f2b4d2458 out=45f3c346bd0d71c2",
                   "gemm/NT cycles=0 graph=0/0 chans=4:662093858de93713 out=cf053ce852f5189e",
                   "gemm/TN/b0 cycles=0 graph=0/0 chans=4:d3c32f9f2b4d2458 out=f818a671297e4cb",
                   "gemm/TN cycles=0 graph=0/0 chans=4:662093858de93713 out=5914bc632d3a6fc4",
                   "gemm/TT/b0 cycles=0 graph=0/0 chans=4:d3c32f9f2b4d2458 out=8c037222f58ba06e",
                   "gemm/TT cycles=0 graph=0/0 chans=4:662093858de93713 out=2e448ff07328dfc3",
                   "syrk/LN cycles=0 graph=0/0 chans=4:2b73d33ade1f8fc3 out=9922881aa58fa69e",
                   "syr2k/LN cycles=0 graph=0/0 chans=6:fff582cf392a7bd0 out=3207a1ddef8e58f8",
                   "syrk/LT cycles=0 graph=0/0 chans=4:2b73d33ade1f8fc3 out=2ad06c66d193141a",
                   "syr2k/LT cycles=0 graph=0/0 chans=6:fff582cf392a7bd0 out=c03fbdf343fe3342",
                   "syrk/UN cycles=0 graph=0/0 chans=4:2b73d33ade1f8fc3 out=ef574e170f7b0f5e",
                   "syr2k/UN cycles=0 graph=0/0 chans=6:fff582cf392a7bd0 out=d0774b0ee3f0171c",
                   "syrk/UT cycles=0 graph=0/0 chans=4:2b73d33ade1f8fc3 out=353e08df25841d71",
                   "syr2k/UT cycles=0 graph=0/0 chans=6:fff582cf392a7bd0 out=85873f0777fc4fa1",
                   "syrk/LN/b0 cycles=0 graph=0/0 chans=4:8d1168da64de0489 out=afdcb66de30b5ba3",
                   "trsm/LLNN cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=a51ae6048a5c02f9",
                   "trsm/LLNU cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=a5b57252bbe1bdda",
                   "trsm/LLTN cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=bf13cf5b301f21f4",
                   "trsm/LLTU cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=a2cc2e43dd7167a0",
                   "trsm/LUNN cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=a8e9397f49d88a1e",
                   "trsm/LUNU cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=a530c53907f94784",
                   "trsm/LUTN cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=517069852f1d0172",
                   "trsm/LUTU cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=72a2dd4e28f90e18",
                   "trsm/RLNN cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=43f6aef225c5ddeb",
                   "trsm/RLNU cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=3beff8f98b2d99e3",
                   "trsm/RLTN cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=e8ee29899c50565a",
                   "trsm/RLTU cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=2d2bbaf269487207",
                   "trsm/RUNN cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=642be1984ba658a4",
                   "trsm/RUNU cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=9b7d8b9d93fd38db",
                   "trsm/RUTN cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=89a97da45642b9de",
                   "trsm/RUTU cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=1b52c0a1326550b0",
                   "syrk/bank0 cycles=0 graph=0/0 chans=4:86643d19b637ac3f out=38dd9cf890ace192",
                   "syr2k/bank0 cycles=0 graph=0/0 chans=6:22180302b8a3e269 out=a3e32517b4a3e7ba",
                   "gemm/bank0 cycles=0 graph=0/0 chans=4:79a3773d3633b1c8 out=c6ccbb9148dcd064",
               });
}
TEST(HostGolden, Level3DoubleCycle) {
  expect_lines(host_pins<double>(Mode::Cycle, level3_cases<double>()),
               {
                   "gemm/NN/b0 cycles=380 graph=380/684 chans=4:cde611fb7397b18c out=9dfa272d3f302ea",
                   "gemm/NN cycles=380 graph=380/923 chans=4:e2aeb11a8de474c9 out=30f414920b8e2a33",
                   "gemm/NT/b0 cycles=380 graph=380/684 chans=4:cde611fb7397b18c out=13667c63a8311c83",
                   "gemm/NT cycles=380 graph=380/923 chans=4:e2aeb11a8de474c9 out=5d76ec940fa79198",
                   "gemm/TN/b0 cycles=380 graph=380/684 chans=4:cde611fb7397b18c out=b79792e2840406f8",
                   "gemm/TN cycles=380 graph=380/923 chans=4:e2aeb11a8de474c9 out=eb1d7f6f32be8562",
                   "gemm/TT/b0 cycles=380 graph=380/684 chans=4:cde611fb7397b18c out=3e929c3632406683",
                   "gemm/TT cycles=380 graph=380/923 chans=4:e2aeb11a8de474c9 out=f36c617d9b93cd2e",
                   "syrk/LN cycles=344 graph=344/809 chans=4:4d03767066834edd out=4d506bb0d3796c3b",
                   "syr2k/LN cycles=344 graph=344/1166 chans=6:e16e4a0742080c09 out=71e8a2ae71bdebb6",
                   "syrk/LT cycles=344 graph=344/809 chans=4:4d03767066834edd out=2446333ce6e7fd7a",
                   "syr2k/LT cycles=344 graph=344/1166 chans=6:e16e4a0742080c09 out=b0719edb93d65e63",
                   "syrk/UN cycles=344 graph=344/809 chans=4:4d03767066834edd out=487cc6391ba83ce8",
                   "syr2k/UN cycles=344 graph=344/1166 chans=6:e16e4a0742080c09 out=64f2bf71e57e0a0e",
                   "syrk/UT cycles=344 graph=344/809 chans=4:4d03767066834edd out=5ab3f4b24a53e98e",
                   "syr2k/UT cycles=344 graph=344/1166 chans=6:e16e4a0742080c09 out=1af3666f43ac3894",
                   "syrk/LN/b0 cycles=344 graph=344/612 chans=4:c627e04c2d8b2999 out=3388a19c8e0bb1bc",
                   "trsm/LLNN cycles=305 graph=305/538 chans=3:fbe19fde74c76bbf out=cf0d0880216d1c9a",
                   "trsm/LLNU cycles=305 graph=305/538 chans=3:fbe19fde74c76bbf out=16bb89c89a8e1440",
                   "trsm/LLTN cycles=305 graph=305/537 chans=3:8bd7fdad7e1335ee out=7960ddbde7eb792b",
                   "trsm/LLTU cycles=305 graph=305/537 chans=3:8bd7fdad7e1335ee out=9a9908740a019b23",
                   "trsm/LUNN cycles=305 graph=305/537 chans=3:8bd7fdad7e1335ee out=581b97d20d01b2f0",
                   "trsm/LUNU cycles=305 graph=305/537 chans=3:8bd7fdad7e1335ee out=255abf9e8473acac",
                   "trsm/LUTN cycles=305 graph=305/538 chans=3:fbe19fde74c76bbf out=d96daf5ac420e906",
                   "trsm/LUTU cycles=305 graph=305/538 chans=3:fbe19fde74c76bbf out=af6a246c8009aa7",
                   "trsm/RLNN cycles=281 graph=281/466 chans=3:347bb1c2205a2d0e out=5621b6dc326704d",
                   "trsm/RLNU cycles=281 graph=281/466 chans=3:347bb1c2205a2d0e out=47757628955debee",
                   "trsm/RLTN cycles=281 graph=281/468 chans=3:23cad2110ab4a53 out=4ce81dce53491bc7",
                   "trsm/RLTU cycles=281 graph=281/468 chans=3:23cad2110ab4a53 out=2500c568228f773d",
                   "trsm/RUNN cycles=281 graph=281/468 chans=3:23cad2110ab4a53 out=9138d36bf6ec0345",
                   "trsm/RUNU cycles=281 graph=281/468 chans=3:23cad2110ab4a53 out=8397dc4fc0dddd02",
                   "trsm/RUTN cycles=281 graph=281/466 chans=3:347bb1c2205a2d0e out=33999a2184684a21",
                   "trsm/RUTU cycles=281 graph=281/466 chans=3:347bb1c2205a2d0e out=d69563c5340af936",
                   "syrk/bank0 cycles=100 graph=100/140 chans=4:e8668a4d1d64b303 out=8fac48817682987a",
                   "syr2k/bank0 cycles=143 graph=143/271 chans=6:c9d8e4437da1d5b8 out=867739059f142527",
                   "gemm/bank0 cycles=117 graph=117/134 chans=4:3e60319b7c3a5b1f out=4ef1bd878dfba78e",
               });
}
TEST(HostGolden, Level3DoubleFunctional) {
  expect_lines(host_pins<double>(Mode::Functional, level3_cases<double>()),
               {
                   "gemm/NN/b0 cycles=0 graph=0/0 chans=4:d3c32f9f2b4d2458 out=9dfa272d3f302ea",
                   "gemm/NN cycles=0 graph=0/0 chans=4:662093858de93713 out=30f414920b8e2a33",
                   "gemm/NT/b0 cycles=0 graph=0/0 chans=4:d3c32f9f2b4d2458 out=13667c63a8311c83",
                   "gemm/NT cycles=0 graph=0/0 chans=4:662093858de93713 out=5d76ec940fa79198",
                   "gemm/TN/b0 cycles=0 graph=0/0 chans=4:d3c32f9f2b4d2458 out=b79792e2840406f8",
                   "gemm/TN cycles=0 graph=0/0 chans=4:662093858de93713 out=eb1d7f6f32be8562",
                   "gemm/TT/b0 cycles=0 graph=0/0 chans=4:d3c32f9f2b4d2458 out=3e929c3632406683",
                   "gemm/TT cycles=0 graph=0/0 chans=4:662093858de93713 out=f36c617d9b93cd2e",
                   "syrk/LN cycles=0 graph=0/0 chans=4:2b73d33ade1f8fc3 out=4d506bb0d3796c3b",
                   "syr2k/LN cycles=0 graph=0/0 chans=6:fff582cf392a7bd0 out=71e8a2ae71bdebb6",
                   "syrk/LT cycles=0 graph=0/0 chans=4:2b73d33ade1f8fc3 out=2446333ce6e7fd7a",
                   "syr2k/LT cycles=0 graph=0/0 chans=6:fff582cf392a7bd0 out=b0719edb93d65e63",
                   "syrk/UN cycles=0 graph=0/0 chans=4:2b73d33ade1f8fc3 out=487cc6391ba83ce8",
                   "syr2k/UN cycles=0 graph=0/0 chans=6:fff582cf392a7bd0 out=64f2bf71e57e0a0e",
                   "syrk/UT cycles=0 graph=0/0 chans=4:2b73d33ade1f8fc3 out=5ab3f4b24a53e98e",
                   "syr2k/UT cycles=0 graph=0/0 chans=6:fff582cf392a7bd0 out=1af3666f43ac3894",
                   "syrk/LN/b0 cycles=0 graph=0/0 chans=4:8d1168da64de0489 out=3388a19c8e0bb1bc",
                   "trsm/LLNN cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=cf0d0880216d1c9a",
                   "trsm/LLNU cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=16bb89c89a8e1440",
                   "trsm/LLTN cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=7960ddbde7eb792b",
                   "trsm/LLTU cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=9a9908740a019b23",
                   "trsm/LUNN cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=581b97d20d01b2f0",
                   "trsm/LUNU cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=255abf9e8473acac",
                   "trsm/LUTN cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=d96daf5ac420e906",
                   "trsm/LUTU cycles=0 graph=0/0 chans=3:219153ad47e4b27a out=af6a246c8009aa7",
                   "trsm/RLNN cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=5621b6dc326704d",
                   "trsm/RLNU cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=47757628955debee",
                   "trsm/RLTN cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=4ce81dce53491bc7",
                   "trsm/RLTU cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=2500c568228f773d",
                   "trsm/RUNN cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=9138d36bf6ec0345",
                   "trsm/RUNU cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=8397dc4fc0dddd02",
                   "trsm/RUTN cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=33999a2184684a21",
                   "trsm/RUTU cycles=0 graph=0/0 chans=3:b0c7577963f6a02d out=d69563c5340af936",
                   "syrk/bank0 cycles=0 graph=0/0 chans=4:86643d19b637ac3f out=8fac48817682987a",
                   "syr2k/bank0 cycles=0 graph=0/0 chans=6:22180302b8a3e269 out=867739059f142527",
                   "gemm/bank0 cycles=0 graph=0/0 chans=4:79a3773d3633b1c8 out=4ef1bd878dfba78e",
               });
}
TEST(HostGolden, Level3CorruptionVictims) {
  expect_lines(victim_pins(level3_cases<float>()),
               {
                   "gemm/NN/b0 seed=1 victim=out",
                   "gemm/NN seed=1 victim=A",
                   "gemm/NT/b0 seed=1 victim=out",
                   "gemm/NT seed=1 victim=A",
                   "gemm/TN/b0 seed=1 victim=out",
                   "gemm/TN seed=1 victim=A",
                   "gemm/TT/b0 seed=1 victim=out",
                   "gemm/TT seed=1 victim=A",
                   "syrk/LN seed=1 victim=A",
                   "syr2k/LN seed=1 victim=Acol",
                   "syrk/LT seed=1 victim=A",
                   "syr2k/LT seed=1 victim=Acol",
                   "syrk/UN seed=1 victim=A",
                   "syr2k/UN seed=1 victim=Acol",
                   "syrk/UT seed=1 victim=A",
                   "syr2k/UT seed=1 victim=Acol",
                   "syrk/LN/b0 seed=1 victim=out",
                   "trsm/LLNN seed=1 victim=A",
                   "trsm/LLNU seed=1 victim=A",
                   "trsm/LLTN seed=1 victim=A",
                   "trsm/LLTU seed=1 victim=A",
                   "trsm/LUNN seed=1 victim=A",
                   "trsm/LUNU seed=1 victim=A",
                   "trsm/LUTN seed=1 victim=A",
                   "trsm/LUTU seed=1 victim=A",
                   "trsm/RLNN seed=1 victim=B",
                   "trsm/RLNU seed=1 victim=B",
                   "trsm/RLTN seed=1 victim=B",
                   "trsm/RLTU seed=1 victim=B",
                   "trsm/RUNN seed=1 victim=B",
                   "trsm/RUNU seed=1 victim=B",
                   "trsm/RUTN seed=1 victim=B",
                   "trsm/RUTU seed=1 victim=B",
                   "syrk/bank0 seed=1 victim=Cin",
                   "syr2k/bank0 seed=1 victim=Btrow",
                   "gemm/bank0 seed=1 victim=Cin",
               });
}
TEST(HostGolden, RunnerSingle) {
  expect_lines(runner_pins("single", Mode::Cycle),
               {
                   "rotg cycles=1 out=ed89f5d5701e2800",
                   "rotmg cycles=1 out=8d67e21542c6ad3e",
                   "rot cycles=13 out=e55d11f3455399a",
                   "rotm cycles=13 out=cae8d5bebfb57b7e",
                   "swap cycles=13 out=f97bf0a8f00442db",
                   "scal cycles=13 out=e01525b808e7e053",
                   "copy cycles=13 out=9d5857fbbb860ff2",
                   "axpy cycles=13 out=cc6d0f653625a257",
                   "dot cycles=14 out=60dfca15dd41e3f2",
                   "sdsdot cycles=14 out=c23438ccd722b938",
                   "nrm2 cycles=14 out=cb1b48351b8d230f",
                   "asum cycles=14 out=4b28932f654d023b",
                   "iamax cycles=14 out=31fa476369d87cff",
               });
  expect_lines(runner_pins("single", Mode::Functional),
               {
                   "rotg cycles=0 out=ed89f5d5701e2800",
                   "rotmg cycles=0 out=8d67e21542c6ad3e",
                   "rot cycles=0 out=e55d11f3455399a",
                   "rotm cycles=0 out=cae8d5bebfb57b7e",
                   "swap cycles=0 out=f97bf0a8f00442db",
                   "scal cycles=0 out=e01525b808e7e053",
                   "copy cycles=0 out=9d5857fbbb860ff2",
                   "axpy cycles=0 out=cc6d0f653625a257",
                   "dot cycles=0 out=60dfca15dd41e3f2",
                   "sdsdot cycles=0 out=c23438ccd722b938",
                   "nrm2 cycles=0 out=cb1b48351b8d230f",
                   "asum cycles=0 out=4b28932f654d023b",
                   "iamax cycles=0 out=31fa476369d87cff",
               });
}
TEST(HostGolden, RunnerDouble) {
  expect_lines(runner_pins("double", Mode::Cycle),
               {
                   "rotg cycles=1 out=e7d46fc4ae694dc4",
                   "rotmg cycles=1 out=fcaaa26bf865da2",
                   "rot cycles=13 out=f181d69e0dce1521",
                   "rotm cycles=13 out=dfeb3eaa44d367da",
                   "swap cycles=13 out=179e4535833e137c",
                   "scal cycles=13 out=9ed0afcd035fee97",
                   "copy cycles=13 out=913c25b4fefd3b62",
                   "axpy cycles=13 out=62da2ac994438997",
                   "dot cycles=14 out=96dee7d890a2a18d",
                   "nrm2 cycles=14 out=1125bd2e639141b5",
                   "asum cycles=14 out=732c88bf4f7986b5",
                   "iamax cycles=14 out=31fa476369d87cff",
               });
  expect_lines(runner_pins("double", Mode::Functional),
               {
                   "rotg cycles=0 out=e7d46fc4ae694dc4",
                   "rotmg cycles=0 out=fcaaa26bf865da2",
                   "rot cycles=0 out=f181d69e0dce1521",
                   "rotm cycles=0 out=dfeb3eaa44d367da",
                   "swap cycles=0 out=179e4535833e137c",
                   "scal cycles=0 out=9ed0afcd035fee97",
                   "copy cycles=0 out=913c25b4fefd3b62",
                   "axpy cycles=0 out=62da2ac994438997",
                   "dot cycles=0 out=96dee7d890a2a18d",
                   "nrm2 cycles=0 out=1125bd2e639141b5",
                   "asum cycles=0 out=732c88bf4f7986b5",
                   "iamax cycles=0 out=31fa476369d87cff",
               });
}

}  // namespace
}  // namespace fblas::stream
