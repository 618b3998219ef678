// Stress and invariant tests for the ORWL runtime under real concurrency:
// mutual exclusion, shared-read concurrency, no lost updates, liveness of
// long iterative chains, both control modes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "orwl/runtime.h"

namespace orwl {
namespace {

class StressTest
    : public ::testing::TestWithParam<RuntimeOptions::ControlMode> {
 protected:
  RuntimeOptions opts() {
    RuntimeOptions o;
    o.control = GetParam();
    return o;
  }
};

TEST_P(StressTest, WritersNeverOverlap) {
  constexpr int kWriters = 8;
  constexpr int kRounds = 200;
  Runtime rt(opts());
  const LocationId loc = rt.add_location(sizeof(long));
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  for (int i = 0; i < kWriters; ++i) {
    rt.add_task("w" + std::to_string(i), [&, i](TaskContext& ctx) {
      Handle& h = ctx.handle(i);
      for (int round = 0; round < kRounds; ++round) {
        auto bytes = h.acquire();
        if (inside.fetch_add(1) != 0) overlap = true;
        as_span<long>(bytes)[0] += 1;
        inside.fetch_sub(1);
        if (round + 1 == kRounds)
          h.release();
        else
          h.release_and_renew();
      }
    });
  }
  for (int i = 0; i < kWriters; ++i)
    rt.add_handle(i, loc, AccessMode::Write);
  rt.run();
  EXPECT_FALSE(overlap.load()) << "two write grants overlapped";
  EXPECT_EQ(as_span<long>(rt.location_data(loc))[0],
            static_cast<long>(kWriters) * kRounds)
      << "lost updates detected";
}

TEST_P(StressTest, ReadersOverlapWritersDoNot) {
  constexpr int kReaders = 6;
  constexpr int kRounds = 100;
  Runtime rt(opts());
  const LocationId loc = rt.add_location(sizeof(long));
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<bool> writer_overlap{false};

  rt.add_task("writer", [&](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    for (int round = 0; round < kRounds; ++round) {
      auto bytes = h.acquire();
      if (readers_inside.load() != 0) writer_overlap = true;
      as_span<long>(bytes)[0] += 1;
      if (round + 1 == kRounds)
        h.release();
      else
        h.release_and_renew();
    }
  });
  for (int i = 0; i < kReaders; ++i) {
    rt.add_task("r" + std::to_string(i), [&, i](TaskContext& ctx) {
      Handle& h = ctx.handle(1 + i);
      for (int round = 0; round < kRounds; ++round) {
        h.acquire();
        readers_inside.fetch_add(1);
        if (round == 0) {
          // All first-round reads are granted together after the writer's
          // first release. Wait (bounded) for a peer inside its grant: this
          // can only succeed when read grants are genuinely shared, and it
          // works on single-PU hosts where a fixed spin window never
          // catches a preemption. If reads were serialized the deadline
          // expires and max_readers stays 1.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (readers_inside.load() < 2 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        } else {
          // Widen the observation window so concurrent read grants are
          // actually observed overlapping.
          for (int spin = 0; spin < 2000; ++spin)
            asm volatile("" : : : "memory");
        }
        const int now = readers_inside.load();
        int prev = max_readers.load();
        while (now > prev && !max_readers.compare_exchange_weak(prev, now)) {
        }
        readers_inside.fetch_sub(1);
        if (round + 1 == kRounds)
          h.release();
        else
          h.release_and_renew();
      }
    });
  }
  rt.add_handle(0, loc, AccessMode::Write);
  for (int i = 0; i < kReaders; ++i)
    rt.add_handle(1 + i, loc, AccessMode::Read);
  rt.run();
  EXPECT_FALSE(writer_overlap.load());
  EXPECT_EQ(as_span<long>(rt.location_data(loc))[0], kRounds);
  // Readers are granted together between writer rounds; with 6 readers we
  // should observe genuine overlap at least once.
  EXPECT_GT(max_readers.load(), 1)
      << "shared read grants never actually overlapped";
}

TEST_P(StressTest, LongChainStaysLive) {
  // A 16-stage pipeline over 16 locations, 100 rounds: if renewal ordering
  // were wrong this would deadlock (the test would time out).
  constexpr int kStages = 16;
  constexpr int kRounds = 100;
  Runtime rt(opts());
  std::vector<LocationId> locs;
  for (int i = 0; i < kStages; ++i)
    locs.push_back(rt.add_location(sizeof(long)));
  for (int i = 0; i < kStages; ++i) {
    rt.add_task("stage" + std::to_string(i), [i](TaskContext& ctx) {
      Handle& rd = ctx.handle(2 * i);
      Handle& wr = ctx.handle(2 * i + 1);
      for (int round = 0; round < kRounds; ++round) {
        const bool last = round + 1 == kRounds;
        long v;
        {
          auto bytes = rd.acquire();
          v = as_span<const long>(std::span<const std::byte>(bytes))[0];
          if (last)
            rd.release();
          else
            rd.release_and_renew();
        }
        auto bytes = wr.acquire();
        as_span<long>(bytes)[0] = v + 1;
        if (last)
          wr.release();
        else
          wr.release_and_renew();
      }
    });
  }
  for (int i = 0; i < kStages; ++i) {
    rt.add_handle(i, locs[static_cast<std::size_t>(i)], AccessMode::Read);
    rt.add_handle(i, locs[static_cast<std::size_t>((i + 1) % kStages)],
                  AccessMode::Write);
  }
  rt.run();
  EXPECT_EQ(rt.stats().read_grants(),
            static_cast<std::uint64_t>(kStages * kRounds));
}

TEST_P(StressTest, ManyLocationsManyTasks) {
  // 32 tasks all writing the same 4 locations in the same order for 50
  // rounds. Identical per-task acquisition order across all queues is the
  // ORWL liveness discipline; this must not deadlock.
  constexpr int kTasks = 32;
  constexpr int kLocs = 4;
  constexpr int kRounds = 50;
  Runtime rt(opts());
  std::vector<LocationId> locs;
  for (int i = 0; i < kLocs; ++i)
    locs.push_back(rt.add_location(sizeof(long)));
  int handle_id = 0;
  std::vector<int> first_handle(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    first_handle[static_cast<std::size_t>(t)] = handle_id;
    handle_id += 4;
    rt.add_task("t" + std::to_string(t), [t, &first_handle](TaskContext& ctx) {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < 4; ++k) {
          Handle& h =
              ctx.handle(first_handle[static_cast<std::size_t>(t)] + k);
          auto bytes = h.acquire();
          as_span<long>(bytes)[0] += 1;
          if (round + 1 == kRounds)
            h.release();
          else
            h.release_and_renew();
        }
      }
    });
  }
  for (int t = 0; t < kTasks; ++t)
    for (int k = 0; k < 4; ++k)
      rt.add_handle(t, locs[static_cast<std::size_t>(k)], AccessMode::Write);
  rt.run();
  long total = 0;
  for (int i = 0; i < kLocs; ++i)
    total += as_span<long>(rt.location_data(locs[static_cast<std::size_t>(i)]))[0];
  EXPECT_EQ(total, static_cast<long>(kTasks) * 4 * kRounds);
}

INSTANTIATE_TEST_SUITE_P(
    ControlModes, StressTest,
    ::testing::Values(RuntimeOptions::ControlMode::Direct,
                      RuntimeOptions::ControlMode::PerTask),
    [](const auto& info) {
      switch (info.param) {
        case RuntimeOptions::ControlMode::Direct: return "Direct";
        case RuntimeOptions::ControlMode::PerTask: return "PerTask";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace orwl
