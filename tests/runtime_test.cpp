// Integration-level tests for the ORWL Runtime: handles, control threads,
// iterative renewal, instrumentation, comm-matrix extraction.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "orwl/runtime.h"
#include "support/assert.h"
#include "sync/adaptive_wait.h"
#include "sync/wait_strategy.h"

namespace orwl {
namespace {

RuntimeOptions direct_mode() {
  RuntimeOptions o;
  o.control = RuntimeOptions::ControlMode::Direct;
  return o;
}

TEST(Runtime, SingleTaskWritesLocation) {
  for (auto mode : {RuntimeOptions::ControlMode::Direct,
                    RuntimeOptions::ControlMode::PerTask}) {
    RuntimeOptions opts;
    opts.control = mode;
    Runtime rt(opts);
    const LocationId loc = rt.add_location(sizeof(int));
    const TaskId t = rt.add_task("writer", [](TaskContext& ctx) {
      Handle& h = ctx.handle(0);
      auto bytes = h.acquire();
      as_span<int>(bytes)[0] = 42;
      h.release();
    });
    const HandleId h = rt.add_handle(t, loc, AccessMode::Write);
    ASSERT_EQ(h, 0);
    rt.run();
    EXPECT_EQ(as_span<int>(rt.location_data(loc))[0], 42);
  }
}

TEST(Runtime, ProducerConsumerOrder) {
  Runtime rt(direct_mode());
  const LocationId loc = rt.add_location(sizeof(int));
  std::atomic<int> observed{-1};
  const TaskId producer = rt.add_task("producer", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 7;
    h.release();
  });
  const TaskId consumer = rt.add_task("consumer", [&](TaskContext& ctx) {
    Handle& h = ctx.handle(1);
    auto bytes = h.acquire();
    observed = as_span<const int>(std::span<const std::byte>(bytes))[0];
    h.release();
  });
  // Registration order: write first => the consumer sees the product.
  rt.add_handle(producer, loc, AccessMode::Write);
  rt.add_handle(consumer, loc, AccessMode::Read);
  rt.run();
  EXPECT_EQ(observed.load(), 7);
}

TEST(Runtime, IterativeCounterRoundRobin) {
  // Two tasks increment a shared counter in strict alternation; the FIFO
  // ordering makes the interleaving deterministic, whether grants are
  // delivered by the releaser (Direct) or announced to the owner's control
  // thread (PerTask, which delivers inline when that backlog is idle).
  constexpr int kIters = 200;
  for (auto mode : {RuntimeOptions::ControlMode::Direct,
                    RuntimeOptions::ControlMode::PerTask}) {
    RuntimeOptions opts;
    opts.control = mode;
    Runtime rt(opts);
    const LocationId loc = rt.add_location(sizeof(long));
    std::vector<long> seen_a, seen_b;
    auto body = [](std::vector<long>& seen, HandleId handle_id) {
      return [&seen, handle_id](TaskContext& ctx) {
        Handle& h = ctx.handle(handle_id);
        for (int i = 0; i < kIters; ++i) {
          auto bytes = h.acquire();
          long& v = as_span<long>(bytes)[0];
          seen.push_back(v);
          v += 1;
          h.release_and_renew();
        }
      };
    };
    const TaskId a = rt.add_task("a", body(seen_a, 0));
    const TaskId b = rt.add_task("b", body(seen_b, 1));
    rt.add_handle(a, loc, AccessMode::Write);
    rt.add_handle(b, loc, AccessMode::Write);
    rt.run();
    ASSERT_EQ(seen_a.size(), static_cast<std::size_t>(kIters));
    ASSERT_EQ(seen_b.size(), static_cast<std::size_t>(kIters));
    // a sees 0,2,4,...; b sees 1,3,5,... — perfect alternation.
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(seen_a[static_cast<std::size_t>(i)], 2 * i);
      EXPECT_EQ(seen_b[static_cast<std::size_t>(i)], 2 * i + 1);
    }
    EXPECT_EQ(as_span<long>(rt.location_data(loc))[0], 2 * kIters);
  }
}

TEST(Runtime, SharedReadersSeeSameSnapshot) {
  Runtime rt;  // PerTask control threads
  const LocationId loc = rt.add_location(sizeof(int));
  const TaskId w = rt.add_task("w", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 99;
    h.release();
  });
  std::atomic<int> sum{0};
  std::vector<TaskId> readers;
  for (int i = 0; i < 4; ++i) {
    readers.push_back(rt.add_task(
        "r" + std::to_string(i), [&sum, i](TaskContext& ctx) {
          Handle& h = ctx.handle(1 + i);
          auto bytes = h.acquire();
          sum += as_span<const int>(std::span<const std::byte>(bytes))[0];
          h.release();
        }));
  }
  rt.add_handle(w, loc, AccessMode::Write);
  for (int i = 0; i < 4; ++i)
    rt.add_handle(readers[static_cast<std::size_t>(i)], loc,
                  AccessMode::Read);
  rt.run();
  EXPECT_EQ(sum.load(), 4 * 99);
  EXPECT_EQ(rt.stats().read_grants(), 4u);
  EXPECT_EQ(rt.stats().write_grants(), 1u);
}

TEST(Runtime, TaskExceptionPropagates) {
  Runtime rt(direct_mode());
  rt.add_task("boom", [](TaskContext&) {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(rt.run(), std::runtime_error);
}

TEST(Runtime, RunTwiceThrows) {
  Runtime rt(direct_mode());
  rt.add_task("noop", [](TaskContext&) {});
  rt.run();
  EXPECT_THROW(rt.run(), ContractError);
}

TEST(Runtime, RunWithoutTasksThrows) {
  Runtime rt;
  EXPECT_THROW(rt.run(), ContractError);
}

TEST(Runtime, AddAfterRunThrows) {
  Runtime rt(direct_mode());
  rt.add_task("noop", [](TaskContext&) {});
  rt.run();
  EXPECT_THROW(rt.add_location(8), ContractError);
  EXPECT_THROW(rt.add_task("late", [](TaskContext&) {}), ContractError);
}

TEST(Runtime, InvalidIdsRejected) {
  Runtime rt;
  EXPECT_THROW(rt.add_handle(0, 0, AccessMode::Read), ContractError);
  const TaskId t = rt.add_task("t", [](TaskContext&) {});
  EXPECT_THROW(rt.add_handle(t, 5, AccessMode::Read), ContractError);
  EXPECT_THROW(rt.handle(0), ContractError);
  EXPECT_THROW(rt.location_data(0), ContractError);
  EXPECT_THROW(rt.set_compute_binding(9, topo::Bitmap::single(0)),
               ContractError);
}

TEST(Runtime, HandleMisuseThrows) {
  Runtime rt(direct_mode());
  const LocationId loc = rt.add_location(8);
  const TaskId t = rt.add_task("t", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    EXPECT_THROW(h.release(), ContractError);  // release before acquire
    h.acquire();
    EXPECT_THROW(h.acquire(), ContractError);  // double acquire
    h.release();
    EXPECT_THROW(h.release(), ContractError);  // double release
  });
  rt.add_handle(t, loc, AccessMode::Write);
  rt.run();
}

TEST(Runtime, UnprimedHandleNeedsManualRequest) {
  Runtime rt(direct_mode());
  const LocationId loc = rt.add_location(sizeof(int));
  const TaskId t = rt.add_task("t", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    EXPECT_THROW(h.acquire(), ContractError);  // no request yet
    h.request();
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 5;
    h.release();
  });
  rt.add_handle(t, loc, AccessMode::Write, /*prime=*/false);
  rt.run();
  EXPECT_EQ(as_span<int>(rt.location_data(loc))[0], 5);
}

TEST(Runtime, StaticCommMatrixFromRegistrations) {
  Runtime rt;
  const LocationId big = rt.add_location(1000);
  const LocationId small = rt.add_location(10);
  const TaskId t0 = rt.add_task("t0", [](TaskContext&) {});
  const TaskId t1 = rt.add_task("t1", [](TaskContext&) {});
  const TaskId t2 = rt.add_task("t2", [](TaskContext&) {});
  rt.add_handle(t0, big, AccessMode::Write, false);
  rt.add_handle(t1, big, AccessMode::Read, false);
  rt.add_handle(t1, small, AccessMode::Write, false);
  rt.add_handle(t2, small, AccessMode::Read, false);
  const comm::CommMatrix m = rt.static_comm_matrix();
  EXPECT_EQ(m.order(), 3);
  EXPECT_EQ(m.at(t0, t1), 1000.0);
  EXPECT_EQ(m.at(t1, t2), 10.0);
  EXPECT_EQ(m.at(t0, t2), 0.0);
}

TEST(Runtime, StaticCommMatrixWriterPairs) {
  Runtime rt;
  const LocationId loc = rt.add_location(64);
  const TaskId t0 = rt.add_task("t0", [](TaskContext&) {});
  const TaskId t1 = rt.add_task("t1", [](TaskContext&) {});
  rt.add_handle(t0, loc, AccessMode::Write, false);
  rt.add_handle(t1, loc, AccessMode::Write, false);
  const comm::CommMatrix m = rt.static_comm_matrix();
  EXPECT_EQ(m.at(t0, t1), 64.0) << "co-writers exchange the buffer";
}

TEST(Runtime, MeasuredFlowsTrackProducerConsumer) {
  Runtime rt(direct_mode());
  const LocationId loc = rt.add_location(256);
  const TaskId w = rt.add_task("w", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    h.acquire();
    h.release();
  });
  const TaskId r = rt.add_task("r", [](TaskContext& ctx) {
    Handle& h = ctx.handle(1);
    h.acquire();
    h.release();
  });
  rt.add_handle(w, loc, AccessMode::Write);
  rt.add_handle(r, loc, AccessMode::Read);
  rt.run();
  const comm::CommMatrix flows = rt.measured_comm_matrix();
  EXPECT_EQ(flows.at(w, r), 256.0);
}

TEST(Runtime, BindingsAccepted) {
  // Binding to the first online CPU must not break execution.
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(int));
  const TaskId t = rt.add_task("bound", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 1;
    h.release();
  });
  rt.add_handle(t, loc, AccessMode::Write);
  rt.set_compute_binding(t, topo::Bitmap::single(0));
  rt.set_control_binding(t, topo::Bitmap::single(0));
  rt.run();
  EXPECT_EQ(as_span<int>(rt.location_data(loc))[0], 1);
}

TEST(Runtime, ManyTasksManyLocationsRing) {
  // Token ring: task i reads location i and writes location (i+1) % n.
  constexpr int kTasks = 8;
  constexpr int kRounds = 10;
  Runtime rt;  // PerTask control threads exercise the event path
  std::vector<LocationId> locs;
  for (int i = 0; i < kTasks; ++i)
    locs.push_back(rt.add_location(sizeof(long)));
  for (int i = 0; i < kTasks; ++i) {
    rt.add_task("ring" + std::to_string(i), [i](TaskContext& ctx) {
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
  // Canonical order: task i's read on loc i, then write on loc i+1. The
  // writes are what the *next* round's reads consume.
  for (int i = 0; i < kTasks; ++i) {
    rt.add_handle(i, locs[static_cast<std::size_t>(i)], AccessMode::Read);
    rt.add_handle(i, locs[static_cast<std::size_t>((i + 1) % kTasks)],
                  AccessMode::Write);
  }
  rt.run();
  // Each location was written kRounds times with (read value + 1); the ring
  // converges to a consistent wavefront — just verify no deadlock happened
  // and grant counts match: kTasks * kRounds reads + same writes.
  EXPECT_EQ(rt.stats().read_grants(),
            static_cast<std::uint64_t>(kTasks * kRounds));
  EXPECT_EQ(rt.stats().write_grants(),
            static_cast<std::uint64_t>(kTasks * kRounds));
}

TEST(Runtime, ReleasesBalanceGrantsInAClosedRun) {
  // Every grant of a closed run is acquired and released exactly once —
  // by release_and_renew in every round but the last, by release in the
  // last — so orwl.releases must equal orwl.grants.read +
  // orwl.grants.write. One writer and three readers exercise both single
  // and batched grant announcements.
  constexpr int kReaders = 3;
  constexpr int kRounds = 50;
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(long));
  for (int i = 0; i <= kReaders; ++i) {
    rt.add_task("t" + std::to_string(i), [i](TaskContext& ctx) {
      Handle& h = ctx.handle(i);
      for (int round = 0; round < kRounds; ++round) {
        h.acquire();
        if (round + 1 == kRounds)
          h.release();
        else
          h.release_and_renew();
      }
    });
  }
  rt.add_handle(0, loc, AccessMode::Write);
  for (int i = 1; i <= kReaders; ++i) rt.add_handle(i, loc, AccessMode::Read);
  rt.run();
  obs::Registry& m = rt.metrics();
  const std::uint64_t reads = m.counter("orwl.grants.read").read();
  const std::uint64_t writes = m.counter("orwl.grants.write").read();
  EXPECT_EQ(reads, static_cast<std::uint64_t>(kReaders * kRounds));
  EXPECT_EQ(writes, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(m.counter("orwl.releases").read(), reads + writes);
  EXPECT_EQ(rt.stats().releases(), reads + writes);
}

TEST(Runtime, AutoWaitBudgetRetunedAtEpochBoundaries) {
  // spin_then_park(auto): each handle gets an AdaptiveWaitBudget fed from
  // its wait-rounds histogram at every epoch boundary, exported as the
  // orwl.spin_budget gauge. Alternating writers always wait on each
  // other, so every epoch window has samples and the retune must leave
  // the budget inside [kMinSpins, kMaxSpins].
  constexpr int kIters = 40;
  RuntimeOptions opts;
  opts.control = RuntimeOptions::ControlMode::Direct;
  opts.wait = sync::WaitStrategy::spin_then_park_auto();
  Runtime rt(opts);
  const LocationId loc = rt.add_location(sizeof(long));
  int boundaries = 0;
  rt.set_epoch_hook(4, [&](int, int) { ++boundaries; });
  auto body = [&](HandleId handle_id) {
    return [&, handle_id](TaskContext& ctx) {
      Handle& h = ctx.handle(handle_id);
      for (int i = 0; i < kIters; ++i) {
        // Same boundary rendezvous the backends emit: between iterations,
        // every epoch_length rounds.
        if (i > 0 && i % rt.epoch_length() == 0)
          rt.epoch_arrive(ctx.id(), i);
        auto bytes = h.acquire();
        as_span<long>(bytes)[0] += 1;
        h.release_and_renew();
      }
    };
  };
  const TaskId a = rt.add_task("a", body(0));
  const TaskId b = rt.add_task("b", body(1));
  rt.add_handle(a, loc, AccessMode::Write);
  rt.add_handle(b, loc, AccessMode::Write);
  rt.run();
  EXPECT_GT(boundaries, 0);
  for (const char* gauge : {"orwl.spin_budget/h0", "orwl.spin_budget/h1"}) {
    const std::int64_t budget = rt.metrics().gauge(gauge).read();
    EXPECT_GE(budget, sync::AdaptiveWaitBudget::kMinSpins) << gauge;
    EXPECT_LE(budget, sync::AdaptiveWaitBudget::kMaxSpins) << gauge;
  }
  // The waits were recorded: the histograms driving the retune are live.
  EXPECT_GT(rt.metrics().histogram("orwl.wait_rounds/h0").snapshot().count,
            0u);
}

}  // namespace
}  // namespace orwl
