// Tests for the NUMA cost-model simulator: sanity, monotonicity and the
// qualitative properties Figure 1 depends on.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "sim/calibration.h"
#include "sim/lk23_model.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace orwl::sim {
namespace {

Workload one_thread(double flops, double bytes, int iters = 1) {
  Workload w;
  w.threads.push_back({flops, bytes, 0});
  w.iterations = iters;
  return w;
}

Placement fixed_at(std::vector<int> pus) {
  Placement p;
  p.compute_pu = pus;
  p.control_pu.assign(pus.size(), -1);
  p.data_home_pu = pus;
  return p;
}

TEST(CostModel, DefaultsValidateAgainstTopology) {
  const auto topo = topo::Topology::paper_machine();
  const LinkCost cost = LinkCost::defaults_for(topo);
  EXPECT_NO_THROW(cost.check(topo));
  // The ladder must be monotone: deeper common ancestor => cheaper.
  for (int d = 1; d < topo.depth(); ++d) {
    EXPECT_LE(cost.latency[static_cast<std::size_t>(d)],
              cost.latency[static_cast<std::size_t>(d - 1)]);
    EXPECT_GE(cost.bandwidth[static_cast<std::size_t>(d)],
              cost.bandwidth[static_cast<std::size_t>(d - 1)]);
  }
}

TEST(CostModel, SizeMismatchRejected) {
  const auto topo = topo::Topology::paper_machine();
  LinkCost cost = LinkCost::defaults_for(topo);
  cost.latency.pop_back();
  EXPECT_THROW(cost.check(topo), ContractError);
}

TEST(Simulate, ComputeScalesWithFlops) {
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  const Report r1 = simulate(topo, cost, one_thread(1e6, 0.0), fixed_at({0}));
  const Report r2 = simulate(topo, cost, one_thread(2e6, 0.0), fixed_at({0}));
  EXPECT_NEAR(r2.total_seconds, 2.0 * r1.total_seconds, 1e-12);
}

TEST(Simulate, IterationsAccumulate) {
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  const Report r1 =
      simulate(topo, cost, one_thread(1e6, 0.0, 1), fixed_at({0}));
  const Report r10 =
      simulate(topo, cost, one_thread(1e6, 0.0, 10), fixed_at({0}));
  EXPECT_NEAR(r10.total_seconds, 10.0 * r1.total_seconds, 1e-12);
}

TEST(Simulate, RemoteMemorySlowerThanLocal) {
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w = one_thread(0.0, 1e8);
  Placement local = fixed_at({0});
  Placement remote = fixed_at({0});
  remote.data_home_pu = {3};  // other package
  const double t_local = simulate(topo, cost, w, local).total_seconds;
  const double t_remote = simulate(topo, cost, w, remote).total_seconds;
  EXPECT_GT(t_remote, t_local * 2.0);
}

TEST(Simulate, CommEdgesCheaperWhenColocated) {
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  w.threads = {{1e6, 0.0, 0}, {1e6, 0.0, 0}};
  w.edges = {{0, 1, 1e6}};
  const double near =
      simulate(topo, cost, w, fixed_at({0, 1})).total_seconds;
  const double far =
      simulate(topo, cost, w, fixed_at({0, 7})).total_seconds;
  EXPECT_GT(far, near);
}

TEST(Simulate, OversubscriptionSerializes) {
  const auto topo = topo::Topology::flat(4);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 4; ++i) w.threads.push_back({1e6, 0.0, 0});
  const Report spread = simulate(topo, cost, w, fixed_at({0, 1, 2, 3}));
  const Report stacked = simulate(topo, cost, w, fixed_at({0, 0, 0, 0}));
  EXPECT_NEAR(stacked.total_seconds, 4.0 * spread.total_seconds, 1e-9);
  EXPECT_EQ(stacked.max_pu_load, 4);
  EXPECT_EQ(spread.max_pu_load, 1);
}

TEST(Simulate, HotspotDomainSerialization) {
  // Many threads streaming from one domain are bounded by that domain's
  // aggregate bandwidth, not per-flow bandwidth.
  const auto topo = topo::Topology::synthetic("pack:4 core:4 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 16; ++i) w.threads.push_back({0.0, 1e8, 0});
  Placement spread_data = fixed_at({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                    13, 14, 15});
  Placement hotspot = spread_data;
  hotspot.data_home_pu.assign(16, -1);  // everything on PU 0's domain
  const double t_spread =
      simulate(topo, cost, w, spread_data).total_seconds;
  const double t_hot = simulate(topo, cost, w, hotspot).total_seconds;
  EXPECT_GT(t_hot, 2.0 * t_spread);
}

TEST(Simulate, UnmanagedControlPaysPenalty) {
  const auto topo = topo::Topology::flat(2);
  LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  w.threads = {{0.0, 0.0, 1000}};  // 1000 acquires, nothing else
  Placement managed = fixed_at({0});
  managed.control_pu = {0};
  Placement unmanaged = fixed_at({0});
  unmanaged.control_pu = {-1};
  const double t_managed = simulate(topo, cost, w, managed).total_seconds;
  const double t_unmanaged =
      simulate(topo, cost, w, unmanaged).total_seconds;
  EXPECT_GT(t_unmanaged, t_managed);
  // The managed path pays the (tiny) same-PU latency instead of the
  // penalty; the difference is the penalty minus that latency.
  EXPECT_NEAR(t_unmanaged - t_managed,
              1000 * (cost.unmanaged_grant_penalty - cost.latency.back()),
              1e-9);
}

TEST(Simulate, SpinWaitsDiscountParkWakeLatency) {
  // A spinning waiter consumes its grant without the futex park/wake
  // pair, so spin_waits workloads pay grant_overhead minus the measured
  // park+wake latencies (bench/micro_orwl_overhead's
  // park_wake_calibration cases). Block workloads — the recorded-baseline
  // configuration — must be bit-identical with the discount code in the
  // tree.
  const auto topo = topo::Topology::flat(2);
  LinkCost cost = LinkCost::defaults_for(topo);
  Workload blocking;
  blocking.threads = {{0.0, 0.0, 1000}};
  Workload spinning = blocking;
  spinning.spin_waits = true;
  Placement managed = fixed_at({0});
  managed.control_pu = {0};
  const Report rb = simulate(topo, cost, blocking, managed);
  const Report rs = simulate(topo, cost, spinning, managed);
  EXPECT_LT(rs.lock_seconds, rb.lock_seconds);
  EXPECT_NEAR(rb.lock_seconds - rs.lock_seconds,
              1000 * (cost.park_latency + cost.wake_latency), 1e-12);

  // The discount is floored at a quarter of the grant overhead: queue
  // work and announcement stay charged even if a host measured a
  // park/wake pair larger than the whole overhead.
  LinkCost extreme = cost;
  extreme.park_latency = cost.grant_overhead;
  extreme.wake_latency = cost.grant_overhead;
  const Report rf = simulate(topo, extreme, spinning, managed);
  EXPECT_NEAR(rf.lock_seconds,
              1000 * (0.25 * cost.grant_overhead + cost.latency.back()),
              1e-12);
}

TEST(Simulate, BarrierCostOnlyForForkJoin) {
  const auto topo = topo::Topology::flat(8);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 8; ++i) w.threads.push_back({0.0, 0.0, 0});
  Placement p = fixed_at({0, 1, 2, 3, 4, 5, 6, 7});
  w.sync = SyncModel::OrwlEvents;
  const double t_orwl = simulate(topo, cost, w, p).total_seconds;
  w.sync = SyncModel::ForkJoinBarrier;
  const double t_fj = simulate(topo, cost, w, p).total_seconds;
  EXPECT_EQ(t_orwl, 0.0);
  EXPECT_GT(t_fj, 0.0);
}

TEST(Simulate, UnboundPlacementDeterministicInSeed) {
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 8; ++i) w.threads.push_back({1e6, 1e6, 0});
  w.iterations = 10;
  Placement p;
  p.compute_pu.assign(8, -1);
  p.control_pu.assign(8, -1);
  p.data_home_pu.assign(8, 0);
  const double a = simulate(topo, cost, w, p, 42).total_seconds;
  const double b = simulate(topo, cost, w, p, 42).total_seconds;
  EXPECT_EQ(a, b);
}

TEST(Simulate, TwoChoicesBalanceBetterThanOne) {
  // Power-of-two-choices must produce lower peak PU load than uniform
  // placement for many unbound equal threads.
  const auto topo = topo::Topology::synthetic("pack:4 core:8 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 32; ++i) w.threads.push_back({1e6, 0.0, 0});
  w.iterations = 20;
  Placement p;
  p.compute_pu.assign(32, -1);
  p.control_pu.assign(32, -1);
  p.data_home_pu.assign(32, 0);
  p.stickiness = 0.0;
  p.choices = 2;
  const Report po2 = simulate(topo, cost, w, p, 3);
  p.choices = 1;
  const Report uniform = simulate(topo, cost, w, p, 3);
  EXPECT_LE(po2.max_pu_load, uniform.max_pu_load);
  EXPECT_LE(po2.total_seconds, uniform.total_seconds * 1.0001);
}

TEST(Simulate, RejectsBadChoices) {
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w = one_thread(1.0, 1.0);
  Placement p = fixed_at({0});
  p.choices = 3;
  EXPECT_THROW(simulate(topo, cost, w, p), ContractError);
}

TEST(Simulate, InputValidation) {
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w = one_thread(1.0, 1.0);
  Placement p = fixed_at({0});
  p.compute_pu.clear();
  EXPECT_THROW(simulate(topo, cost, w, p), ContractError);
  p = fixed_at({0});
  w.edges.push_back({0, 0, 1.0});  // self edge
  EXPECT_THROW(simulate(topo, cost, w, p), ContractError);
}

// --- Figure 1 model sanity -------------------------------------------------

TEST(Lk23Model, BlockGridFactorizes) {
  EXPECT_EQ(block_grid(192), (std::pair<int, int>{16, 12}));
  EXPECT_EQ(block_grid(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(block_grid(7), (std::pair<int, int>{7, 1}));
  EXPECT_EQ(block_grid(1), (std::pair<int, int>{1, 1}));
}

TEST(Lk23Model, OrwlWorkloadShape) {
  const auto topo = topo::Topology::paper_machine();
  Lk23SimSpec spec;
  spec.tasks = 16;  // 4x4 grid
  spec.matrix_n = 1024;
  spec.iterations = 1;
  const Lk23Model m = build_lk23_model(Lk23Impl::OrwlNoBind, topo, spec);
  // Paper decomposition: every block has 1 main + exactly 8 frontier ops.
  EXPECT_EQ(m.num_threads, 16 * 9);
  EXPECT_EQ(m.load.sync, SyncModel::OrwlEvents);
  // NoBind: everything unbound.
  for (int pu : m.place.compute_pu) EXPECT_EQ(pu, -1);
}

TEST(Lk23Model, BindMapsEveryThread) {
  const auto topo = topo::Topology::paper_machine();
  Lk23SimSpec spec;
  spec.tasks = 16;
  spec.matrix_n = 1024;
  spec.iterations = 1;
  const Lk23Model m = build_lk23_model(Lk23Impl::OrwlBind, topo, spec);
  for (int pu : m.place.compute_pu) {
    EXPECT_GE(pu, 0);
    EXPECT_LT(pu, topo.num_pus());
  }
  // Bound owners first-touch their data locally.
  EXPECT_EQ(m.place.data_home_pu, m.place.compute_pu);
}

TEST(Lk23Model, Figure1OrderingAtFullMachine) {
  // The headline property: at 192 cores, Bind < NoBind < OpenMP.
  const auto topo = topo::Topology::paper_machine();
  const LinkCost cost = LinkCost::defaults_for(topo);
  Lk23SimSpec spec;  // full paper spec: 16384^2, 100 iterations, 192 tasks
  spec.iterations = 10;  // 10 iterations are enough for the ordering
  const double bind =
      simulate_lk23(Lk23Impl::OrwlBind, topo, cost, spec).total_seconds;
  const double nobind =
      simulate_lk23(Lk23Impl::OrwlNoBind, topo, cost, spec).total_seconds;
  const double openmp =
      simulate_lk23(Lk23Impl::OpenMP, topo, cost, spec).total_seconds;
  EXPECT_LT(bind, nobind);
  EXPECT_LT(nobind, openmp);
}

// ---------------------------------------------------------------------------
// Calibration records (sim/calibration.h)
// ---------------------------------------------------------------------------

TEST(Calibration, FormatLoadRoundTrip) {
  CalibrationRecord rec;
  rec.host = "Test CPU @ 1.00GHz | 4 PUs | 1 NUMA nodes | L3 16384K | "
             "kernel 6.1.0";
  rec.park_wake_pair_seconds = 2.5e-7;
  rec.grant_batch_overhead_seconds = 1.25e-6;
  const std::string path = ::testing::TempDir() + "orwl_cal_roundtrip.txt";
  {
    std::ofstream out(path);
    out << format_calibration(rec);
  }
  const auto back = load_calibration_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->host, rec.host);
  EXPECT_DOUBLE_EQ(back->park_wake_pair_seconds, rec.park_wake_pair_seconds);
  EXPECT_DOUBLE_EQ(back->grant_batch_overhead_seconds,
                   rec.grant_batch_overhead_seconds);
}

TEST(Calibration, UnknownKeysAndCommentsIgnored) {
  const std::string path = ::testing::TempDir() + "orwl_cal_forward.txt";
  {
    std::ofstream out(path);
    out << "# a comment line\n"
        << "host box42  # trailing comment\n"
        << "\n"
        << "some_future_key 123\n"
        << "park_wake_pair_seconds 1e-7\n";
  }
  const auto rec = load_calibration_file(path);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->host, "box42");
  EXPECT_DOUBLE_EQ(rec->park_wake_pair_seconds, 1e-7);
  EXPECT_DOUBLE_EQ(rec->grant_batch_overhead_seconds, 0.0)
      << "unmeasured fields keep their no-effect defaults";
}

TEST(Calibration, RejectsBadRecords) {
  // Missing file.
  EXPECT_FALSE(load_calibration_file("/nonexistent/orwl_cal.txt"));
  const std::string path = ::testing::TempDir() + "orwl_cal_bad.txt";
  // No host fingerprint: the record cannot be matched to a machine.
  {
    std::ofstream out(path);
    out << "park_wake_pair_seconds 1e-7\n";
  }
  EXPECT_FALSE(load_calibration_file(path));
  // Negative measurement: corrupt.
  {
    std::ofstream out(path);
    out << "host box\npark_wake_pair_seconds -1e-7\n";
  }
  EXPECT_FALSE(load_calibration_file(path));
  // Unparsable value.
  {
    std::ofstream out(path);
    out << "host box\ngrant_batch_overhead_seconds banana\n";
  }
  EXPECT_FALSE(load_calibration_file(path));
  // Empty fingerprint.
  {
    std::ofstream out(path);
    out << "host   # nothing but a comment\npark_wake_pair_seconds 1e-7\n";
  }
  EXPECT_FALSE(load_calibration_file(path));
}

TEST(Calibration, HostFingerprintNamesTheMachine) {
  // A fabricated sysfs/procfs pair: 4 PUs on 2 NUMA nodes, an L1 and an
  // L3 listed for cpu0.
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "orwl_fingerprint";
  fs::remove_all(root);
  const auto write = [&root](const std::string& rel, const std::string& text) {
    fs::create_directories((root / rel).parent_path());
    std::ofstream(root / rel) << text;
  };
  write("sys/devices/system/cpu/online", "0-3\n");
  for (int cpu = 0; cpu < 4; ++cpu) {
    const std::string dir =
        "sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    write(dir + "physical_package_id", "0\n");
    write(dir + "core_id", std::to_string(cpu) + "\n");
  }
  write("sys/devices/system/node/node0/cpulist", "0-1\n");
  write("sys/devices/system/node/node1/cpulist", "2-3\n");
  write("sys/devices/system/cpu/cpu0/cache/index0/level", "1\n");
  write("sys/devices/system/cpu/cpu0/cache/index0/size", "32K\n");
  write("sys/devices/system/cpu/cpu0/cache/index3/level", "3\n");
  write("sys/devices/system/cpu/cpu0/cache/index3/size", "16384K\n");
  write("proc/cpuinfo",
        "processor\t: 0\nmodel name\t: Test CPU @ 1.00GHz\n");
  write("proc/sys/kernel/osrelease", "6.1.0-test\n");
  EXPECT_EQ(host_fingerprint((root / "sys").string(),
                             (root / "proc").string()),
            "Test CPU @ 1.00GHz | 4 PUs | 2 NUMA nodes | L3 16384K | "
            "kernel 6.1.0-test");
  // Nothing readable: every field says so, and the host counts as one node.
  EXPECT_EQ(host_fingerprint((root / "absent").string(),
                             (root / "absent").string()),
            "unknown | unknown PUs | 1 NUMA nodes | L3 unknown | "
            "kernel unknown");
  fs::remove_all(root);
  // The live host's fingerprint is computed once and cached.
  EXPECT_EQ(&host_fingerprint(), &host_fingerprint());
  EXPECT_NE(host_fingerprint().find(" PUs | "), std::string::npos);
}

TEST(Calibration, DefaultsKeepBatchOverheadEqualToGrantOverhead) {
  // The bit-identity contract: without an activated calibration record the
  // batch overhead must EQUAL the grant overhead, so the batched-acquire
  // branch in simulate() charges nothing extra (and recorded sim numbers
  // never move). The ctest environment never sets ORWL_CALIBRATION.
  const auto topo = topo::Topology::paper_machine();
  const LinkCost cost = LinkCost::defaults_for(topo);
  EXPECT_EQ(cost.grant_batch_overhead, cost.grant_overhead);
}

TEST(Simulate, BatchedAcquiresBitIdenticalWithoutCalibration) {
  // batched_acquires is dormant while the two overheads are equal: the
  // reports must be byte-for-byte identical, not just close.
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload plain = one_thread(1e6, 1e6);
  plain.threads[0].acquires = 8;
  Workload batched = plain;
  batched.threads[0].batched_acquires = 6;
  const Placement p = fixed_at({0});
  const Report a = simulate(topo, cost, plain, p);
  const Report b = simulate(topo, cost, batched, p);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.lock_seconds, b.lock_seconds);
}

TEST(Simulate, BatchDiscountAppliesWhenOverheadsDiffer) {
  // With a (calibrated) cheaper batch overhead, batched acquisitions cost
  // less — and the batched count is clamped to the acquire count.
  const auto topo = topo::Topology::flat(2);
  LinkCost cost = LinkCost::defaults_for(topo);
  cost.grant_batch_overhead = cost.grant_overhead / 2.0;
  Workload plain = one_thread(0.0, 0.0);
  plain.threads[0].acquires = 8;
  Workload batched = plain;
  batched.threads[0].batched_acquires = 6;
  Workload clamped = plain;
  clamped.threads[0].batched_acquires = 100;  // > acquires: clamp to 8
  const Placement p = fixed_at({0});
  const double lock_plain = simulate(topo, cost, plain, p).lock_seconds;
  const double lock_batched = simulate(topo, cost, batched, p).lock_seconds;
  const double lock_clamped = simulate(topo, cost, clamped, p).lock_seconds;
  EXPECT_LT(lock_batched, lock_plain);
  EXPECT_NEAR(lock_plain - lock_batched,
              6 * (cost.grant_overhead - cost.grant_batch_overhead), 1e-15);
  EXPECT_NEAR(lock_plain - lock_clamped,
              8 * (cost.grant_overhead - cost.grant_batch_overhead), 1e-15);
}

TEST(Lk23Model, BindScalesBeyondTwoSockets) {
  // "As soon as we scale beyond one or two sockets, standard approaches
  // fail to improve" — Bind must keep improving from 16 to 64 cores.
  const auto topo = topo::Topology::paper_machine();
  const LinkCost cost = LinkCost::defaults_for(topo);
  Lk23SimSpec spec;
  spec.iterations = 5;
  spec.tasks = 16;
  const double t16 =
      simulate_lk23(Lk23Impl::OrwlBind, topo, cost, spec).total_seconds;
  spec.tasks = 64;
  const double t64 =
      simulate_lk23(Lk23Impl::OrwlBind, topo, cost, spec).total_seconds;
  EXPECT_LT(t64, t16 / 2.0);
}

}  // namespace
}  // namespace orwl::sim
