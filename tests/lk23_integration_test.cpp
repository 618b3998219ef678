// End-to-end integration tests: the ORWL and fork-join LK23
// implementations must reproduce the blocked reference bit-for-bit, under
// every placement policy and control mode.

#include <gtest/gtest.h>

#include "lk23/forkjoin_impl.h"
#include "lk23/kernel.h"
#include "lk23/orwl_impl.h"
#include "sim/lk23_model.h"

namespace orwl::lk23 {
namespace {

Spec small_spec() {
  Spec spec;
  spec.n = 64;
  spec.iterations = 6;
  spec.bx = 4;
  spec.by = 2;
  return spec;
}

TEST(OrwlLk23, MatchesBlockedReferenceBitwise) {
  const Spec spec = small_spec();
  const auto topo = topo::Topology::host();
  const OrwlRunResult res = run_orwl(spec, place::Policy::None, topo);
  const auto ref = blocked_reference(spec);
  EXPECT_EQ(max_abs_diff(res.za, ref), 0.0);
  // 8 blocks, each with a main op; frontier op count depends on geometry.
  EXPECT_GT(res.num_tasks, 8);
}

TEST(OrwlLk23, SingleBlockDegenerateCase) {
  Spec spec;
  spec.n = 32;
  spec.iterations = 4;
  spec.bx = 1;
  spec.by = 1;
  const auto topo = topo::Topology::host();
  const OrwlRunResult res = run_orwl(spec, place::Policy::None, topo);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
  EXPECT_EQ(res.num_tasks, 9)
      << "1 main + 8 frontier ops even without neighbours (paper Sec. III)";
}

TEST(OrwlLk23, ZeroIterations) {
  Spec spec = small_spec();
  spec.iterations = 0;
  const auto topo = topo::Topology::host();
  const OrwlRunResult res = run_orwl(spec, place::Policy::None, topo);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(OrwlLk23, AllPoliciesProduceIdenticalResults) {
  const Spec spec = small_spec();
  const auto topo = topo::Topology::host();
  const auto ref = blocked_reference(spec);
  for (place::Policy policy :
       {place::Policy::None, place::Policy::Compact, place::Policy::Scatter,
        place::Policy::Random, place::Policy::TreeMatch}) {
    const OrwlRunResult res = run_orwl(spec, policy, topo);
    EXPECT_EQ(max_abs_diff(res.za, ref), 0.0)
        << "policy " << place::to_string(policy)
        << " changed the numerics";
  }
}

TEST(OrwlLk23, DirectControlModeIdentical) {
  const Spec spec = small_spec();
  const auto topo = topo::Topology::host();
  RuntimeOptions direct;
  direct.control = RuntimeOptions::ControlMode::Direct;
  const OrwlRunResult res =
      run_orwl(spec, place::Policy::TreeMatch, topo, direct);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(OrwlLk23, StaticMatrixMatchesStencilStructure) {
  const Spec spec = small_spec();
  Runtime rt;
  const OrwlProgram prog = build_orwl_program(rt, spec);
  const comm::CommMatrix m = rt.static_comm_matrix();
  EXPECT_EQ(m.order(), prog.num_tasks);
  // Every main op communicates with its own frontier ops (they read the
  // block) — mains are tasks 0..7; all their rows must be non-empty.
  for (int b = 0; b < 8; ++b) {
    double row = 0.0;
    for (int j = 0; j < m.order(); ++j) row += m.at(b, j);
    EXPECT_GT(row, 0.0) << "main " << b << " communicates with nobody";
  }
}

TEST(OrwlLk23, MeasuredFlowsReflectIterations) {
  Spec spec;
  spec.n = 16;
  spec.iterations = 3;
  spec.bx = 2;
  spec.by = 1;
  const auto topo = topo::Topology::host();
  const OrwlRunResult res = run_orwl(spec, place::Policy::None, topo);
  // 2 blocks: mains (2) write T+1 times each; 2 frontier ops do 2 grants
  // per round.
  EXPECT_GT(res.grants, 0u);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(ForkJoinLk23, MatchesBlockedReferenceBitwise) {
  const Spec spec = small_spec();
  for (int threads : {1, 2, 4, 8}) {
    const ForkJoinRunResult res = run_forkjoin(spec, threads);
    EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0)
        << threads << " threads";
  }
}

TEST(ForkJoinLk23, BoundVariantIdentical) {
  const Spec spec = small_spec();
  const auto topo = topo::Topology::host();
  const ForkJoinRunResult res = run_forkjoin(spec, 4, &topo);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(ForkJoinLk23, MoreThreadsThanBlocks) {
  Spec spec;
  spec.n = 32;
  spec.iterations = 3;
  spec.bx = 2;
  spec.by = 1;
  const ForkJoinRunResult res = run_forkjoin(spec, 8);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(OrwlVsForkJoin, IdenticalFields) {
  const Spec spec = small_spec();
  const auto topo = topo::Topology::host();
  const auto orwl_res = run_orwl(spec, place::Policy::TreeMatch, topo);
  const auto fj_res = run_forkjoin(spec, 4);
  EXPECT_EQ(max_abs_diff(orwl_res.za, fj_res.za), 0.0);
}

TEST(OrwlLk23, ForeignTopologyBindingsFailGracefully) {
  // Planning against the paper's 192-core machine on a small host: the
  // cpusets name CPUs that do not exist, bind_current_thread returns
  // false, and the program must still run to the correct result.
  const Spec spec = small_spec();
  const auto paper = topo::Topology::paper_machine();
  const OrwlRunResult res = run_orwl(spec, place::Policy::TreeMatch, paper);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

// Parameterized sweep: (n, bx, by, iterations) — both parallel
// implementations must match the blocked reference bit-for-bit on every
// geometry, including degenerate strips.
using GeomParam = std::tuple<long, int, int, int>;
class GeometrySweep : public ::testing::TestWithParam<GeomParam> {};

TEST_P(GeometrySweep, OrwlAndForkJoinMatchReference) {
  const auto [n, bx, by, iters] = GetParam();
  Spec spec;
  spec.n = n;
  spec.bx = bx;
  spec.by = by;
  spec.iterations = iters;
  const auto ref = blocked_reference(spec);
  const auto topo = topo::Topology::host();
  const auto orwl_res = run_orwl(spec, place::Policy::TreeMatch, topo);
  EXPECT_EQ(max_abs_diff(orwl_res.za, ref), 0.0) << "ORWL diverged";
  const auto fj = run_forkjoin(spec, 4);
  EXPECT_EQ(max_abs_diff(fj.za, ref), 0.0) << "fork-join diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(GeomParam{32, 1, 1, 5}, GeomParam{32, 2, 2, 5},
                      GeomParam{32, 4, 1, 3}, GeomParam{32, 1, 4, 3},
                      GeomParam{64, 8, 8, 2}, GeomParam{48, 3, 2, 4},
                      GeomParam{64, 2, 4, 7}, GeomParam{16, 4, 4, 10}));

TEST(Directions, OppositeIsInvolution) {
  for (int d = 0; d < kDirs; ++d) {
    EXPECT_EQ(opposite(opposite(d)), d);
    const auto [dx, dy] = dir_delta(d);
    const auto [ox, oy] = dir_delta(opposite(d));
    EXPECT_EQ(dx, -ox);
    EXPECT_EQ(dy, -oy);
  }
}

}  // namespace
}  // namespace orwl::lk23
