// Tests for the workload registry: lookup, per-workload result
// verification on both backends, re-run safety, and the parity between the
// flow matrix the runtime MEASURES and the analytic pattern each workload
// PREDICTS (comm/patterns.*) — the property the measured-matrix feedback
// placement relies on.

#include <gtest/gtest.h>

#include <algorithm>

#include "orwl/backend.h"
#include "support/assert.h"
#include "workloads/workloads.h"

namespace orwl::workloads {
namespace {

/// Small-but-nontrivial scale: a 2x2 block grid for the grid workloads,
/// several rounds so flows and pipelining actually happen.
Params tiny() { return {.tasks = 4, .size = 16, .iterations = 3}; }

TEST(Registry, ListsAtLeastFourWorkloads) {
  EXPECT_GE(registry().size(), 4u);
  const std::vector<std::string> got = names();
  for (const char* expected :
       {"lk23", "stencil2d", "wavefront", "alltoall", "pipeline"}) {
    EXPECT_NE(std::find(got.begin(), got.end(), expected), got.end())
        << "missing workload " << expected;
  }
}

TEST(Registry, FindAndGet) {
  ASSERT_NE(find("stencil2d"), nullptr);
  EXPECT_EQ(find("stencil2d")->name, "stencil2d");
  EXPECT_EQ(find("no-such-workload"), nullptr);
  EXPECT_EQ(get("lk23").name, "lk23");
  try {
    (void)get("no-such-workload");
    FAIL() << "get() on an unknown name did not throw";
  } catch (const ContractError& e) {
    // The error lists the registered names so CLI typos are actionable.
    EXPECT_NE(std::string(e.what()).find("no-such-workload"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stencil2d"), std::string::npos);
  }
}

TEST(Registry, BuildReportsTaskCountAndPredictedMatrix) {
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    EXPECT_EQ(built.num_tasks, p.num_tasks()) << w.name;
    EXPECT_EQ(built.predicted.order(), built.num_tasks) << w.name;
    EXPECT_TRUE(static_cast<bool>(built.verify)) << w.name;
  }
}

TEST(Workloads, VerifyOnRuntimeBackend) {
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    RuntimeBackend backend;
    p.run(backend);
    std::string why;
    EXPECT_TRUE(built.verify(backend, why)) << w.name << ": " << why;
  }
}

TEST(Workloads, VerifyOnSimBackendEmulation) {
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    SimBackendOptions opts;
    opts.emulate = true;
    const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
    SimBackend backend(topo.clone(), sim::LinkCost::defaults_for(topo), opts);
    const RunReport rep = p.run(backend);
    EXPECT_GT(rep.seconds, 0.0) << w.name;
    std::string why;
    EXPECT_TRUE(built.verify(backend, why)) << w.name << ": " << why;
  }
}

TEST(Workloads, ReRunningTheSameProgramStaysCorrect) {
  // Bodies must reset their captured state on Step::first(): the harness
  // re-runs one Program per repetition.
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    RuntimeBackend backend;
    p.run(backend);
    p.run(backend);
    std::string why;
    EXPECT_TRUE(built.verify(backend, why))
        << w.name << " after re-run: " << why;
  }
}

TEST(Workloads, MeasuredFlowsMatchPredictedSupport) {
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    RuntimeBackend backend;  // the runtime always records flows
    p.run(backend);
    const comm::CommMatrix measured =
        backend.runtime().measured_comm_matrix();
    ASSERT_EQ(measured.order(), built.predicted.order()) << w.name;
    for (int i = 0; i < measured.order(); ++i) {
      for (int j = i + 1; j < measured.order(); ++j) {
        EXPECT_EQ(measured.at(i, j) > 0.0, built.predicted.at(i, j) > 0.0)
            << w.name << ": tasks (" << i << ", " << j
            << ") measured=" << measured.at(i, j)
            << " predicted=" << built.predicted.at(i, j);
      }
    }
    EXPECT_GT(measured.total_volume(), 0.0) << w.name;
  }
}

// The oversubscription gate (ROADMAP stress tier): tasks far beyond the
// PU count — on the 1-PU CI hosts this is 32 compute + 32 control
// threads convoying on one core — must still verify bit-exactly, bound
// or unbound.
TEST(Workloads, OversubscriptionStressTasksFarBeyondPUs) {
  Program p;
  const Built built = get("oversub").build(
      p, {.tasks = 32, .size = 8, .iterations = 4});
  p.place(place::Policy::Compact);  // wraps all 32 tasks onto the real PUs
  RuntimeBackend backend;
  const RunReport rep = p.run(backend);
  EXPECT_TRUE(rep.placed);
  std::string why;
  EXPECT_TRUE(built.verify(backend, why)) << why;
}

TEST(Workloads, SingleTaskDegenerateCasesRun) {
  for (const char* name : {"alltoall", "pipeline", "oversub"}) {
    Program p;
    const Built built =
        get(name).build(p, {.tasks = 1, .size = 8, .iterations = 2});
    RuntimeBackend backend;
    p.run(backend);
    std::string why;
    EXPECT_TRUE(built.verify(backend, why)) << name << ": " << why;
  }
}

}  // namespace
}  // namespace orwl::workloads
