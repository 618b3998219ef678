// Tests for the benchmark harness: median/MAD statistics on known
// samples, JSON writer correctness, the end-to-end case driver on the sim
// backend, the BENCH_*.json schema, and the paper's acceptance property —
// TreeMatch fed the MEASURED matrix is no slower than unplaced execution
// on the simulated paper machine, for every registered workload.

#include <gtest/gtest.h>

#include <sstream>

#include "harness/bench.h"
#include "harness/json.h"
#include "harness/stats.h"
#include "support/assert.h"
#include "workloads/workloads.h"

namespace orwl::harness {
namespace {

TEST(Stats, MedianOfKnownSamples) {
  EXPECT_EQ(median_of({}), 0.0);
  EXPECT_EQ(median_of({7.0}), 7.0);
  EXPECT_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median_of({1.0, 100.0, 2.0, 3.0, 4.0}), 3.0);
}

TEST(Stats, SummarizeKnownSamples) {
  // The outlier (100) must not drag median/MAD, unlike mean.
  const Stats s = summarize({1.0, 2.0, 3.0, 4.0, 100.0});
  EXPECT_EQ(s.samples, 5);
  EXPECT_EQ(s.median, 3.0);
  EXPECT_EQ(s.mad, 1.0);  // |dev| = {2,1,0,1,97} -> median 1
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
}

TEST(Stats, SummarizeEmptyIsAllZero) {
  const Stats s = summarize({});
  EXPECT_EQ(s.samples, 0);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.mad, 0.0);
}

TEST(Json, WritesNestedStructures) {
  std::ostringstream os;
  {
    JsonWriter json(os);
    json.begin_object();
    json.member("name", "bench \"quoted\"");
    json.member("count", 3);
    json.member("ok", true);
    json.begin_array("values");
    json.element(1.5);
    json.element(std::string("two"));
    json.end_array();
    json.begin_object("nested");
    json.null_member("nothing");
    json.end_object();
    json.end_object();
  }
  const std::string got = os.str();
  EXPECT_NE(got.find("\"name\": \"bench \\\"quoted\\\"\""), std::string::npos)
      << got;
  EXPECT_NE(got.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(got.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(got.find("\"nothing\": null"), std::string::npos);
  EXPECT_EQ(got.front(), '{');
  EXPECT_EQ(got.back(), '}');
}

TEST(Json, EscapesControlCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\nb\t\"c\"\\"), "a\\nb\\t\\\"c\\\"\\\\");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

/// Structural JSON sanity: braces/brackets balance outside of strings and
/// there are no trailing commas — enough to catch writer bugs without a
/// full parser.
void expect_balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  char prev_significant = 0;
  for (const char c : s) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') { in_string = true; prev_significant = c; continue; }
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      EXPECT_NE(prev_significant, ',') << "trailing comma in:\n" << s;
      --depth;
      EXPECT_GE(depth, 0);
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev_significant = c;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0) << "unbalanced JSON:\n" << s;
}

CaseSpec tiny_case(const std::string& workload) {
  CaseSpec spec;
  spec.workload = workload;
  spec.params = {.tasks = 4, .size = 16, .iterations = 3};
  spec.backend = "sim";
  spec.topo_spec = "pack:2 core:2 pu:1";
  spec.warmup = 0;
  spec.repetitions = 2;
  return spec;
}

TEST(Harness, RunCaseOnSimBackendVerifies) {
  CaseSpec spec = tiny_case("stencil2d");
  spec.policy = place::Policy::Compact;
  const CaseResult res = run_case(spec);
  EXPECT_EQ(res.num_tasks, 4);
  EXPECT_EQ(res.time.samples, 2);
  EXPECT_GT(res.time.median, 0.0);
  EXPECT_GT(res.grants, 0u);
  EXPECT_TRUE(res.placed);
  EXPECT_TRUE(res.verify_ran);
  EXPECT_TRUE(res.verified) << res.verify_error;
  EXPECT_FALSE(res.feedback.ran);
}

TEST(Harness, UnknownNamesThrow) {
  CaseSpec spec = tiny_case("stencil2d");
  spec.workload = "no-such-workload";
  EXPECT_THROW((void)run_case(spec), ContractError);
  spec = tiny_case("stencil2d");
  spec.backend = "gpu";
  EXPECT_THROW((void)run_case(spec), ContractError);
}

TEST(Harness, SweepCoversThePolicyBackendGrid) {
  CaseSpec base = tiny_case("pipeline");
  base.verify = false;
  const std::vector<CaseResult> results = run_sweep(
      base, {place::Policy::None, place::Policy::Compact}, {"sim"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].spec.policy, place::Policy::None);
  EXPECT_EQ(results[1].spec.policy, place::Policy::Compact);
  // `placed` records that a policy ran — Policy::None runs too (and
  // produces an all-unbound plan).
  EXPECT_TRUE(results[0].placed);
  EXPECT_TRUE(results[1].placed);
  EXPECT_GT(results[0].time.median, 0.0);
  EXPECT_GT(results[1].time.median, 0.0);
}

TEST(Harness, JsonSchemaGolden) {
  CaseSpec spec = tiny_case("wavefront");
  spec.feedback = true;
  const CaseResult res = run_case(spec);
  std::ostringstream os;
  write_json(os, {res});
  const std::string got = os.str();
  expect_balanced_json(got);
  for (const char* key :
       {"\"context\"", "\"date\"", "\"host_fingerprint\"", "\"harness_schema\"",
        "\"benchmarks\"", "\"name\"", "\"workload\"", "\"backend\"",
        "\"policy\"", "\"topology\"", "\"tasks\"", "\"size\"",
        "\"iterations\"", "\"num_tasks\"", "\"warmup\"", "\"repetitions\"",
        "\"grants\"", "\"placed\"", "\"seconds_median\"", "\"seconds_mad\"",
        "\"seconds_mean\"", "\"seconds_min\"", "\"seconds_max\"",
        "\"verify_ran\"", "\"verified\"", "\"feedback\"",
        "\"speedup_vs_static\"", "\"measured_bytes\""}) {
    EXPECT_NE(got.find(key), std::string::npos)
        << "missing key " << key << " in:\n" << got;
  }
  EXPECT_NE(got.find("\"name\": \"wavefront/sim/treematch/feedback\""),
            std::string::npos)
      << got;
}

TEST(Harness, FeedbackRunsEndToEndOnRuntimeBackend) {
  CaseSpec spec = tiny_case("alltoall");
  spec.backend = "runtime";
  spec.topo_spec.clear();
  spec.feedback = true;
  const CaseResult res = run_case(spec);
  EXPECT_TRUE(res.feedback.ran);
  EXPECT_GT(res.feedback.time.median, 0.0);
  EXPECT_GT(res.feedback.measured_bytes, 0.0);
  EXPECT_TRUE(res.verified) << res.verify_error;
}

// The paper's claim, as an invariant: for EVERY registered workload on the
// simulated paper machine, re-placing with TreeMatch on the measured flow
// matrix is no slower than leaving threads to the scheduler lottery.
TEST(Harness, FeedbackNoSlowerThanNoneOnPaperMachine) {
  for (const workloads::Workload& w : workloads::registry()) {
    CaseSpec spec = tiny_case(w.name);
    spec.topo_spec.clear();  // paper machine
    spec.policy = place::Policy::None;
    spec.feedback = true;
    const CaseResult res = run_case(spec);
    EXPECT_TRUE(res.feedback.ran) << w.name;
    EXPECT_TRUE(res.verified) << w.name << ": " << res.verify_error;
    EXPECT_LE(res.feedback.time.median, res.time.median * 1.001)
        << w.name << ": feedback " << res.feedback.time.median
        << " s vs unplaced " << res.time.median << " s";
    EXPECT_GE(res.feedback.speedup, 1.0) << w.name;
  }
}

}  // namespace
}  // namespace orwl::harness
