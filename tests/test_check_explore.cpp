// Tests for the schedule-exploration harness (src/check, docs/TESTING.md):
// PCT perturbation determinism, scenario checking, the seeded-bug
// find+shrink pipeline, hmps-repro-v1 round-tripping, and the bounded
// complete checker.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "check/explore.hpp"
#include "check/gen.hpp"
#include "check/perturb.hpp"
#include "check/repro.hpp"
#include "harness/history.hpp"
#include "harness/record.hpp"

namespace hmps {
namespace {

using harness::Construction;
using harness::Object;

check::Scenario base_scenario() {
  check::Scenario s;
  s.cfg.construction = Construction::kCcSynch;
  s.cfg.object = Object::kQueue;
  s.cfg.seed = 71;
  s.cfg.threads = 4;
  s.cfg.ops_each = 6;
  s.cfg.max_ops = 4;
  s.cfg.think_max = 30;
  s.perturb.seed = 901;
  s.perturb.nthreads = 4;
  s.perturb.change_points = 2;
  s.perturb.change_interval = 40'000;
  s.perturb.resume_permille = 150;
  s.perturb.delay_unit = 300;
  s.perturb.point_permille = 250;
  s.perturb.point_delay_max = 4'000;
  check::clamp_cfg(s.cfg);
  return s;
}

// ---- PctPerturber ----

TEST(PctPerturber, SamePlanSameDecisionStream) {
  check::PerturbPlan plan;
  plan.seed = 42;
  plan.nthreads = 6;
  plan.change_points = 3;
  plan.change_interval = 1'000;
  plan.resume_permille = 400;
  plan.delay_unit = 50;
  plan.point_permille = 300;
  plan.point_delay_max = 700;
  check::PctPerturber a(plan), b(plan);
  for (std::uint32_t i = 0; i < 500; ++i) {
    const sim::Cycle t = i * 17;
    EXPECT_EQ(a.resume_delay(i % 6, t), b.resume_delay(i % 6, t)) << i;
    EXPECT_EQ(a.point_delay(i % 6, i % 4, "x", t),
              b.point_delay(i % 6, i % 4, "x", t))
        << i;
  }
  EXPECT_EQ(a.decisions(), b.decisions());
  EXPECT_EQ(a.decisions(), 1000u);
}

TEST(PctPerturber, DisabledPlanInjectsNothing) {
  check::PerturbPlan plan;  // all levers zero
  plan.nthreads = 4;
  EXPECT_FALSE(plan.enabled());
  check::PctPerturber p(plan);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(p.resume_delay(i % 4, i * 11), 0u);
    EXPECT_EQ(p.point_delay(i % 4, 0, "x", i * 11), 0u);
  }
}

// ---- record_history determinism under perturbation ----

TEST(RecordHistory, PerturbedRunReplaysBitIdentically) {
  const check::Scenario s = base_scenario();
  // Simulated timing is independent of host heap layout: line homes come
  // from dense first-touch ids and every simulated arena is cache-line
  // aligned (runtime/aligned.hpp) — before the arenas were aligned, the
  // queue arena's base mod 64 set the node/line packing and this test
  // flaked whenever the allocator returned differently-aligned arenas to
  // the two measured runs. The warm-up run and the pre-reserved comparison
  // buffer are kept anyway so the two runs also see identical allocator
  // state, keeping the test a tight bit-identical-replay check rather
  // than one that depends on malloc internals staying idempotent.
  check::PctPerturber warm(s.perturb), p1(s.perturb), p2(s.perturb);
  std::vector<harness::OpRecord> first;
  first.reserve(4096);
  harness::record_history(s.cfg, &warm);
  sim::Cycle end_a = 0;
  {
    const harness::RecordResult a = harness::record_history(s.cfg, &p1);
    ASSERT_TRUE(a.completed);
    ASSERT_LE(a.history.size(), first.capacity());
    end_a = a.end_time;
    first.assign(a.history.begin(), a.history.end());  // no reallocation
  }
  const harness::RecordResult b = harness::record_history(s.cfg, &p2);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(end_a, b.end_time);
  ASSERT_EQ(first.size(), b.history.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].thread, b.history[i].thread) << i;
    EXPECT_EQ(first[i].kind, b.history[i].kind) << i;
    EXPECT_EQ(first[i].arg, b.history[i].arg) << i;
    EXPECT_EQ(first[i].ret, b.history[i].ret) << i;
    EXPECT_EQ(first[i].invoke, b.history[i].invoke) << i;
    EXPECT_EQ(first[i].response, b.history[i].response) << i;
  }
}

TEST(RecordHistory, PerturbationActuallyChangesTheSchedule) {
  const check::Scenario s = base_scenario();
  check::PctPerturber p(s.perturb);
  const harness::RecordResult with = harness::record_history(s.cfg, &p);
  const harness::RecordResult without = harness::record_history(s.cfg);
  ASSERT_TRUE(with.completed);
  ASSERT_TRUE(without.completed);
  // The injected stalls must be visible in the timing (schedule changed).
  EXPECT_NE(with.end_time, without.end_time);
}

// ---- run_scenario ----

TEST(RunScenario, CleanConstructionHasNoViolation) {
  const check::Violation v = check::run_scenario(base_scenario());
  EXPECT_FALSE(v.found) << "[" << v.kind << "] " << v.detail;
}

TEST(RunScenario, TooSmallHorizonReportsHang) {
  check::Scenario s = base_scenario();
  s.cfg.horizon = 5'000;  // far too small for 4x6 ops
  const check::Violation v = check::run_scenario(s);
  ASSERT_TRUE(v.found);
  EXPECT_EQ(v.kind, "hang");
}

TEST(RunScenario, SeededHybCombBugIsDetected) {
  check::Scenario s = base_scenario();
  s.cfg.construction = Construction::kHybComb;
  s.cfg.object = Object::kCounter;
  s.cfg.threads = 4;
  s.cfg.ops_each = 8;
  s.cfg.hyb_bug_drop_every = 2;  // drop every 2nd combined request
  const check::Violation v = check::run_scenario(s);
  ASSERT_TRUE(v.found) << "lost updates must fail the counter checks";
  EXPECT_TRUE(v.kind == "counter" || v.kind == "lin") << v.kind;
}

// ---- explore + shrink end to end ----

TEST(Explore, FindsAndShrinksSeededBug) {
  check::ExploreCfg cfg;
  cfg.seed = 5;
  cfg.budget_seconds = 0;  // bounded by max_schedules only
  cfg.max_schedules = 300;
  cfg.constructions = {Construction::kHybComb};
  cfg.objects = {Object::kCounter};
  cfg.hyb_bug_drop_every = 3;
  const check::ExploreResult r = check::explore(cfg);
  ASSERT_TRUE(r.violation_found)
      << "seeded bug not found in " << r.schedules_run << " schedules";
  EXPECT_TRUE(r.shrunk_violation.found);
  EXPECT_LE(r.shrunk.cfg.threads, 4u);
  EXPECT_LE(r.shrunk.cfg.ops_each, 8u);
  EXPECT_GT(r.shrink_runs, 0u);
  // The shrunk scenario is a standalone deterministic repro.
  const check::Violation v1 = check::run_scenario(r.shrunk);
  const check::Violation v2 = check::run_scenario(r.shrunk);
  ASSERT_TRUE(v1.found);
  EXPECT_EQ(v1.kind, v2.kind);
  EXPECT_EQ(v1.detail, v2.detail);
}

TEST(Explore, CleanSubsetStaysClean) {
  check::ExploreCfg cfg;
  cfg.seed = 9;
  cfg.budget_seconds = 0;
  cfg.max_schedules = 40;
  cfg.constructions = {Construction::kCcSynch, Construction::kMcsLock};
  cfg.objects = {Object::kCounter, Object::kQueue};
  const check::ExploreResult r = check::explore(cfg);
  EXPECT_EQ(r.schedules_run, 40u);
  EXPECT_FALSE(r.violation_found)
      << "[" << r.violation.kind << "] " << r.violation.detail;
  EXPECT_GT(r.ops_checked, 0u);
}

// A complete search that runs out of its node budget passes the history
// without validating it; explore counts those searches. With random
// machines, seed 7's third schedule records a history whose search
// exhausts the 400k-node budget.
TEST(Explore, CountsInconclusiveSearches) {
  check::ExploreCfg cfg;
  cfg.seed = 7;
  cfg.budget_seconds = 0;
  cfg.max_schedules = 3;
  cfg.fuzz_machines = true;
  cfg.jobs = 1;
  const check::ExploreResult r = check::explore(cfg);
  EXPECT_EQ(r.schedules_run, 3u);
  EXPECT_FALSE(r.violation_found)
      << "[" << r.violation.kind << "] " << r.violation.detail;
  EXPECT_EQ(r.inconclusive, 1u);
}

// ---- hmps-repro-v1 ----

TEST(Repro, RoundTripPreservesScenario) {
  check::Scenario s = base_scenario();
  s.cfg.params = check::random_machine(77);  // non-default machine
  s.cfg.faults.seed = 99;
  s.cfg.faults.delay_permille = 120;
  s.cfg.faults.delay_min = 10;
  s.cfg.faults.delay_max = 500;
  s.cfg.hyb_bug_drop_every = 3;
  check::Violation v;
  v.found = true;
  v.kind = "counter";
  v.detail = "two increments returned the same value 7 (lost update)";

  const std::string json = check::repro_to_json(s, v);
  check::Scenario s2;
  check::Violation expect;
  std::string err;
  ASSERT_TRUE(check::repro_from_json(json, &s2, &expect, &err)) << err;

  EXPECT_EQ(s2.cfg.construction, s.cfg.construction);
  EXPECT_EQ(s2.cfg.object, s.cfg.object);
  EXPECT_EQ(s2.cfg.seed, s.cfg.seed);
  EXPECT_EQ(s2.cfg.threads, s.cfg.threads);
  EXPECT_EQ(s2.cfg.ops_each, s.cfg.ops_each);
  EXPECT_EQ(s2.cfg.max_ops, s.cfg.max_ops);
  EXPECT_EQ(s2.cfg.produce_permille, s.cfg.produce_permille);
  EXPECT_EQ(s2.cfg.think_max, s.cfg.think_max);
  EXPECT_EQ(s2.cfg.horizon, s.cfg.horizon);
  EXPECT_EQ(s2.cfg.hyb_bug_drop_every, s.cfg.hyb_bug_drop_every);
  EXPECT_EQ(s2.cfg.params.name, s.cfg.params.name);
  EXPECT_EQ(s2.cfg.params.mesh_w, s.cfg.params.mesh_w);
  EXPECT_EQ(s2.cfg.params.mesh_h, s.cfg.params.mesh_h);
  EXPECT_EQ(s2.cfg.params.udn_buf_words, s.cfg.params.udn_buf_words);
  EXPECT_EQ(s2.cfg.params.ctrl_op_cas, s.cfg.params.ctrl_op_cas);
  EXPECT_EQ(s2.cfg.params.posted_writes, s.cfg.params.posted_writes);
  EXPECT_EQ(s2.cfg.faults.seed, s.cfg.faults.seed);
  EXPECT_EQ(s2.cfg.faults.delay_permille, s.cfg.faults.delay_permille);
  EXPECT_EQ(s2.cfg.faults.delay_max, s.cfg.faults.delay_max);
  EXPECT_EQ(s2.perturb.seed, s.perturb.seed);
  EXPECT_EQ(s2.perturb.nthreads, s.perturb.nthreads);
  EXPECT_EQ(s2.perturb.change_points, s.perturb.change_points);
  EXPECT_EQ(s2.perturb.change_interval, s.perturb.change_interval);
  EXPECT_EQ(s2.perturb.resume_permille, s.perturb.resume_permille);
  EXPECT_EQ(s2.perturb.delay_unit, s.perturb.delay_unit);
  EXPECT_EQ(s2.perturb.point_permille, s.perturb.point_permille);
  EXPECT_EQ(s2.perturb.point_delay_max, s.perturb.point_delay_max);
  EXPECT_TRUE(expect.found);
  EXPECT_EQ(expect.kind, v.kind);
  EXPECT_EQ(expect.detail, v.detail);

  // Serializing the parsed scenario again is a fixed point.
  EXPECT_EQ(check::repro_to_json(s2, expect), json);
}

TEST(Repro, RejectsMalformedInput) {
  check::Scenario s;
  check::Violation expect;
  std::string err;
  EXPECT_FALSE(check::repro_from_json("{", &s, &expect, &err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(check::repro_from_json("[1,2,3]", &s, &expect, &err));
  err.clear();
  EXPECT_FALSE(check::repro_from_json(
      R"({"format":"hmps-repro-v99","workload":{}})", &s, &expect, &err));
  EXPECT_NE(err.find("hmps-repro-v1"), std::string::npos) << err;
}

// A repro file is outside input: a machine with more memory controllers
// than the coherence model's per-controller table holds is rejected with an
// error instead of being simulated with two controllers sharing one busy
// timeline.
TEST(Repro, RejectsMemoryControllerCountOutsideModel) {
  check::Scenario base = base_scenario();
  for (std::uint32_t n : {0u, 9u, 1u, 8u}) {
    base.cfg.params.n_mem_ctrls = n;
    const std::string json = check::repro_to_json(base, check::Violation{});
    check::Scenario s;
    check::Violation expect;
    std::string err;
    const bool ok = check::repro_from_json(json, &s, &expect, &err);
    if (n >= 1 && n <= 8) {
      EXPECT_TRUE(ok) << n << ": " << err;
      EXPECT_EQ(s.cfg.params.n_mem_ctrls, n);
    } else {
      EXPECT_FALSE(ok) << n;
      EXPECT_NE(err.find("n_mem_ctrls"), std::string::npos) << err;
    }
  }
}

// The coherence model maps addresses to lines with a shift, and simulated
// arenas are only aligned to 64 bytes, so a line size that is not a power
// of two in [8, 64] is rejected the same way.
TEST(Repro, RejectsLineSizeOutsideModel) {
  check::Scenario base = base_scenario();
  for (std::uint32_t b : {0u, 48u, 128u, 8u, 64u}) {
    base.cfg.params.line_bytes = b;
    const std::string json = check::repro_to_json(base, check::Violation{});
    check::Scenario s;
    check::Violation expect;
    std::string err;
    const bool ok = check::repro_from_json(json, &s, &expect, &err);
    if (b == 8 || b == 64) {
      EXPECT_TRUE(ok) << b << ": " << err;
      EXPECT_EQ(s.cfg.params.line_bytes, b);
    } else {
      EXPECT_FALSE(ok) << b;
      EXPECT_NE(err.find("line_bytes"), std::string::npos) << err;
    }
  }
}

// A UDN buffer smaller than the largest message (a 3-word request) would
// block that message's sender forever, so such a machine is rejected.
TEST(Repro, RejectsUdnBufferBelowTheLargestMessage) {
  check::Scenario base = base_scenario();
  for (std::uint32_t w : {0u, 2u, 3u, 118u}) {
    base.cfg.params.udn_buf_words = w;
    const std::string json = check::repro_to_json(base, check::Violation{});
    check::Scenario s;
    check::Violation expect;
    std::string err;
    const bool ok = check::repro_from_json(json, &s, &expect, &err);
    if (w >= 3) {
      EXPECT_TRUE(ok) << w << ": " << err;
      EXPECT_EQ(s.cfg.params.udn_buf_words, w);
    } else {
      EXPECT_FALSE(ok) << w;
      EXPECT_NE(err.find("udn_buf_words"), std::string::npos) << err;
    }
  }
}

// ---- workload clamping (shared generator rules) ----

TEST(ClampCfg, ServerKindsKeepServerCoreUniprogrammed) {
  harness::RecordCfg cfg;
  cfg.construction = Construction::kMpServer;
  cfg.object = Object::kCounter;
  cfg.params = arch::MachineParams::tilegx36();
  cfg.threads = 63;
  check::clamp_cfg(cfg);
  EXPECT_LE(cfg.threads, cfg.params.cores() - 1);
  EXPECT_GE(cfg.params.udn_buf_words, 3 * cfg.threads + 8);
  // Idempotent: a valid cfg is untouched.
  harness::RecordCfg again = cfg;
  check::clamp_cfg(again);
  EXPECT_EQ(again.threads, cfg.threads);
  EXPECT_EQ(again.params.udn_buf_words, cfg.params.udn_buf_words);
}

TEST(ClampCfg, DirectObjectsIgnoreTheServerRule) {
  harness::RecordCfg cfg;
  cfg.construction = Construction::kMpServer;  // ignored for direct objects
  cfg.object = Object::kLcrq;
  cfg.params = arch::MachineParams::tilegx36();
  cfg.threads = 20;
  check::clamp_cfg(cfg);
  EXPECT_EQ(cfg.threads, 20u);
}

// ---- bounded complete checker ----

TEST(LinearizableBudget, ExhaustionIsInconclusiveNotAVerdict) {
  using harness::OpKind;
  using harness::OpRecord;
  // Three fully overlapping increments: linearizable, but the DFS needs
  // more than one node to prove it.
  std::vector<OpRecord> h = {
      {0, OpKind::kInc, 0, 2, 0, 100},
      {1, OpKind::kInc, 0, 1, 0, 100},
      {2, OpKind::kInc, 0, 0, 0, 100},
  };
  const auto tight = harness::linearizable(h, harness::counter_spec(), 1);
  EXPECT_TRUE(tight.ok);
  EXPECT_TRUE(tight.inconclusive) << tight.reason;
  const auto roomy = harness::linearizable(h, harness::counter_spec(), 10'000);
  EXPECT_TRUE(roomy.ok);
  EXPECT_FALSE(roomy.inconclusive);
}

TEST(LinearizableBudget, RealViolationStillFailsWithinBudget) {
  using harness::OpKind;
  using harness::OpRecord;
  std::vector<OpRecord> lost = {
      {0, OpKind::kInc, 0, 0, 0, 10},
      {1, OpKind::kInc, 0, 0, 5, 15},  // same pre-value twice
  };
  const auto r = harness::linearizable(lost, harness::counter_spec(), 10'000);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.inconclusive);
}

}  // namespace
}  // namespace hmps
