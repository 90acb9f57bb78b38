// Tests for the benchmark harness itself: reporting, argument parsing, and
// — most importantly — the paper's qualitative shapes as executable
// assertions on small windows (the "who wins" relations of the evaluation).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string_view>
#include <vector>

#include "harness/report.hpp"
#include "harness/workload.hpp"

namespace hmps::harness {
namespace {

TEST(Report, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  const std::string path = "/tmp/hmps_test_table.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
  std::getline(f, line);
  EXPECT_EQ(line, "3,4");
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(100.0), "100.00");
}

TEST(Report, BenchArgsParse) {
  const char* argv[] = {"bench", "--full", "--csv", "out.csv", "--threads",
                        "12",    "--window", "5000", "--reps", "7",
                        "--seed", "99"};
  const BenchArgs a = BenchArgs::parse(12, const_cast<char**>(argv));
  EXPECT_TRUE(a.full);
  EXPECT_EQ(a.csv, "out.csv");
  EXPECT_EQ(a.threads, 12u);
  EXPECT_EQ(a.window, 5000u);
  EXPECT_EQ(a.reps, 7u);
  EXPECT_EQ(a.seed, 99u);
}

TEST(Report, BenchArgsDefaults) {
  const char* argv[] = {"bench"};
  const BenchArgs a = BenchArgs::parse(1, const_cast<char**>(argv));
  EXPECT_FALSE(a.full);
  EXPECT_TRUE(a.csv.empty());
  EXPECT_EQ(a.threads, 0u);
}

// Parses `flags` as a bench command line.
BenchArgs parse(std::vector<const char*> flags,
                std::initializer_list<std::string_view> bench_flags = {}) {
  flags.insert(flags.begin(), "bench");
  return BenchArgs::parse(static_cast<int>(flags.size()),
                          const_cast<char**>(flags.data()), bench_flags);
}

TEST(ReportDeathTest, BenchArgsRejectsWhatItCannotRead) {
  // "2e5" once ran 2-cycle windows and "--thread 1" the full default sweep.
  EXPECT_EXIT(parse({"--window", "2e5"}), testing::ExitedWithCode(2),
              "bad --window value '2e5'");
  EXPECT_EXIT(parse({"--thread", "1"}), testing::ExitedWithCode(2),
              "unknown flag '--thread'");
  EXPECT_EXIT(parse({"--reps", "-1"}), testing::ExitedWithCode(2),
              "bad --reps value");
  EXPECT_EXIT(parse({"--threads", "4294967296"}), testing::ExitedWithCode(2),
              "bad --threads value");
  EXPECT_EXIT(parse({"--seed"}), testing::ExitedWithCode(2),
              "missing value for --seed");
  EXPECT_EXIT(parse({"--mesh", "16x"}), testing::ExitedWithCode(2),
              "bad --mesh value");
  EXPECT_EXIT(parse({"--no-prefetch"}), testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(Report, BenchArgsPassesABenchsOwnFlags) {
  const BenchArgs a =
      parse({"--no-prefetch", "--reps", "2"}, {"--no-prefetch"});
  EXPECT_EQ(a.reps, 2u);
}

TEST(Report, BenchArgsRunCfgAppliesTheRunFlags) {
  RunCfg base;
  base.window = 150'000;
  base.reps = 1;
  const RunCfg kept = parse({}).run_cfg(base);
  EXPECT_EQ(kept.window, 150'000u);
  EXPECT_EQ(kept.reps, 1u);
  EXPECT_EQ(kept.machine.mesh_w, base.machine.mesh_w);
  const RunCfg c =
      parse({"--seed", "3", "--window", "5000", "--reps", "4", "--mesh",
             "16x8", "--noc", "--noc-combining", "--telemetry-window", "700"})
          .run_cfg(base);
  EXPECT_EQ(c.seed, 3u);
  EXPECT_EQ(c.window, 5000u);
  EXPECT_EQ(c.reps, 4u);
  EXPECT_EQ(c.machine.mesh_w, 16u);
  EXPECT_EQ(c.machine.mesh_h, 8u);
  EXPECT_TRUE(c.machine.model_link_contention);
  EXPECT_TRUE(c.machine.noc_combining);
  EXPECT_EQ(c.telemetry_window, 700u);
}

// ---- workload smoke + shape assertions (small windows) ----

RunCfg quick_cfg(std::uint32_t threads) {
  RunCfg cfg;
  cfg.app_threads = threads;
  cfg.warmup = 30'000;
  cfg.window = 60'000;
  cfg.reps = 2;
  return cfg;
}

TEST(Workload, CounterProducesSaneMetrics) {
  const RunResult r = run_counter(quick_cfg(8), Approach::kMpServer);
  EXPECT_GT(r.mops, 1.0);
  EXPECT_GT(r.lat_mean, 1.0);
  EXPECT_GE(r.fairness, 1.0);
  EXPECT_GT(r.total_ops, 100u);
  EXPECT_NEAR(r.msgs_per_op, 2.0, 0.2);  // request + response
}

TEST(Workload, PaperShapeCounterAt20Threads) {
  // The core qualitative result of Fig. 3a at a high concurrency level:
  // mp-server > HybComb > {shm-server, CC-Synch}, with mp-server at least
  // 3x shm-server.
  const RunCfg cfg = quick_cfg(20);
  const double mp = run_counter(cfg, Approach::kMpServer).mops;
  const double hyb = run_counter(cfg, Approach::kHybComb).mops;
  const double shm = run_counter(cfg, Approach::kShmServer).mops;
  const double cc = run_counter(cfg, Approach::kCcSynch).mops;
  EXPECT_GT(mp, hyb);
  EXPECT_GT(hyb, shm);
  EXPECT_GT(hyb, cc);
  EXPECT_GT(mp / shm, 3.0);
}

TEST(Workload, PaperShapeStallsVanishWithMessagePassing) {
  // Fig. 4a: the servicing thread's stall share is near zero for
  // mp-server and majority for the shared-memory approaches.
  RunCfg cfg = quick_cfg(20);
  const RunResult mp = run_counter(cfg, Approach::kMpServer);
  cfg.fixed_combiner = true;
  const RunResult cc = run_counter(cfg, Approach::kCcSynch);
  EXPECT_LT(mp.serv_stall_per_op, 2.0);
  EXPECT_GT(cc.serv_stall_per_op / cc.serv_total_per_op, 0.4);
}

TEST(Workload, PaperShapeMaxOpsHelpsHybCombOnly) {
  // Fig. 3c: HybComb keeps gaining from larger MAX_OPS; CC-Synch saturates.
  RunCfg lo = quick_cfg(20);
  lo.max_ops = 4;
  RunCfg hi = quick_cfg(20);
  hi.max_ops = 1000;
  const double hyb_lo = run_counter(lo, Approach::kHybComb).mops;
  const double hyb_hi = run_counter(hi, Approach::kHybComb).mops;
  const double cc_lo = run_counter(lo, Approach::kCcSynch).mops;
  const double cc_hi = run_counter(hi, Approach::kCcSynch).mops;
  EXPECT_GT(hyb_hi, 1.8 * hyb_lo);
  EXPECT_LT(cc_hi, 1.8 * cc_lo);
}

TEST(Workload, PaperShapeQueueRanking) {
  // Fig. 5a at moderate concurrency: one-lock mp-server queue beats the
  // one-lock shm-server queue and the two-lock variant.
  const RunCfg cfg = quick_cfg(16);
  const double mp1 = run_queue(cfg, QueueImpl::kMp1).mops;
  const double shm1 = run_queue(cfg, QueueImpl::kShm1).mops;
  const double mp2 = run_queue(cfg, QueueImpl::kMp2).mops;
  EXPECT_GT(mp1, shm1);
  EXPECT_GT(mp1, mp2);
}

TEST(Workload, PaperShapeStackRanking) {
  // Fig. 5b: the mp-server stack beats shm-server and Treiber.
  const RunCfg cfg = quick_cfg(16);
  const double mp = run_stack(cfg, StackImpl::kMp).mops;
  const double shm = run_stack(cfg, StackImpl::kShm).mops;
  const double tr = run_stack(cfg, StackImpl::kTreiber).mops;
  EXPECT_GT(mp, shm);
  EXPECT_GT(mp, tr);
}

TEST(Workload, IdealCsGrowsLinearly) {
  RunCfg cfg = quick_cfg(1);
  cfg.cs_iters = 5;
  const double c5 = ideal_cs_cycles(cfg);
  cfg.cs_iters = 10;
  const double c10 = ideal_cs_cycles(cfg);
  EXPECT_GT(c5, 0.0);
  EXPECT_NEAR(c10 / c5, 2.0, 0.3);
}

TEST(Workload, RepeatableAcrossRuns) {
  // The event order for a fixed (machine, workload, seed, address layout)
  // is exactly deterministic; across repeated in-process runs the heap
  // layout shifts line->home assignments slightly, so results must agree
  // closely but not bit-exactly.
  // HybComb's combining-round dynamics amplify small layout differences;
  // the tolerance reflects the observed cross-layout spread, not noise in
  // a single run (which is zero).
  const RunResult a = run_counter(quick_cfg(8), Approach::kHybComb);
  const RunResult b = run_counter(quick_cfg(8), Approach::kHybComb);
  EXPECT_NEAR(a.mops, b.mops, 0.15 * a.mops);
  EXPECT_NEAR(a.lat_mean, b.lat_mean, 0.20 * a.lat_mean);
}

TEST(Workload, SeedChangesOutcomeSlightly) {
  RunCfg c1 = quick_cfg(8);
  RunCfg c2 = quick_cfg(8);
  c2.seed = 1234;
  const RunResult a = run_counter(c1, Approach::kHybComb);
  const RunResult b = run_counter(c2, Approach::kHybComb);
  EXPECT_NE(a.total_ops, b.total_ops);     // different think-time draws
  EXPECT_NEAR(a.mops, b.mops, a.mops / 2); // but same ballpark
}

TEST(Workload, XeonPresetRuns) {
  RunCfg cfg = quick_cfg(8);
  cfg.machine = arch::MachineParams::xeon10();
  const RunResult r = run_counter(cfg, Approach::kCcSynch);
  EXPECT_GT(r.mops, 0.5);
}

TEST(Workload, LockApproachesWork) {
  const RunCfg cfg = quick_cfg(8);
  for (Approach a : {Approach::kMcsLock, Approach::kClhLock,
                     Approach::kTicketLock, Approach::kTasLock,
                     Approach::kTtasLock}) {
    const RunResult r = run_counter(cfg, a);
    EXPECT_GT(r.mops, 0.5) << approach_name(a);
  }
}

}  // namespace
}  // namespace hmps::harness
