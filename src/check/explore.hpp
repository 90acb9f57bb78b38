// Schedule exploration: PCT-style fuzzing of the synchronization layer with
// automatic failure shrinking (docs/TESTING.md).
//
// explore() generates scenarios — workload (construction × object ×
// machine) + perturbation schedule + optional fault plan — runs each one on
// the simulator via harness::record_history, and validates the recorded
// history with the linearizability checkers. The first violation is
// shrunk to a minimal deterministic repro (shrink()) suitable for
// hmps-repro-v1 serialization (repro.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/perturb.hpp"
#include "harness/record.hpp"

namespace hmps::check {

/// One fully described run: same Scenario => same history, bit for bit.
struct Scenario {
  harness::RecordCfg cfg;
  PerturbPlan perturb;
};

struct Violation {
  bool found = false;
  std::string kind;    ///< "counter" | "queue" | "stack" | "lin" | "hang"
  std::string detail;
};

/// Runs the scenario once and checks its history. Fast sound checks always
/// run; the complete Wing & Gong checker runs when the history is small
/// enough (<= 48 ops). A run that fails to complete within the horizon is
/// reported as a hang.
Violation run_scenario(const Scenario& s);

struct ExploreCfg {
  std::uint64_t seed = 1;
  double budget_seconds = 30.0;
  std::uint64_t max_schedules = 0;  ///< 0 = bounded by budget only
  /// Empty = all nine constructions / all five objects.
  std::vector<harness::Construction> constructions;
  std::vector<harness::Object> objects;
  bool fuzz_machines = false;  ///< random machines vs. the TILE-Gx preset
  /// Selftest hook: seed the test-only HybComb defect into every scenario.
  std::uint64_t hyb_bug_drop_every = 0;
  bool stop_on_violation = true;
  bool verbose = false;
  /// Scenario-execution workers (harness::TaskPool). Scenarios are drawn
  /// serially from the master RNG and dispatched in iteration-indexed
  /// batches; the reported failing scenario is always the lowest-iteration
  /// violation, so the shrunk repro is identical for every jobs value.
  /// schedules_run/ops_checked may differ (a batch runs to completion where
  /// the serial loop stops mid-stream). 1 = the serial loop.
  std::uint32_t jobs = 1;
};

struct ExploreResult {
  std::uint64_t schedules_run = 0;
  std::uint64_t ops_checked = 0;
  /// Complete searches that exhausted their node budget: the history
  /// passed the fast checks but was not fully validated.
  std::uint64_t inconclusive = 0;
  bool violation_found = false;
  Scenario failing;   ///< first failing scenario (valid iff violation_found)
  Violation violation;
  Scenario shrunk;    ///< minimized repro (valid iff violation_found)
  Violation shrunk_violation;
  std::uint64_t shrink_runs = 0;
};

/// Explores until the wall-clock budget or the schedule cap is exhausted,
/// or (by default) a violation is found and shrunk.
ExploreResult explore(const ExploreCfg& cfg);

/// Greedy shrink: repeatedly tries smaller candidates (fewer threads, fewer
/// ops, faults off, weaker perturbation), re-running each and keeping it
/// only if the violation persists. Returns the smallest still-failing
/// scenario; `runs` counts candidate executions.
Scenario shrink(const Scenario& failing, Violation* out_violation,
                std::uint64_t* runs);

}  // namespace hmps::check
