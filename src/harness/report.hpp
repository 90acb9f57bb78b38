// Table/CSV reporting for the benchmark binaries: each bench prints the
// rows/series of the paper figure it reproduces, in both a human-readable
// aligned table and an optional CSV file for plotting.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "harness/workload.hpp"

namespace hmps::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : cols_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Renders the aligned table to stdout with a title line.
  void print(const std::string& title) const;

  /// Writes the table as CSV to `path` (overwrites).
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> cols_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `prec` decimals.
std::string fmt(double v, int prec = 2);

/// Standard bench command line: [--full] [--quick] [--csv FILE]
/// [--json FILE] [--trace FILE] [--threads N] [--window CYCLES] [--reps N]
/// [--seed N] [--jobs N] [--mesh WxH] [--telemetry-window CYCLES] [--noc]
/// [--noc-combining]. Benches scale their sweeps with `full` and `quick`.
/// `--json` writes the machine-readable run artifact and `--trace` the
/// Chrome/Perfetto trace (docs/OBSERVABILITY.md); both are wired through
/// harness::RunArtifacts. `--jobs` sets the run-pool worker count
/// (harness/run_pool.hpp); 0 resolves through $HMPS_JOBS, then
/// hardware_concurrency. The run flags — `--seed`, `--window`, `--reps`,
/// `--mesh` (e.g. 16x16 = 256 cores), `--noc` (the link-contention NoC
/// model, for per-link telemetry), `--noc-combining` (in-network combining
/// of unconditional RMWs, docs/MODEL.md §11) and `--telemetry-window`
/// (the windowed sampler's cadence, obs/telemetry.hpp) — reach a bench's
/// runs through run_cfg().
struct BenchArgs {
  bool full = false;
  bool quick = false;  ///< CI smoke mode: shortest meaningful sweep
  std::string csv;
  std::string json;   ///< metrics artifact path ("" = off)
  std::string trace;  ///< Chrome trace-event JSON path ("" = off)
  std::uint32_t threads = 0;  // 0 = bench default
  std::uint64_t window = 0;   // 0 = bench default
  std::uint32_t reps = 0;     // 0 = bench default
  std::uint64_t seed = 1;
  std::uint32_t jobs = 0;     // run-pool workers; 0 = $HMPS_JOBS, then h/w
  std::uint32_t mesh_w = 0;   // 0 = bench default machine shape
  std::uint32_t mesh_h = 0;
  std::uint64_t telemetry_window = 0;  // sampler cadence, cycles; 0 = off
  bool noc = false;  // model link contention (per-link heatmap data)
  bool noc_combining = false;  // in-network RMW combining (MODEL.md §11)

  /// Parses the flags above, plus the boolean `bench_flags` a bench reads
  /// from argv itself. An unknown flag, a missing value or a value that is
  /// not a whole number in range prints the usage and exits 2.
  static BenchArgs parse(int argc, char** argv,
                         std::initializer_list<std::string_view> bench_flags =
                             {});

  /// `base` — a bench's own defaults — with the run flags applied.
  RunCfg run_cfg(RunCfg base = {}) const;
};

}  // namespace hmps::harness
