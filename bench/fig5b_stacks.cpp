// Reproduces Fig. 5b: throughput of concurrent stacks under balanced load.
//
//   X        coarse-lock sequential stack made concurrent with approach X
//   Treiber  the classic nonblocking stack (CAS on top)
//
// Expected shape: mp-server and HybComb stacks lead, nearly matching the
// one-lock queue numbers of Fig. 5a (both are coarse-locked linked lists);
// Treiber trails every blocking implementation, as contended CAS retries on
// the top pointer dominate.
#include <string>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/workload.hpp"

using namespace hmps;
using harness::StackImpl;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "fig5b_stacks", argc, argv);

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{1, 2, 4, 6, 8, 10, 12, 14, 16,
                                             18, 20, 22, 24, 26, 28, 30, 32,
                                             34}
                : std::vector<std::uint32_t>{1, 5, 10, 15, 20, 25, 30, 34};
  if (args.threads) threads = {args.threads};

  const StackImpl order[] = {StackImpl::kMp, StackImpl::kHyb, StackImpl::kShm,
                             StackImpl::kCc, StackImpl::kTreiber,
                             StackImpl::kVl};

  harness::RunPool pool(art, args.jobs);
  for (std::uint32_t t : threads) {
    harness::RunCfg cfg = args.run_cfg();
    cfg.app_threads = t;
    for (StackImpl s : order) {
      pool.run(std::string(harness::stack_name(s)) + "/t" + std::to_string(t),
               cfg, [s](const auto& c) { return harness::run_stack(c, s); });
    }
  }
  const auto& results = pool.drain();

  harness::Table table({"clients", "mp-server", "HybComb", "shm-server",
                        "CC-Synch", "Treiber", "vlink"});
  std::size_t idx = 0;
  for (std::uint32_t t : threads) {
    std::vector<std::string> row{std::to_string(t)};
    for (std::size_t s = 0; s < 6; ++s)
      row.push_back(harness::fmt(results[idx++].mops));
    table.add_row(row);
  }
  std::string title =
      "Fig. 5b: stack throughput (Mops/s) under balanced load";
  if (args.noc_combining) title += " [noc-combining on]";
  table.print(title);
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
