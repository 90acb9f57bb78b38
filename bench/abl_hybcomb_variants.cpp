// Ablation benches for the HYBCOMB design choices discussed in Section 4.2
// ("Additional comments"):
//
//   A1  CAS vs SWAP for combiner registration. The paper argues for CAS:
//       with SWAP every candidate becomes a combiner, many combining only
//       their own request, so the combining rate collapses.
//   A2  The opportunistic drain loop (lines 25-28) before closing
//       registration. Not needed for correctness; removing it shortens
//       combining rounds and costs throughput.
#include <string>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/workload.hpp"

using namespace hmps;
using harness::Approach;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "abl_hybcomb_variants", argc, argv);

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{5, 10, 15, 20, 25, 30, 35}
                : std::vector<std::uint32_t>{10, 20, 35};
  if (args.threads) threads = {args.threads};

  // The paper's HybComb (CAS + eager drain), then A1 and A2.
  const Approach order[] = {Approach::kHybComb, Approach::kHybCombSwap,
                            Approach::kHybCombNoDrain};
  harness::RunCfg base;
  base.reps = 1;
  base = args.run_cfg(base);

  harness::RunPool pool(art, args.jobs);
  for (std::uint32_t t : threads) {
    harness::RunCfg cfg = base;
    cfg.app_threads = t;
    for (Approach a : order) {
      pool.run(std::string(harness::approach_name(a)) + "/t" +
                   std::to_string(t),
               cfg, [a](const auto& c) { return harness::run_counter(c, a); });
    }
  }
  const auto& results = pool.drain();

  harness::Table table({"threads", "CAS Mops/s", "CAS rate", "SWAP Mops/s",
                        "SWAP rate", "no-drain Mops/s", "no-drain rate"});
  std::size_t idx = 0;
  for (std::uint32_t t : threads) {
    std::vector<std::string> row{std::to_string(t)};
    for (std::size_t a = 0; a < std::size(order); ++a) {
      const auto& r = results[idx++];
      row.push_back(harness::fmt(r.mops));
      row.push_back(harness::fmt(r.combining_rate, 1));
    }
    table.add_row(row);
  }
  table.print(
      "Ablations A1/A2: HybComb registration (CAS vs SWAP) and eager drain");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
