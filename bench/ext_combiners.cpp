// Extension bench: the whole combining-construction lineage on one plot —
// Oyama'99 (lock + CAS-pushed pending list), flat combining (publication
// records), CC-SYNCH / DSM-SYNCH / H-SYNCH (the Fatourou-Kallimanis
// family), and HYBCOMB (the paper's hybrid) — on the contended counter.
//
// Expected: HybComb >> CC-Synch >= {DSM-Synch, H-Synch} > flat combining
// >= Oyama: each generation removed a bottleneck of its predecessor, and
// HybComb finally moves request traffic off the coherence fabric
// altogether.
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
  harness::RunArtifacts art(args, "ext_combiners", argc, argv);

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{1, 2, 5, 10, 15, 20, 25, 30, 35}
                : std::vector<std::uint32_t>{1, 5, 15, 25, 35};
  if (args.threads) threads = {args.threads};

  const Approach order[] = {Approach::kOyama,    Approach::kFlatCombining,
                            Approach::kCcSynch,  Approach::kDsmSynch,
                            Approach::kHSynch,   Approach::kHybComb};
  harness::RunCfg base;
  base.window = 150'000;
  base.reps = 1;
  base = args.run_cfg(base);

  harness::RunPool pool(art, args.jobs);
  for (std::uint32_t t : threads) {
    for (Approach a : order) {
      harness::RunCfg cfg = base;
      cfg.app_threads = t;
      // Flat combining runs max_ops / 2 passes: its usual 4.
      if (a == Approach::kFlatCombining) cfg.max_ops = 8;
      pool.run(std::string(harness::approach_name(a)) + "/t" +
                   std::to_string(t),
               cfg, [a](const auto& c) { return harness::run_counter(c, a); });
    }
  }
  const auto& results = pool.drain();

  std::vector<std::string> cols{"threads"};
  for (Approach a : order) cols.push_back(harness::approach_name(a));
  harness::Table table(cols);
  std::size_t idx = 0;
  for (std::uint32_t t : threads) {
    std::vector<std::string> row{std::to_string(t)};
    for (std::size_t a = 0; a < std::size(order); ++a) {
      row.push_back(harness::fmt(results[idx++].mops));
    }
    table.add_row(row);
  }
  table.print("Extension: the combining family on the counter (Mops/s)");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
