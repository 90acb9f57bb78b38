// Reproduces Fig. 4b: actual combining rate (requests executed per
// combining round) vs number of application threads, MAX_OPS = 200.
//
// Expected shape: the rate first grows roughly as (threads - 1), then jumps
// sharply once requests arrive faster than rounds close (the "circular
// effect" behind the Fig. 3b latency dip). At high concurrency CC-SYNCH
// reaches MAX_OPS while HYBCOMB sits slightly below it (the non-atomic
// registration window of Section 4.2 occasionally leaves a combiner with
// little work).
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
  harness::RunArtifacts art(args, "fig4b_combining_rate", argc, argv);

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{2, 4, 6, 8, 10, 12, 14, 16, 18,
                                             20, 22, 24, 26, 28, 30, 32, 34,
                                             35}
                : std::vector<std::uint32_t>{2, 5, 10, 15, 20, 25, 30, 35};
  if (args.threads) threads = {args.threads};

  harness::RunPool pool(art, args.jobs);
  for (std::uint32_t t : threads) {
    harness::RunCfg cfg = args.run_cfg();
    cfg.app_threads = t;
    for (Approach a : {Approach::kHybComb, Approach::kCcSynch}) {
      pool.run(std::string(harness::approach_name(a)) + "/t" +
                   std::to_string(t),
               cfg, [a](const auto& c) { return harness::run_counter(c, a); });
    }
  }
  const auto& results = pool.drain();

  harness::Table table({"threads", "HybComb", "CC-Synch"});
  std::size_t idx = 0;
  for (std::uint32_t t : threads) {
    const auto& hyb = results[idx++];
    const auto& cc = results[idx++];
    table.add_row({std::to_string(t), harness::fmt(hyb.combining_rate, 1),
                   harness::fmt(cc.combining_rate, 1)});
  }
  table.print("Fig. 4b: actual combining rate vs threads (MAX_OPS=200)");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
