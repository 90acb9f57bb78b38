// Reproduces Fig. 3b: average counter-request latency observed by
// application threads vs number of application threads.
//
// Expected shape: MP-SERVER lowest across the board; HYBCOMB below
// CC-SYNCH/SHM-SERVER except at one thread, where CC-SYNCH wins (one atomic
// per op vs HYBCOMB's three, and atomics execute at the memory
// controllers); a latency dip for the combining algorithms at mid
// concurrency, where the combining rate jumps (cf. Fig. 4b).
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
  harness::RunArtifacts art(args, "fig3b_counter_latency", argc, argv);

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{1, 2, 4, 6, 8, 10, 12, 14, 16,
                                             18, 20, 22, 24, 26, 28, 30, 32,
                                             34, 35}
                : std::vector<std::uint32_t>{1, 5, 10, 15, 20, 25, 30, 35};
  if (args.threads) threads = {args.threads};

  const Approach order[] = {Approach::kMpServer, Approach::kHybComb,
                            Approach::kShmServer, Approach::kCcSynch};

  harness::RunPool pool(art, args.jobs);
  for (std::uint32_t t : threads) {
    harness::RunCfg cfg = args.run_cfg();
    cfg.app_threads = t;
    for (Approach a : order) {
      pool.run(std::string(harness::approach_name(a)) + "/t" +
                   std::to_string(t),
               cfg, [a](const auto& c) { return harness::run_counter(c, a); });
    }
  }
  const auto& results = pool.drain();

  harness::Table table({"threads", "mp-server", "HybComb", "shm-server",
                        "CC-Synch"});
  harness::Table tails({"threads", "mp p50/p99", "Hyb p50/p99",
                        "shm p50/p99", "CC p50/p99"});
  std::size_t idx = 0;
  for (std::uint32_t t : threads) {
    std::vector<std::string> row{std::to_string(t)};
    std::vector<std::string> trow{std::to_string(t)};
    for (std::size_t a = 0; a < 4; ++a) {
      const auto& r = results[idx++];
      row.push_back(harness::fmt(r.lat_mean, 0));
      trow.push_back(harness::fmt(r.lat_p50, 0) + "/" +
                     harness::fmt(r.lat_p99, 0));
    }
    table.add_row(row);
    tails.add_row(trow);
  }
  table.print("Fig. 3b: counter request latency (cycles) vs threads");
  if (args.full) {
    tails.print("Fig. 3b extension: latency percentiles (p50/p99 cycles)");
  }
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
