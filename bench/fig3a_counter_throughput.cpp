// Reproduces Fig. 3a: throughput of a concurrent counter implemented with
// mp-server, HybComb, shm-server and CC-Synch, as a function of the number
// of application threads.
//
// Expected shape (paper, Section 5.3): MP-SERVER fastest at every
// concurrency level, peaking ~4.3x above SHM-SERVER; HYBCOMB second,
// ~2.5x above CC-SYNCH at high concurrency; CC-SYNCH and SHM-SERVER
// closely matched.
//
// Extensions beyond the paper: a vlink-server column (delegation over the
// Virtual-Link MPMC channel, docs/MODEL.md §12) so all three transports —
// UDN, vlink, plain shared memory — run side by side, and a
// --noc-combining flag that turns on in-network RMW combining
// (docs/MODEL.md §11) to ask whether HybComb's endpoint combining still
// pays once the network combines for it.
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
  harness::RunArtifacts art(args, "fig3a_counter_throughput", argc, argv);

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{1, 2, 4, 6, 8, 10, 12, 14, 16,
                                             18, 20, 22, 24, 26, 28, 30, 32,
                                             34, 35}
                : std::vector<std::uint32_t>{1, 5, 10, 15, 20, 25, 30, 35};
  if (args.threads) threads = {args.threads};

  const Approach order[] = {Approach::kMpServer, Approach::kHybComb,
                            Approach::kShmServer, Approach::kCcSynch,
                            Approach::kVlinkServer};

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
                        "CC-Synch", "vlink-server"});
  std::size_t idx = 0;
  for (std::uint32_t t : threads) {
    std::vector<std::string> row{std::to_string(t)};
    for (std::size_t a = 0; a < 5; ++a)
      row.push_back(harness::fmt(results[idx++].mops));
    table.add_row(row);
  }
  std::string title =
      "Fig. 3a: counter throughput (Mops/s) vs application threads";
  if (args.noc_combining) title += " [noc-combining on]";
  table.print(title);
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
