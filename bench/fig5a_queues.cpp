// Reproduces Fig. 5a: throughput of concurrent queues under balanced load.
//
//   X-1          one-lock MS-Queue implemented with approach X
//   mp-server-2  two-lock MS-Queue with two MP-SERVER instances (two
//                dedicated servers); the fenced CS bodies it needs on the
//                weakly-ordered TILE-Gx are what make it lose to one lock
//   LCRQ         Morrison & Afek's nonblocking queue (32-bit-value port)
//
// Expected shape: mp-server-1 and HybComb-1 lead (up to ~2x / ~1.5x over
// the best shared-memory variant); LCRQ and mp-server-2 level off sooner
// (controller-serialized atomics, resp. fence costs).
#include <string>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/workload.hpp"

using namespace hmps;
using harness::QueueImpl;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "fig5a_queues", argc, argv);

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{1, 2, 4, 6, 8, 10, 12, 14, 16,
                                             18, 20, 22, 24, 26, 28, 30, 32,
                                             34}
                : std::vector<std::uint32_t>{1, 5, 10, 15, 20, 25, 30, 34};
  if (args.threads) threads = {args.threads};

  const QueueImpl order[] = {QueueImpl::kMp1,  QueueImpl::kHyb1,
                             QueueImpl::kShm1, QueueImpl::kCc1,
                             QueueImpl::kLcrq, QueueImpl::kMp2,
                             QueueImpl::kVl1};

  harness::RunPool pool(art, args.jobs);
  for (std::uint32_t t : threads) {
    harness::RunCfg cfg = args.run_cfg();
    cfg.app_threads = t;
    for (QueueImpl q : order) {
      pool.run(std::string(harness::queue_name(q)) + "/t" + std::to_string(t),
               cfg, [q](const auto& c) { return harness::run_queue(c, q); });
    }
  }
  const auto& results = pool.drain();

  harness::Table table({"clients", "mp-server-1", "HybComb-1", "shm-server-1",
                        "CC-Synch-1", "LCRQ", "mp-server-2", "vlink-1"});
  std::size_t idx = 0;
  for (std::uint32_t t : threads) {
    std::vector<std::string> row{std::to_string(t)};
    for (std::size_t q = 0; q < 7; ++q)
      row.push_back(harness::fmt(results[idx++].mops));
    table.add_row(row);
  }
  std::string title =
      "Fig. 5a: queue throughput (Mops/s) under balanced load";
  if (args.noc_combining) title += " [noc-combining on]";
  table.print(title);
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
