// Ablation A3: classic locks vs the delegation/combining approaches on the
// contended counter (the Section 3 motivation). Locks execute the CS at the
// acquiring core, so the counter line ping-pongs between cores — even the
// O(1)-RMR queue locks (MCS/CLH) pay data-movement RMRs inside the CS that
// the server/combiner approaches avoid.
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
  harness::RunArtifacts art(args, "abl_locks_counter", argc, argv);

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{1, 2, 5, 10, 15, 20, 25, 30, 35}
                : std::vector<std::uint32_t>{1, 5, 15, 35};
  if (args.threads) threads = {args.threads};

  const Approach order[] = {Approach::kMpServer,   Approach::kHybComb,
                            Approach::kMcsLock,    Approach::kClhLock,
                            Approach::kTicketLock, Approach::kTtasLock,
                            Approach::kTasLock};

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

  harness::Table table({"threads", "mp-server", "HybComb", "mcs", "clh",
                        "ticket", "ttas", "tas"});
  std::size_t idx = 0;
  for (std::uint32_t t : threads) {
    std::vector<std::string> row{std::to_string(t)};
    for (std::size_t a = 0; a < std::size(order); ++a) {
      row.push_back(harness::fmt(results[idx++].mops));
    }
    table.add_row(row);
  }
  table.print("Ablation A3: classic locks vs delegation on the counter "
              "(Mops/s)");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
