// Verifies the scalar claims of Section 5.3 (the paper's text):
//   * MP-SERVER peak throughput up to ~4.3x SHM-SERVER's,
//   * HYBCOMB up to ~2.5x CC-SYNCH at high concurrency,
//   * HYBCOMB executes <= 0.7 CAS per operation in multithreaded runs,
//     ~0.1 at high concurrency,
//   * fairness (max/min per-thread ops) <= ~1.2 for HYBCOMB and ~1.1 for
//     MP-SERVER (cores nearer to the server complete slightly more ops).
#include <algorithm>
#include <string>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/workload.hpp"

using namespace hmps;
using harness::Approach;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "sec53_scalar_claims", argc, argv);

  harness::RunCfg hi = args.run_cfg();
  hi.app_threads = args.threads ? args.threads : 35;
  harness::RunPool pool(art, args.jobs);
  auto submit = [&](std::string label, const harness::RunCfg& cfg,
                    Approach a) {
    pool.run(std::move(label), cfg,
             [a](const auto& c) { return harness::run_counter(c, a); });
  };
  submit("mp-server/hi", hi, Approach::kMpServer);
  submit("shm-server/hi", hi, Approach::kShmServer);
  submit("HybComb/hi", hi, Approach::kHybComb);
  submit("CC-Synch/hi", hi, Approach::kCcSynch);
  // Worst-case CAS/op and fairness across moderate concurrency.
  for (std::uint32_t t : {2u, 5u, 8u, 12u, 20u, 28u, 35u}) {
    harness::RunCfg cfg = hi;
    cfg.app_threads = t;
    submit("HybComb/t" + std::to_string(t), cfg, Approach::kHybComb);
  }
  const auto& results = pool.drain();
  const auto& mp = results[0];
  const auto& shm = results[1];
  const auto& hyb = results[2];
  const auto& cc = results[3];
  double worst_cas = 0;
  double worst_fair_hyb = 0;
  for (std::size_t i = 4; i < results.size(); ++i) {
    worst_cas = std::max(worst_cas, results[i].cas_per_op);
    worst_fair_hyb = std::max(worst_fair_hyb, results[i].fairness);
  }

  harness::Table table({"metric", "paper", "measured"});
  table.add_row({"mp-server / shm-server peak throughput", "4.3x",
                 harness::fmt(mp.mops / shm.mops) + "x"});
  table.add_row({"HybComb / CC-Synch peak throughput", "~2.5x",
                 harness::fmt(hyb.mops / cc.mops) + "x"});
  table.add_row({"HybComb CAS/op, high concurrency", "~0.1",
                 harness::fmt(hyb.cas_per_op, 3)});
  table.add_row({"HybComb CAS/op, worst over thread counts", "<= 0.7",
                 harness::fmt(worst_cas, 3)});
  table.add_row({"HybComb fairness ratio, worst", "<= ~1.2",
                 harness::fmt(worst_fair_hyb)});
  table.add_row({"mp-server fairness ratio (35 threads)", "~1.1",
                 harness::fmt(mp.fairness)});

  table.print("Section 5.3: scalar claims, paper vs measured");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
