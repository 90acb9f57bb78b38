// Reproduces Fig. 3c: maximum achievable counter throughput as a function
// of the allowed combining rate (MAX_OPS), at full concurrency.
//
// Expected shape: CC-SYNCH gains little beyond moderate MAX_OPS values,
// while HYBCOMB keeps improving toward very large MAX_OPS (combining is so
// fast that combiner switching stays visible), approaching MP-SERVER's
// throughput. MP-SERVER/SHM-SERVER are flat references (no combining).
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
  harness::RunArtifacts art(args, "fig3c_maxops_sweep", argc, argv);
  const std::uint32_t nthreads = args.threads ? args.threads : 35;

  std::vector<std::uint64_t> maxops =
      args.full ? std::vector<std::uint64_t>{1, 2, 5, 10, 20, 50, 100, 200,
                                             500, 1000, 2000, 5000}
                : std::vector<std::uint64_t>{1, 10, 50, 200, 1000, 5000};

  harness::RunCfg base = args.run_cfg();
  base.app_threads = nthreads;

  harness::RunPool pool(art, args.jobs);
  auto submit = [&](std::string label, const harness::RunCfg& cfg,
                    Approach a) {
    pool.run(std::move(label), cfg,
             [a](const auto& c) { return harness::run_counter(c, a); });
  };
  submit("mp-server/ref", base, Approach::kMpServer);
  submit("shm-server/ref", base, Approach::kShmServer);
  for (std::uint64_t m : maxops) {
    harness::RunCfg cfg = base;
    cfg.max_ops = m;
    submit("HybComb/max_ops" + std::to_string(m), cfg, Approach::kHybComb);
    submit("CC-Synch/max_ops" + std::to_string(m), cfg, Approach::kCcSynch);
  }
  const auto& results = pool.drain();
  const double mp_ref = results[0].mops;
  const double shm_ref = results[1].mops;

  harness::Table table({"max_ops", "HybComb", "CC-Synch", "mp-server(ref)",
                        "shm-server(ref)"});
  std::size_t idx = 2;
  for (std::uint64_t m : maxops) {
    const double hyb = results[idx++].mops;
    const double cc = results[idx++].mops;
    table.add_row({std::to_string(m), harness::fmt(hyb), harness::fmt(cc),
                   harness::fmt(mp_ref), harness::fmt(shm_ref)});
  }
  table.print("Fig. 3c: peak throughput (Mops/s) vs MAX_OPS, " +
              std::to_string(nthreads) + " threads");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
