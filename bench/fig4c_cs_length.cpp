// Reproduces Fig. 4c: average CS execution cost vs CS length (an
// array-increment loop; one increment per iteration), 35 threads.
//
// Expected shape: MP-SERVER/HYBCOMB overheads over the "ideal" line (the CS
// body alone) stay constant; SHM-SERVER/CC-SYNCH overheads start ~30 cycles
// higher and shrink as the CS grows, because the coherence RMRs overlap
// with CS execution — the gap between best and worst drops to ~10% at 15
// iterations.
//
// --no-prefetch additionally reruns the sweep with software prefetching
// disabled (ablation A4 of DESIGN.md: the overlap mechanism).
#include <cstring>
#include <string>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/workload.hpp"

using namespace hmps;
using harness::Approach;

namespace {

void sweep(const harness::BenchArgs& args, harness::RunArtifacts& art,
           bool prefetch) {
  std::vector<std::uint64_t> lens =
      args.full ? std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 8, 10, 12,
                                             14, 15}
                : std::vector<std::uint64_t>{0, 2, 5, 10, 15};

  const Approach order[] = {Approach::kMpServer, Approach::kHybComb,
                            Approach::kShmServer, Approach::kCcSynch};
  harness::RunPool pool(art, args.jobs);
  std::vector<harness::RunCfg> cfgs;
  for (std::uint64_t len : lens) {
    harness::RunCfg cfg = args.run_cfg();
    cfg.app_threads = args.threads ? args.threads : 35;
    cfg.cs_iters = len;
    cfg.machine.allow_prefetch = prefetch;
    cfgs.push_back(cfg);
    for (Approach a : order) {
      pool.run(std::string(harness::approach_name(a)) + "/cs" +
                   std::to_string(len) + (prefetch ? "" : "/noprefetch"),
               cfg, [a](const auto& c) { return harness::run_counter(c, a); });
    }
  }
  const auto& results = pool.drain();

  harness::Table table({"cs_iters", "mp-server", "HybComb", "shm-server",
                        "CC-Synch", "ideal"});
  std::size_t idx = 0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    std::vector<std::string> row{std::to_string(lens[i])};
    for (std::size_t a = 0; a < 4; ++a) {
      // Average CS execution time = aggregate cycles per op at saturation.
      row.push_back(harness::fmt(results[idx++].cycles_per_op, 1));
    }
    row.push_back(harness::fmt(harness::ideal_cs_cycles(cfgs[i]), 1));
    table.add_row(row);
  }
  table.print(std::string("Fig. 4c: cycles per CS execution vs CS length") +
              (prefetch ? "" : " [no-prefetch ablation]"));
  if (!args.csv.empty()) {
    table.write_csv(prefetch ? args.csv : args.csv + ".noprefetch");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv, {"--no-prefetch"});
  harness::RunArtifacts art(args, "fig4c_cs_length", argc, argv);
  bool ablation = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-prefetch") == 0) ablation = true;
  }
  sweep(args, art, /*prefetch=*/true);
  if (ablation || args.full) sweep(args, art, /*prefetch=*/false);
  art.finalize();
  return 0;
}
