// Reproduces Fig. 4a: stalled vs total CPU cycles per operation at the
// servicing thread, under maximum load (35 application threads).
//
// Following the paper's footnote 4, the combining algorithms run with a
// fixed combiner for the whole run (equivalent to MAX_OPS = infinity) so
// that one core's counters capture the servicing thread.
//
// The breakdown is a direct readout of the servicing core's CycleAccount
// (obs/cycle_account.hpp): every simulated cycle of the measurement windows
// is attributed to exactly one bucket, and the binary verifies the sum
// invariant before printing. The paper had to reconstruct this from two
// hardware counters; the simulator gives the full attribution.
//
// Expected shape: the message-passing approaches (mp-server, HybComb) show
// a virtually unstalled servicing thread; the shared-memory approaches
// (shm-server, CC-Synch) spend >50% of their cycles stalled on coherence.
#include <cstdio>
#include <cstdlib>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/workload.hpp"
#include "obs/cycle_account.hpp"

using namespace hmps;
using harness::Approach;
using obs::CycleAccount;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "fig4a_stall_breakdown", argc, argv);

  harness::Table table({"approach", "compute", "coh-rd", "coh-wr", "atomic",
                        "udn-send", "udn-recv", "spin", "stalled(cyc/op)",
                        "total(cyc/op)", "stall_share"});
  const Approach order[] = {Approach::kMpServer, Approach::kHybComb,
                            Approach::kShmServer, Approach::kCcSynch};
  harness::RunPool pool(art, args.jobs);
  for (Approach a : order) {
    harness::RunCfg cfg = args.run_cfg();
    cfg.app_threads = args.threads ? args.threads : 35;
    cfg.fixed_combiner =
        (a == Approach::kHybComb || a == Approach::kCcSynch);
    pool.run(harness::approach_name(a), cfg,
             [a](const auto& c) { return harness::run_counter(c, a); });
  }
  const auto& results = pool.drain();

  for (std::size_t i = 0; i < 4; ++i) {
    const Approach a = order[i];
    const auto& r = results[i];
    const CycleAccount& acc = r.serv_account;
    // The account's defining invariant: the buckets partition the covered
    // cycle span. A violation means a charging site lost or double-counted
    // cycles — refuse to print numbers that no longer mean anything.
    if (acc.total() != acc.mark() - acc.origin()) {
      std::fprintf(stderr,
                   "[fig4a] FATAL: cycle-account invariant violated for %s: "
                   "buckets sum to %llu, covered span is %llu\n",
                   harness::approach_name(a),
                   static_cast<unsigned long long>(acc.total()),
                   static_cast<unsigned long long>(acc.mark() - acc.origin()));
      return 1;
    }
    const double ops = r.serv_ops > 0 ? r.serv_ops : 1;
    auto per_op = [&](CycleAccount::Bucket b) {
      return static_cast<double>(acc.bucket(b)) / ops;
    };
    const double total =
        static_cast<double>(acc.active()) / ops;  // exclude idle tail
    const double stalled = static_cast<double>(acc.stalled()) / ops;
    table.add_row({harness::approach_name(a),
                   harness::fmt(per_op(CycleAccount::kCompute), 1),
                   harness::fmt(per_op(CycleAccount::kCoherenceRead), 1),
                   harness::fmt(per_op(CycleAccount::kCoherenceWrite), 1),
                   harness::fmt(per_op(CycleAccount::kAtomic), 1),
                   harness::fmt(per_op(CycleAccount::kUdnSendBlock), 1),
                   harness::fmt(per_op(CycleAccount::kUdnRecvWait), 1),
                   harness::fmt(per_op(CycleAccount::kSpin), 1),
                   harness::fmt(stalled, 1), harness::fmt(total, 1),
                   harness::fmt(total > 0 ? stalled / total : 0, 2)});
  }
  table.print("Fig. 4a: CPU stalls at the servicing thread (max load)");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
