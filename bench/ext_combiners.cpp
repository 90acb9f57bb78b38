// Extension bench: the whole combining-construction lineage on one plot —
// Oyama'99 (lock + CAS-pushed pending list), flat combining (publication
// records), CC-SYNCH / DSM-SYNCH / H-SYNCH (the Fatourou-Kallimanis
// family), and HYBCOMB (the paper's hybrid) — on the contended counter.
//
// Expected: HybComb >> CC-Synch >= {DSM-Synch, H-Synch} > flat combining
// >= Oyama: each generation removed a bottleneck of its predecessor, and
// HybComb finally moves request traffic off the coherence fabric
// altogether.
#include <cstdio>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "harness/report.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/flat_combining.hpp"
#include "sync/hybcomb.hpp"
#include "sync/oyama.hpp"

using namespace hmps;
using rt::SimCtx;

namespace {

enum class C { kOy, kFc, kCc, kDsm, kHs, kHyb };

double run(C kind, std::uint32_t threads, sim::Cycle window,
           std::uint64_t seed) {
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  ds::SeqCounter c;
  sync::OyamaComb<SimCtx> oy(&c);
  sync::FlatCombining<SimCtx> fc(&c);
  sync::CcSynch<SimCtx> cc(&c, 200);
  sync::DsmSynch<SimCtx> dsm(&c, 200);
  sync::HSynch<SimCtx> hs(&c, 200);
  sync::HybComb<SimCtx> hyb(&c, 200);
  std::vector<std::uint64_t> ops(threads, 0);
  for (std::uint32_t i = 0; i < threads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (;;) {
        switch (kind) {
          case C::kOy: oy.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
          case C::kFc: fc.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
          case C::kCc: cc.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
          case C::kDsm: dsm.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
          case C::kHs: hs.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
          case C::kHyb: hyb.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
        }
        ++ops[i];
        ctx.compute(2 * ctx.rand_below(51));
      }
    });
  }
  ex.run_until(60'000);
  std::uint64_t o0 = 0;
  for (auto o : ops) o0 += o;
  ex.run_until(60'000 + window);
  std::uint64_t o1 = 0;
  for (auto o : ops) o1 += o;
  return static_cast<double>(o1 - o0) / static_cast<double>(window) * 1200.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  const sim::Cycle window = args.window ? args.window : 150'000;

  std::vector<std::uint32_t> threads =
      args.full ? std::vector<std::uint32_t>{1, 2, 5, 10, 15, 20, 25, 30, 35}
                : std::vector<std::uint32_t>{1, 5, 15, 25, 35};
  if (args.threads) threads = {args.threads};

  harness::Table table({"threads", "Oyama99", "flat-combining", "CC-Synch",
                        "DSM-Synch", "H-Synch", "HybComb"});
  for (std::uint32_t t : threads) {
    table.add_row({std::to_string(t),
                   harness::fmt(run(C::kOy, t, window, args.seed)),
                   harness::fmt(run(C::kFc, t, window, args.seed)),
                   harness::fmt(run(C::kCc, t, window, args.seed)),
                   harness::fmt(run(C::kDsm, t, window, args.seed)),
                   harness::fmt(run(C::kHs, t, window, args.seed)),
                   harness::fmt(run(C::kHyb, t, window, args.seed))});
    std::fprintf(stderr, "[ext-combiners] threads=%u done\n", t);
  }
  table.print("Extension: the combining family on the counter (Mops/s)");
  if (!args.csv.empty()) table.write_csv(args.csv);
  return 0;
}
