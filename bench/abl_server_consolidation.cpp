// Ablation: the core-economy tradeoff behind combining (paper
// introduction / Section 3): with k contended objects on a 36-core chip,
// you can
//   (a) dedicate k server cores (one MP-SERVER each) — fastest per object
//       but burns cores that could run application threads;
//   (b) put all k objects on ONE server core (MP-SERVER-HUB, the paper's
//       opcode interface) — one core burned, server saturates across
//       objects;
//   (c) use HYBCOMB per object — zero dedicated cores, per-object
//       throughput between the two.
// All configurations get the same TOTAL core budget; server cores eat into
// the application-thread count.
#include <cstdio>
#include <memory>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "harness/report.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"

using namespace hmps;
using rt::SimCtx;

namespace {

enum class Mode { kServerPerObject, kHub, kHybComb };

double run(Mode mode, std::uint32_t nobjects, sim::Cycle window,
           std::uint64_t seed) {
  const std::uint32_t total_cores = 36;
  const std::uint32_t nservers = mode == Mode::kServerPerObject ? nobjects
                                 : mode == Mode::kHub           ? 1
                                                                : 0;
  const std::uint32_t napp = total_cores - nservers;

  rt::SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  std::vector<std::unique_ptr<ds::SeqCounter>> objs;
  for (std::uint32_t i = 0; i < nobjects; ++i) {
    objs.push_back(std::make_unique<ds::SeqCounter>());
  }

  std::vector<std::unique_ptr<sync::MpServer<SimCtx>>> servers;
  sync::MpServerHub<SimCtx> hub(0);
  std::vector<std::uint64_t> hub_ops;
  std::vector<std::unique_ptr<sync::HybComb<SimCtx>>> hybs;

  if (mode == Mode::kServerPerObject) {
    for (std::uint32_t i = 0; i < nobjects; ++i) {
      servers.push_back(
          std::make_unique<sync::MpServer<SimCtx>>(i, objs[i].get()));
    }
  } else if (mode == Mode::kHub) {
    for (std::uint32_t i = 0; i < nobjects; ++i) {
      hub_ops.push_back(hub.add_op(&ds::counter_inc<SimCtx>, objs[i].get()));
    }
  } else {
    for (std::uint32_t i = 0; i < nobjects; ++i) {
      hybs.push_back(std::make_unique<sync::HybComb<SimCtx>>(objs[i].get(),
                                                             200));
    }
  }

  for (std::uint32_t s = 0; s < nservers; ++s) {
    ex.add_thread([&, s](SimCtx& ctx) {
      if (mode == Mode::kHub) {
        hub.serve(ctx);
      } else {
        servers[s]->serve(ctx);
      }
    });
  }
  std::vector<std::uint64_t> done(napp, 0);
  for (std::uint32_t i = 0; i < napp; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      std::uint64_t k = i;
      for (;;) {
        const std::uint32_t o = static_cast<std::uint32_t>(k++ % nobjects);
        switch (mode) {
          case Mode::kServerPerObject:
            servers[o]->apply(ctx, &ds::counter_inc<SimCtx>, 0);
            break;
          case Mode::kHub:
            hub.apply(ctx, hub_ops[o], 0);
            break;
          case Mode::kHybComb:
            hybs[o]->apply(ctx, &ds::counter_inc<SimCtx>, 0);
            break;
        }
        ++done[i];
        ctx.compute(2 * ctx.rand_below(51));
      }
    });
  }
  ex.run_until(60'000);
  std::uint64_t o0 = 0;
  for (auto d : done) o0 += d;
  ex.run_until(60'000 + window);
  std::uint64_t o1 = 0;
  for (auto d : done) o1 += d;
  return static_cast<double>(o1 - o0) / static_cast<double>(window) * 1200.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  const sim::Cycle window = args.window ? args.window : 150'000;

  std::vector<std::uint32_t> objects =
      args.full ? std::vector<std::uint32_t>{1, 2, 4, 8, 12, 16, 20}
                : std::vector<std::uint32_t>{1, 4, 8, 16};

  harness::Table table({"objects", "k servers (Mops/s)", "1 hub server",
                        "HybComb (0 servers)"});
  for (std::uint32_t k : objects) {
    table.add_row({std::to_string(k),
                   harness::fmt(run(Mode::kServerPerObject, k, window,
                                    args.seed)),
                   harness::fmt(run(Mode::kHub, k, window, args.seed)),
                   harness::fmt(run(Mode::kHybComb, k, window, args.seed))});
    std::fprintf(stderr, "[abl-consolidation] objects=%u done\n", k);
  }
  table.print("Ablation: dedicating cores vs hub vs combining, total "
              "throughput across k objects");
  if (!args.csv.empty()) table.write_csv(args.csv);
  return 0;
}
