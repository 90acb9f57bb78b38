// Macro-benchmark: a fork/join task pool over a central queue — the
// workload class the paper's introduction motivates via OpenMP tasking
// (reference [4]: "fast synchronization on simple concurrent objects, such
// as queues, is key to the performance of parallelization frameworks").
//
// A binary task tree is executed by a fixed worker set pulling from one
// shared FIFO queue; the queue implementation varies. Reported: makespan
// (lower is better) and task throughput. Expected: the ranking of Fig. 5a
// carries over to end-to-end completion time, shrinking as per-task work
// grows (Amdahl).
#include <cstdio>
#include <vector>

#include "arch/params.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "harness/report.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"

using namespace hmps;
using rt::SimCtx;

namespace {

enum class Pool { kMp1, kHyb1, kCc1, kLcrq };

constexpr std::uint64_t make_task(std::uint32_t depth, std::uint32_t work) {
  return (static_cast<std::uint64_t>(depth) << 24) | work;
}
constexpr std::uint32_t task_depth(std::uint64_t t) {
  return static_cast<std::uint32_t>(t >> 24);
}
constexpr std::uint32_t task_work(std::uint64_t t) {
  return static_cast<std::uint32_t>(t & 0xFFFFFF);
}

sim::Cycle run(Pool pool, std::uint32_t workers, std::uint32_t roots,
               std::uint32_t depth, std::uint32_t work,
               std::uint64_t seed) {
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  ds::SeqQueue q(1 << 16);
  ds::Lcrq<SimCtx> lcrq(8, 4096);
  sync::MpServer<SimCtx> mp(0, &q);
  sync::HybComb<SimCtx> hyb(&q, 200);
  sync::CcSynch<SimCtx> cc(&q, 200);

  const std::uint64_t expected =
      static_cast<std::uint64_t>(roots) * ((1u << (depth + 1)) - 1);
  std::uint64_t executed = 0;
  sim::Cycle finished_at = 0;
  std::uint32_t idle = 0;
  const bool dedicated = pool == Pool::kMp1;

  auto enq = [&](SimCtx& ctx, std::uint64_t t) {
    switch (pool) {
      case Pool::kMp1: mp.apply(ctx, ds::q_enqueue<SimCtx>, t); break;
      case Pool::kHyb1: hyb.apply(ctx, ds::q_enqueue<SimCtx>, t); break;
      case Pool::kCc1: cc.apply(ctx, ds::q_enqueue<SimCtx>, t); break;
      case Pool::kLcrq:
        lcrq.enqueue(ctx, static_cast<std::uint32_t>(t));
        break;
    }
  };
  auto deq = [&](SimCtx& ctx) -> std::uint64_t {
    switch (pool) {
      case Pool::kMp1: return mp.apply(ctx, ds::q_dequeue<SimCtx>, 0);
      case Pool::kHyb1: return hyb.apply(ctx, ds::q_dequeue<SimCtx>, 0);
      case Pool::kCc1: return cc.apply(ctx, ds::q_dequeue<SimCtx>, 0);
      case Pool::kLcrq: {
        const std::uint32_t v = lcrq.dequeue(ctx);
        return v == ds::kLcrqEmpty ? ds::kQEmpty : v;
      }
    }
    return ds::kQEmpty;
  };

  if (dedicated) {
    ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  }
  for (std::uint32_t w = 0; w < workers; ++w) {
    ex.add_thread([&, w](SimCtx& ctx) {
      if (w == 0) {
        for (std::uint32_t r = 0; r < roots; ++r) {
          enq(ctx, make_task(depth, work));
        }
      }
      for (;;) {
        const std::uint64_t t = deq(ctx);
        if (t == ds::kQEmpty) {
          if (executed >= expected) break;
          ctx.compute(40);
          continue;
        }
        ctx.compute(task_work(t));
        ++executed;
        if (task_depth(t) > 0) {
          const std::uint64_t child =
              make_task(task_depth(t) - 1, task_work(t));
          enq(ctx, child);
          enq(ctx, child);
        }
        if (executed >= expected && finished_at == 0) {
          finished_at = ctx.now();
        }
      }
      if (++idle == workers && dedicated) mp.request_stop(ctx);
    });
  }
  ex.run_until(sim::kCycleMax);
  return finished_at;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  const std::uint32_t workers = args.threads ? args.threads : 16;
  const std::uint32_t roots = 64, depth = 4;

  std::vector<std::uint32_t> work_sizes =
      args.full ? std::vector<std::uint32_t>{0, 25, 50, 100, 200, 400, 800}
                : std::vector<std::uint32_t>{0, 50, 200, 800};

  harness::Table table({"task work (cyc)", "mp-server-1", "HybComb-1",
                        "CC-Synch-1", "LCRQ"});
  for (std::uint32_t w : work_sizes) {
    std::vector<std::string> row{std::to_string(w)};
    for (Pool p : {Pool::kMp1, Pool::kHyb1, Pool::kCc1, Pool::kLcrq}) {
      const sim::Cycle m = run(p, workers, roots, depth, w, args.seed);
      row.push_back(std::to_string(m));
    }
    table.add_row(row);
    std::fprintf(stderr, "[taskpool] work=%u done\n", w);
  }
  table.print("Macro: task-pool makespan in cycles (" +
              std::to_string(roots * ((1u << (depth + 1)) - 1)) +
              " tasks, " + std::to_string(workers) + " workers; lower is "
              "better)");
  if (!args.csv.empty()) table.write_csv(args.csv);
  return 0;
}
