// A parallelization-framework work queue — the use case the paper's
// introduction motivates ("fast synchronization on simple concurrent
// objects, such as queues, is key to the performance of parallelization
// frameworks").
//
// A fixed set of workers pulls task descriptors from a central FIFO queue
// and pushes newly spawned subtasks back (a fork/join-style task pool).
// The same workload runs over two queue implementations:
//   * the one-lock queue under MP-SERVER (a dedicated server core), and
//   * the one-lock queue under HYBCOMB (no dedicated core),
// printing makespan and queue-operation counts for both.
#include <cstdio>
#include <vector>

#include "arch/params.hpp"
#include "ds/queue.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"

using namespace hmps;
using rt::SimCtx;

namespace {

// A task descriptor packs {depth:8 | work:24 | id:32} into one word.
constexpr std::uint64_t make_task(std::uint32_t depth, std::uint32_t work,
                                  std::uint32_t id) {
  return (static_cast<std::uint64_t>(depth) << 56) |
         (static_cast<std::uint64_t>(work & 0xFFFFFF) << 32) | id;
}
constexpr std::uint32_t task_depth(std::uint64_t t) {
  return static_cast<std::uint32_t>(t >> 56);
}
constexpr std::uint32_t task_work(std::uint64_t t) {
  return static_cast<std::uint32_t>((t >> 32) & 0xFFFFFF);
}

struct Result {
  sim::Cycle makespan = 0;
  std::uint64_t executed = 0;
};

// Each task runs `work` cycles and spawns two children until depth runs
// out: a binary task tree of (2^(depth+1) - 1) tasks per root.
template <class UC>
Result run_pool(const char* label, std::uint32_t workers,
                std::uint32_t roots, std::uint32_t depth, bool dedicated) {
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), 99);
  ds::SeqQueue q(1 << 16);
  UC uc = [&] {
    if constexpr (std::is_same_v<UC, sync::MpServer<SimCtx>>) {
      return UC(0, &q);
    } else {
      return UC(&q, 200);
    }
  }();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(roots) * ((1u << (depth + 1)) - 1);
  std::uint64_t executed = 0;
  std::uint64_t idle_workers = 0;
  sim::Cycle finished_at = 0;

  if (dedicated) {
    ex.add_thread([&](SimCtx& ctx) {
      if constexpr (std::is_same_v<UC, sync::MpServer<SimCtx>>) {
        uc.serve(ctx);
      }
    });
  }
  for (std::uint32_t w = 0; w < workers; ++w) {
    ex.add_thread([&, w](SimCtx& ctx) {
      // Worker 0 seeds the pool.
      if (w == 0) {
        for (std::uint32_t r = 0; r < roots; ++r) {
          uc.apply(ctx, ds::q_enqueue<SimCtx>, make_task(depth, 200, r));
        }
      }
      std::uint32_t spawned = 0;
      for (;;) {
        const std::uint64_t t = uc.apply(ctx, ds::q_dequeue<SimCtx>, 0);
        if (t == ds::kQEmpty) {
          if (executed >= expected) break;  // drained and done
          ctx.compute(50);                  // brief idle backoff
          continue;
        }
        ctx.compute(task_work(t));  // execute the task body
        ++executed;
        if (task_depth(t) > 0) {
          const std::uint64_t child =
              make_task(task_depth(t) - 1, task_work(t) / 2 + 10,
                        ++spawned);
          uc.apply(ctx, ds::q_enqueue<SimCtx>, child);
          uc.apply(ctx, ds::q_enqueue<SimCtx>, child);
        }
        if (executed >= expected && finished_at == 0) {
          finished_at = ctx.now();
        }
      }
      ++idle_workers;
      if (idle_workers == workers && dedicated) {
        if constexpr (std::is_same_v<UC, sync::MpServer<SimCtx>>) {
          uc.request_stop(ctx);
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  std::printf("%-22s workers=%-2u tasks=%llu makespan=%llu cycles"
              " (%.2f tasks/kcycle)\n",
              label, workers, static_cast<unsigned long long>(executed),
              static_cast<unsigned long long>(finished_at),
              finished_at ? 1000.0 * static_cast<double>(executed) /
                                static_cast<double>(finished_at)
                          : 0.0);
  Result r;
  r.makespan = finished_at;
  r.executed = executed;
  return r;
}

}  // namespace

int main() {
  constexpr std::uint32_t kWorkers = 16, kRoots = 64, kDepth = 4;
  std::printf("task pool: %u roots, depth %u => %u tasks total\n", kRoots,
              kDepth, kRoots * ((1u << (kDepth + 1)) - 1));
  const Result mp = run_pool<sync::MpServer<SimCtx>>(
      "mp-server queue", kWorkers, kRoots, kDepth, /*dedicated=*/true);
  const Result hyb = run_pool<sync::HybComb<SimCtx>>(
      "HybComb queue", kWorkers, kRoots, kDepth, /*dedicated=*/false);
  const bool ok = mp.executed == hyb.executed && mp.executed > 0;
  std::printf("both variants executed the same %llu tasks: %s\n",
              static_cast<unsigned long long>(mp.executed),
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
