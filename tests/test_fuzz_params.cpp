// Machine-parameter fuzzing: the synchronization algorithms must stay
// correct on ANY sane machine (random mesh shapes, latencies, occupancies,
// buffer sizes, feature flags) — correctness may not depend on timing.
// Each seed derives a pseudo-random machine + workload (via the shared
// generator in check/gen.hpp); invariants are checked for every
// construction.
#include <gtest/gtest.h>

#include <cstdint>

#include "arch/params.hpp"
#include "check/gen.hpp"
#include "ds/counter.hpp"
#include "ds/lcrq.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/rng.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"
#include "sync/shm_server.hpp"

namespace hmps {
namespace {

using check::random_machine;
using rt::SimCtx;
using rt::SimExecutor;

class ParamFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParamFuzz, AllConstructionsStayCorrect) {
  const std::uint64_t seed = GetParam();
  const arch::MachineParams mp = random_machine(seed);
  sim::Xoshiro256 r(seed ^ 0xABCDEF);
  const std::uint32_t cores = mp.cores();
  // Up to 3 threads per core via the demux queues, at least 2 app threads.
  const std::uint32_t max_threads =
      std::min<std::uint32_t>(3 * cores, 40);
  const std::uint32_t nclients = static_cast<std::uint32_t>(
      r.between(2, max_threads > 3 ? max_threads - 1 : 2));
  const std::uint64_t ops_each = 30;
  const std::uint64_t max_ops = r.between(1, 64);

  for (int kind = 0; kind < 4; ++kind) {
    arch::MachineParams kp = mp;
    std::uint32_t clients = nclients;
    if (kind < 2) {
      // Server approaches: keep the server's core uniprogrammed (the
      // paper's configuration). A client sharing the server's core with a
      // request-filled buffer deadlocks the response send — a real Section
      // 6 hazard, demonstrated in test_sec6_practical.cpp.
      clients = std::min<std::uint32_t>(clients,
                                        cores > 2 ? cores - 1 : 2);
    } else if (clients + (kind < 2 ? 1 : 0) > cores) {
      // Combiners with oversubscribed cores: the servicing thread shares
      // its core buffer with up to 3 client queues, so size the buffer for
      // one request per client plus responses (Section 6 sizing rule).
      kp.udn_buf_words =
          std::max<std::uint32_t>(kp.udn_buf_words, 3 * clients + 8);
    }
    SimExecutor ex(kp, seed + kind);
    ds::SeqCounter counter;
    sync::MpServer<SimCtx> mps(0, &counter);
    sync::ShmServer<SimCtx> shm(0, &counter);
    sync::HybComb<SimCtx> hyb(&counter, max_ops);
    sync::CcSynch<SimCtx> cc(&counter,
                             static_cast<std::uint32_t>(max_ops));
    const bool server = kind < 2;
    std::uint32_t done = 0;
    if (server) {
      ex.add_thread([&, kind](SimCtx& ctx) {
        if (kind == 0) {
          mps.serve(ctx);
        } else {
          shm.serve(ctx);
        }
      });
    }
    for (std::uint32_t i = 0; i < clients; ++i) {
      ex.add_thread([&, kind](SimCtx& ctx) {
        for (std::uint64_t k = 0; k < ops_each; ++k) {
          switch (kind) {
            case 0: mps.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
            case 1: shm.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
            case 2: hyb.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
            case 3: cc.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
          }
          ctx.compute(ctx.rand_below(60));
        }
        if (++done == clients && server) {
          if (kind == 0) {
            mps.request_stop(ctx);
          } else {
            shm.request_stop(ctx);
          }
        }
      });
    }
    ex.run_until(sim::kCycleMax);
    EXPECT_EQ(counter.value.load(), clients * ops_each)
        << "machine seed " << seed << " kind " << kind << " clients "
        << clients << " max_ops " << max_ops;
  }
}

TEST_P(ParamFuzz, LcrqConservesValues) {
  const std::uint64_t seed = GetParam();
  const arch::MachineParams mp = random_machine(seed * 31 + 7);
  SimExecutor ex(mp, seed);
  ds::Lcrq<SimCtx> q(4, 2048);
  const std::uint32_t nthreads =
      std::min<std::uint32_t>(mp.cores(), 12);
  std::uint64_t pushed = 0, popped = 0;  // single-host-thread counters
  std::uint32_t done = 0;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < 40; ++k) {
        if (ctx.rand_below(2) == 0) {
          q.enqueue(ctx, static_cast<std::uint32_t>((i << 16) | k));
          ++pushed;
        } else if (q.dequeue(ctx) != ds::kLcrqEmpty) {
          ++popped;
        }
      }
      if (++done == nthreads) {
        while (q.dequeue(ctx) != ds::kLcrqEmpty) ++popped;
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(pushed, popped) << "machine seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParamFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hmps
