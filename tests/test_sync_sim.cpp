// Correctness of the four universal constructions (MP-SERVER, SHM-SERVER,
// CC-SYNCH, HYBCOMB) and the classic locks on the deterministic simulator:
// mutual exclusion, completeness (no lost operations), return values, and
// determinism across runs. Parameterized over thread counts and seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"
#include "sync/locks.hpp"
#include "sync/shm_server.hpp"
#include "sync/universal.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

// A CS body that checks mutual exclusion: it flags entry, computes for a
// few cycles (giving other fibers a chance to run if mutual exclusion were
// broken), and verifies no concurrent entry happened.
struct MutexProbe {
  ds::SeqCounter counter;
  int inside = 0;
  int max_inside = 0;
};

std::uint64_t probe_cs(SimCtx& ctx, void* obj, std::uint64_t /*arg*/) {
  auto* p = static_cast<MutexProbe*>(obj);
  ++p->inside;
  if (p->inside > p->max_inside) p->max_inside = p->inside;
  const std::uint64_t v = ctx.load(&p->counter.value);
  ctx.compute(7);
  ctx.store(&p->counter.value, v + 1);
  --p->inside;
  return v;
}

struct Result {
  std::uint64_t final_count = 0;
  std::uint64_t total_ops = 0;
  int max_inside = 0;
  bool all_returns_unique = true;
};

// Runs `nthreads` application threads doing `ops_each` probe CSes through
// construction `UC`, with server thread wiring where needed.
enum class Kind { kMpServer, kShmServer, kCcSynch, kHybComb, kMcs, kTicket,
                  kTas, kTtas, kClh };

Result run_sim(Kind kind, std::uint32_t nthreads, std::uint64_t ops_each,
               std::uint64_t seed, std::uint64_t max_ops = 16) {
  SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  MutexProbe probe;
  std::vector<std::vector<std::uint64_t>> returns(nthreads);

  sync::MpServer<SimCtx> mp(0, &probe);
  sync::ShmServer<SimCtx> shm(0, &probe);
  sync::CcSynch<SimCtx> cc(&probe, static_cast<std::uint32_t>(max_ops));
  sync::HybComb<SimCtx> hyb(&probe, max_ops);
  sync::LockUc<SimCtx, sync::McsLock<SimCtx>> mcs(&probe);
  sync::LockUc<SimCtx, sync::TicketLock<SimCtx>> ticket(&probe);
  sync::LockUc<SimCtx, sync::TasLock<SimCtx>> tas(&probe);
  sync::LockUc<SimCtx, sync::TtasLock<SimCtx>> ttas(&probe);
  sync::LockUc<SimCtx, sync::ClhLock<SimCtx>> clh(&probe);

  const bool has_server = (kind == Kind::kMpServer || kind == Kind::kShmServer);
  std::uint32_t done = 0;
  const std::uint32_t nclients = nthreads;

  auto apply_one = [&](SimCtx& ctx) -> std::uint64_t {
    switch (kind) {
      case Kind::kMpServer: return mp.apply(ctx, probe_cs, 0);
      case Kind::kShmServer: return shm.apply(ctx, probe_cs, 0);
      case Kind::kCcSynch: return cc.apply(ctx, probe_cs, 0);
      case Kind::kHybComb: return hyb.apply(ctx, probe_cs, 0);
      case Kind::kMcs: return mcs.apply(ctx, probe_cs, 0);
      case Kind::kTicket: return ticket.apply(ctx, probe_cs, 0);
      case Kind::kTas: return tas.apply(ctx, probe_cs, 0);
      case Kind::kTtas: return ttas.apply(ctx, probe_cs, 0);
      case Kind::kClh: return clh.apply(ctx, probe_cs, 0);
    }
    return 0;
  };

  if (has_server) {
    // Thread 0 is the server; clients are threads 1..nclients.
    SimExecutor* exp = &ex;
    ex.add_thread([&, exp](SimCtx& ctx) {
      if (kind == Kind::kMpServer) {
        mp.serve(ctx);
      } else {
        shm.serve(ctx);
      }
      (void)exp;
    });
  }
  for (std::uint32_t i = 0; i < nclients; ++i) {
    const std::uint32_t slot = i;
    ex.add_thread([&, slot](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops_each; ++k) {
        returns[slot].push_back(apply_one(ctx));
        ctx.compute(ctx.rand_below(20));
      }
      ++done;
      if (done == nclients && has_server) {
        if (kind == Kind::kMpServer) {
          mp.request_stop(ctx);
        } else {
          shm.request_stop(ctx);
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);

  Result r;
  r.final_count = probe.counter.value.load();
  r.max_inside = probe.max_inside;
  std::vector<std::uint64_t> all;
  for (auto& v : returns) {
    r.total_ops += v.size();
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    if (all[i] == all[i + 1]) r.all_returns_unique = false;
  }
  return r;
}

class UcCorrectness
    : public ::testing::TestWithParam<std::tuple<Kind, std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(UcCorrectness, MutualExclusionAndCompleteness) {
  const auto [kind, nthreads, seed] = GetParam();
  const std::uint64_t ops_each = 60;
  const Result r = run_sim(kind, nthreads, ops_each, seed);
  EXPECT_EQ(r.total_ops, static_cast<std::uint64_t>(nthreads) * ops_each);
  EXPECT_EQ(r.final_count, r.total_ops) << "lost or duplicated increments";
  EXPECT_EQ(r.max_inside, 1) << "mutual exclusion violated";
  // The CS returns the pre-increment value: with mutual exclusion each op
  // must observe a distinct value.
  EXPECT_TRUE(r.all_returns_unique);
}

std::string UcCaseName(
    const ::testing::TestParamInfo<std::tuple<Kind, std::uint32_t,
                                              std::uint64_t>>& info) {
  static const char* names[] = {"MpServer", "ShmServer", "CcSynch",
                                "HybComb", "Mcs", "Ticket", "Tas",
                                "Ttas", "Clh"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_t" + std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsThreadsSeeds, UcCorrectness,
    ::testing::Combine(
        ::testing::Values(Kind::kMpServer, Kind::kShmServer, Kind::kCcSynch,
                          Kind::kHybComb, Kind::kMcs, Kind::kTicket,
                          Kind::kTas, Kind::kTtas, Kind::kClh),
        ::testing::Values(1u, 2u, 7u, 16u, 35u),
        ::testing::Values(1u, 42u)),
    UcCaseName);

TEST(UcDeterminism, SameSeedSameOutcome) {
  for (Kind k : {Kind::kHybComb, Kind::kCcSynch, Kind::kMpServer}) {
    const Result a = run_sim(k, 8, 40, 99);
    const Result b = run_sim(k, 8, 40, 99);
    EXPECT_EQ(a.final_count, b.final_count);
    EXPECT_EQ(a.total_ops, b.total_ops);
  }
}

TEST(HybCombBehavior, SmallMaxOpsStillCorrect) {
  for (std::uint64_t max_ops : {1u, 2u, 3u}) {
    const Result r = run_sim(Kind::kHybComb, 12, 50, 7, max_ops);
    EXPECT_EQ(r.final_count, 12u * 50u) << "MAX_OPS=" << max_ops;
    EXPECT_EQ(r.max_inside, 1);
  }
}

TEST(HybCombBehavior, LargeMaxOpsStillCorrect) {
  const Result r = run_sim(Kind::kHybComb, 20, 50, 5, 5000);
  EXPECT_EQ(r.final_count, 20u * 50u);
}

TEST(CcSynchBehavior, SmallMaxOpsStillCorrect) {
  for (std::uint64_t max_ops : {1u, 2u}) {
    const Result r = run_sim(Kind::kCcSynch, 12, 50, 7, max_ops);
    EXPECT_EQ(r.final_count, 12u * 50u);
    EXPECT_EQ(r.max_inside, 1);
  }
}

TEST(SimCtxAccounting, LoadsChargeTime) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ds::SeqCounter c;
  sim::Cycle spent = 0;
  ex.add_thread([&](SimCtx& ctx) {
    const sim::Cycle t0 = ctx.now();
    for (int i = 0; i < 10; ++i) (void)ctx.load(&c.value);
    spent = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  // 1 miss + 9 hits, plus issue costs.
  const auto& p = arch::MachineParams::tilegx36();
  EXPECT_GT(spent, 9 * (p.issue_cost + p.l_hit));
  EXPECT_LT(spent, 200u);
}

TEST(SimCtxAccounting, StallAttributedToCore) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ds::SeqCounter c;
  ex.add_thread([&](SimCtx& ctx) {
    ctx.store(&c.value, std::uint64_t{1});
  });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(100);                 // let thread 0 own the line
    (void)ctx.load(&c.value);         // remote dirty fetch -> stall
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_GT(ex.machine().core(1).stall, 10u);
}

TEST(SimCtxAccounting, ComputeCountsBusy) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ex.add_thread([&](SimCtx& ctx) { ctx.compute(123); });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(ex.machine().core(0).busy, 123u);
  EXPECT_EQ(ex.machine().core(0).stall, 0u);
}

}  // namespace
}  // namespace hmps
