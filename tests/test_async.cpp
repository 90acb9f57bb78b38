// Async delegation tickets (docs/MODEL.md §9): apply_async / wait /
// wait_all across MP-SERVER, MP-SERVER-HUB, SHM-SERVER, HYBCOMB,
// VLINK-SERVER and a 2-shard ShardedServer fleet on the deterministic
// simulator, and all but the sim-only VLINK-SERVER under real threads via
// NativeCtx. Exercises
// the demux deliberately: trains are reaped in reverse (and arbitrary)
// order so replies must flow through the context's staging path, and the
// Section 6 credit guard is driven with more outstanding tickets than
// credits to pin the no-self-deadlock drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "runtime/native_context.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/async_batcher.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"
#include "sync/sharded.hpp"
#include "sync/shm_server.hpp"
#include "sync/vlink_server.hpp"

namespace hmps {
namespace {

using rt::NativeCtx;
using rt::NativeEnv;
using rt::SimCtx;
using rt::SimExecutor;

// CS body flagging concurrent entry; returns the pre-increment value so
// completeness and uniqueness are both checkable from the reap results.
struct MutexProbe {
  ds::SeqCounter counter;
  int inside = 0;
  int max_inside = 0;
};

template <class Ctx>
std::uint64_t probe_cs(Ctx& ctx, void* obj, std::uint64_t /*arg*/) {
  auto* p = static_cast<MutexProbe*>(obj);
  ++p->inside;
  if (p->inside > p->max_inside) p->max_inside = p->inside;
  const std::uint64_t v = ctx.load(&p->counter.value);
  ctx.compute(7);
  ctx.store(&p->counter.value, v + 1);
  --p->inside;
  return v;
}

enum class AKind {
  kMpServer,
  kMpServerHub,
  kShmServer,
  kHybComb,
  kVlinkServer,
  kSharded
};

constexpr AKind kAllAsync[] = {AKind::kMpServer,    AKind::kMpServerHub,
                               AKind::kShmServer,   AKind::kHybComb,
                               AKind::kVlinkServer, AKind::kSharded};
/// The Virtual-Link fabric is a simulator model, so the native suite skips
/// VLINK-SERVER.
constexpr AKind kNativeAsync[] = {AKind::kMpServer, AKind::kMpServerHub,
                                  AKind::kShmServer, AKind::kHybComb,
                                  AKind::kSharded};

// The fleet's clients spread their ops over an 8-object farm, which a
// 2-shard fleet homes on both shards (ids {4, 6, 7} on shard 1).
constexpr std::uint32_t kShards = 2;
constexpr std::uint64_t kFarm = 8;

// Fleet CS body over a farm of probes: the object's probe, its value
// tagged with the object id so returns stay unique across the farm.
template <class Ctx>
std::uint64_t farm_probe_cs(Ctx& ctx, void* farm, std::uint64_t a) {
  const std::uint64_t obj = a >> 32;
  return obj << 32 | probe_cs(ctx, static_cast<MutexProbe*>(farm) + obj, 0);
}

// The same over a counter farm.
template <class Ctx>
std::uint64_t farm_inc(Ctx& ctx, void* farm, std::uint64_t a) {
  return ds::counter_inc(ctx, static_cast<ds::SeqCounter*>(farm) + (a >> 32),
                         0);
}

struct Result {
  std::uint64_t final_count = 0;
  std::uint64_t total_ops = 0;
  int max_inside = 0;
  bool all_returns_unique = true;
};

// Clients issue `train`-deep ticket trains and reap them in REVERSE order
// (forcing every non-last reply through the staging path), `ops_each` ops
// per client in total. `use_wait_all` reaps via wait_all instead (values
// discarded, so uniqueness is only checked when reaping individually).
Result run_sim_async(AKind kind, std::uint32_t nclients,
                     std::uint64_t ops_each, std::uint32_t train,
                     std::uint64_t max_inflight = 0,
                     bool use_wait_all = false) {
  SimExecutor ex(arch::MachineParams::tilegx36(), /*seed=*/7);
  MutexProbe probes[kFarm];  // the single-object servers use probes[0]
  MutexProbe& probe = probes[0];
  std::vector<std::vector<std::uint64_t>> returns(nclients);

  sync::MpServer<SimCtx> mp(0, &probe, max_inflight);
  sync::MpServerHub<SimCtx> hub(0, max_inflight);
  const std::uint64_t opcode = hub.add_op(probe_cs<SimCtx>, &probe);
  sync::ShmServer<SimCtx> shm(0, &probe, 64, train);
  sync::HybComb<SimCtx>::Options hopts;
  hopts.max_inflight = max_inflight;
  sync::HybComb<SimCtx> hyb(&probe, /*max_ops=*/16, false, hopts);
  std::optional<sync::VlinkServer<SimCtx>> vl;
  if (kind == AKind::kVlinkServer) {
    vl.emplace(ex.machine().vlink(), /*server_core=*/0, &probe, max_inflight);
  }
  sync::ShardedServer<SimCtx> fleet(kShards, probes, kFarm, max_inflight);

  auto issue = [&](SimCtx& ctx, std::uint64_t k) -> sync::Ticket {
    switch (kind) {
      case AKind::kMpServer: return mp.apply_async(ctx, probe_cs<SimCtx>, 0);
      case AKind::kMpServerHub: return hub.apply_async(ctx, opcode, 0);
      case AKind::kShmServer: return shm.apply_async(ctx, probe_cs<SimCtx>, 0);
      case AKind::kHybComb: return hyb.apply_async(ctx, probe_cs<SimCtx>, 0);
      case AKind::kVlinkServer:
        return vl->apply_async(ctx, probe_cs<SimCtx>, 0);
      case AKind::kSharded:
        return fleet.apply_async(ctx, farm_probe_cs<SimCtx>, k % kFarm, 0);
    }
    return {};
  };
  auto reap = [&](SimCtx& ctx, sync::Ticket& t) -> std::uint64_t {
    switch (kind) {
      case AKind::kMpServer: return mp.wait(ctx, t);
      case AKind::kMpServerHub: return hub.wait(ctx, t);
      case AKind::kShmServer: return shm.wait(ctx, t);
      case AKind::kHybComb: return hyb.wait(ctx, t);
      case AKind::kVlinkServer: return vl->wait(ctx, t);
      case AKind::kSharded: return fleet.wait(ctx, t);
    }
    return 0;
  };
  auto reap_all = [&](SimCtx& ctx) {
    switch (kind) {
      case AKind::kMpServer: mp.wait_all(ctx); break;
      case AKind::kMpServerHub: hub.wait_all(ctx); break;
      case AKind::kShmServer: shm.wait_all(ctx); break;
      case AKind::kHybComb: hyb.wait_all(ctx); break;
      case AKind::kVlinkServer: vl->wait_all(ctx); break;
      case AKind::kSharded: fleet.wait_all(ctx); break;
    }
  };

  const bool has_server = kind != AKind::kHybComb;
  const std::uint32_t servers =
      kind == AKind::kSharded ? kShards : (has_server ? 1 : 0);
  std::uint32_t done = 0;
  for (std::uint32_t s = 0; s < servers; ++s) {
    ex.add_thread([&, s](SimCtx& ctx) {
      switch (kind) {
        case AKind::kMpServer: mp.serve(ctx); break;
        case AKind::kMpServerHub: hub.serve(ctx); break;
        case AKind::kVlinkServer: vl->serve(ctx); break;
        case AKind::kSharded: fleet.serve(ctx, s); break;
        default: shm.serve(ctx); break;
      }
    });
  }
  for (std::uint32_t i = 0; i < nclients; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      std::uint64_t k = 0;
      while (k < ops_each) {
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(train, ops_each - k));
        std::vector<sync::Ticket> ts;
        for (std::uint32_t j = 0; j < n; ++j, ++k) {
          ts.push_back(issue(ctx, k));
        }
        if (use_wait_all) {
          reap_all(ctx);
          for (std::uint32_t j = 0; j < n; ++j) returns[i].push_back(0);
        } else {
          for (std::uint32_t j = n; j-- > 0;) {
            returns[i].push_back(reap(ctx, ts[j]));
          }
        }
        ctx.compute(ctx.rand_below(20));
      }
      ++done;
      if (done == nclients && has_server) {
        switch (kind) {
          case AKind::kMpServer: mp.request_stop(ctx); break;
          case AKind::kMpServerHub: hub.request_stop(ctx); break;
          case AKind::kVlinkServer: vl->request_stop(ctx); break;
          case AKind::kSharded: fleet.request_stop(ctx); break;
          default: shm.request_stop(ctx); break;
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);

  Result r;
  for (const MutexProbe& p : probes) {
    r.final_count += p.counter.value.load();
    r.max_inside = std::max(r.max_inside, p.max_inside);
  }
  std::vector<std::uint64_t> all;
  for (auto& v : returns) {
    r.total_ops += v.size();
    all.insert(all.end(), v.begin(), v.end());
  }
  if (!use_wait_all) {
    std::sort(all.begin(), all.end());
    r.all_returns_unique =
        std::adjacent_find(all.begin(), all.end()) == all.end();
  }
  return r;
}

class AsyncSim
    : public ::testing::TestWithParam<std::tuple<AKind, std::uint32_t>> {};

TEST_P(AsyncSim, ReverseReapTrainsAreExact) {
  const auto [kind, nclients] = GetParam();
  const std::uint64_t ops_each = 48;
  const Result r = run_sim_async(kind, nclients, ops_each, /*train=*/4);
  EXPECT_EQ(r.total_ops, static_cast<std::uint64_t>(nclients) * ops_each);
  EXPECT_EQ(r.final_count, r.total_ops) << "lost or duplicated increments";
  EXPECT_EQ(r.max_inside, 1) << "mutual exclusion violated";
  EXPECT_TRUE(r.all_returns_unique);
}

TEST_P(AsyncSim, WaitAllCompletes) {
  const auto [kind, nclients] = GetParam();
  const std::uint64_t ops_each = 32;
  const Result r = run_sim_async(kind, nclients, ops_each, /*train=*/4,
                                 /*max_inflight=*/0, /*use_wait_all=*/true);
  EXPECT_EQ(r.final_count, static_cast<std::uint64_t>(nclients) * ops_each);
  EXPECT_EQ(r.max_inside, 1);
}

TEST_P(AsyncSim, CreditGuardWithUnreapedTicketsDoesNotDeadlock) {
  const auto [kind, nclients] = GetParam();
  // 6-deep trains against 2 credits: issue must drain arrived replies while
  // spinning or the issuer starves on credits its own tickets hold. The
  // shm construction has no credit pool; its 6-deep train over 4 slots
  // exercises the inline-fallback path instead.
  const std::uint64_t ops_each = 24;
  const Result r = run_sim_async(kind, nclients, ops_each, /*train=*/6,
                                 /*max_inflight=*/2);
  EXPECT_EQ(r.total_ops, static_cast<std::uint64_t>(nclients) * ops_each);
  EXPECT_EQ(r.final_count, r.total_ops);
  EXPECT_TRUE(r.all_returns_unique);
}

std::string AsyncSimName(
    const ::testing::TestParamInfo<std::tuple<AKind, std::uint32_t>>& info) {
  static const char* names[] = {"MpServer", "MpServerHub", "ShmServer",
                                "HybComb",  "VlinkServer", "Sharded"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_t" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllAsyncKinds, AsyncSim,
                         ::testing::Combine(::testing::ValuesIn(kAllAsync),
                                            ::testing::Values(1u, 3u)),
                         AsyncSimName);

// Arbitrary (not just reversed) reap order through the staging path.
TEST(AsyncSimOrder, ArbitraryReapOrder) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 3);
  MutexProbe probe;
  sync::MpServer<SimCtx> mp(0, &probe);
  std::vector<std::uint64_t> got;
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    sync::Ticket t[4];
    for (int j = 0; j < 4; ++j) {
      t[j] = mp.apply_async(ctx, probe_cs<SimCtx>, 0);
    }
    for (int j : {2, 0, 3, 1}) got.push_back(mp.wait(ctx, t[j]));
    mp.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(probe.counter.value.load(), 4u);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

// apply() with tickets outstanding must route through the async path (a
// bare 1-word reply would misframe behind the pending tagged replies).
TEST(AsyncSimOrder, SyncApplyInterleavedWithOutstandingTickets) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 4);
  MutexProbe probe;
  sync::MpServer<SimCtx> mp(0, &probe);
  std::vector<std::uint64_t> got;
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    sync::Ticket a = mp.apply_async(ctx, probe_cs<SimCtx>, 0);
    sync::Ticket b = mp.apply_async(ctx, probe_cs<SimCtx>, 0);
    got.push_back(mp.apply(ctx, probe_cs<SimCtx>, 0));  // guarded sync call
    got.push_back(mp.wait(ctx, b));
    got.push_back(mp.wait(ctx, a));
    mp.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(probe.counter.value.load(), 3u);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2}));
}

// The client-side batcher: trains complete exactly and the coalescing is
// visible in the stats.
TEST(AsyncBatcher, TrainsCompleteAndCount) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 5);
  MutexProbe probe;
  sync::MpServer<SimCtx> mp(0, &probe);
  std::uint64_t completed = 0;
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    sync::AsyncBatcher<SimCtx, sync::MpServer<SimCtx>> batch(mp, 4);
    for (int k = 0; k < 10; ++k) {
      completed += batch.add(ctx, probe_cs<SimCtx>, 0);
    }
    completed += batch.drain(ctx);  // the 2-op tail train
    mp.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(completed, 10u);
  EXPECT_EQ(probe.counter.value.load(), 10u);
  EXPECT_EQ(mp.stats(1).async_issued, 10u);
  EXPECT_EQ(mp.stats(1).async_batched, 10u);  // two 4-trains + one 2-train
}

// Partial-train flush: three ops buffered at depth 4 must complete when
// flush() is called (the open-loop idle-flush path), and — unlike drain()'s
// legacy accounting — the short train still counts as batched work. Without
// the flush the three ops would sit in the buffer until a fourth arrival
// tops the train up, which in an open-loop lull may never come. With
// issue_on_add (the sharded fleet's mode) the three ops are already sent
// when flush() reaps them.
TEST(AsyncBatcher, FlushReapsPartialTrain) {
  for (const bool issue_on_add : {false, true}) {
    SCOPED_TRACE(issue_on_add ? "issue_on_add" : "buffered");
    SimExecutor ex(arch::MachineParams::tilegx36(), 5);
    MutexProbe probe;
    sync::MpServer<SimCtx> mp(0, &probe);
    std::uint64_t buffered_completed = 0;
    std::uint64_t flush_completed = 0;
    std::uint64_t issued_before_flush = 0;
    sim::Cycle completed_stamp = 0;
    ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
    ex.add_thread([&](SimCtx& ctx) {
      sync::AsyncBatcher<SimCtx, sync::MpServer<SimCtx>> batch(mp, 4,
                                                              issue_on_add);
      for (int k = 0; k < 3; ++k) {
        buffered_completed += batch.add(ctx, probe_cs<SimCtx>, 0);
      }
      EXPECT_EQ(batch.buffered(), 3u);
      issued_before_flush = mp.stats(1).async_issued;
      flush_completed = batch.flush(ctx);
      completed_stamp = batch.last_completed();
      EXPECT_EQ(batch.buffered(), 0u);
      EXPECT_EQ(batch.flush(ctx), 0u);  // empty flush is a no-op
      mp.request_stop(ctx);
    });
    ex.run_until(sim::kCycleMax);
    EXPECT_EQ(buffered_completed, 0u);  // depth never reached by add() alone
    EXPECT_EQ(issued_before_flush, issue_on_add ? 3u : 0u);
    EXPECT_EQ(flush_completed, 3u);
    EXPECT_EQ(probe.counter.value.load(), 3u);
    EXPECT_EQ(mp.stats(1).async_issued, 3u);
    EXPECT_EQ(mp.stats(1).async_batched, 3u);  // the short train is counted
    EXPECT_GT(completed_stamp, 0u);  // tickets carry completion stamps
  }
}

// ---- native backend: real threads, real races ----

std::uint64_t run_native_async(AKind kind, std::uint32_t nclients,
                               std::uint64_t ops_each) {
  const bool has_server = kind != AKind::kHybComb;
  const std::uint32_t servers =
      kind == AKind::kSharded ? kShards : (has_server ? 1 : 0);
  NativeEnv env(nclients + servers);
  ds::SeqCounter counters[kFarm];  // the single-object servers use [0]
  ds::SeqCounter& counter = counters[0];

  sync::MpServer<NativeCtx> mp(0, &counter);
  sync::MpServerHub<NativeCtx> hub(0);
  const std::uint64_t opcode = hub.add_op(ds::counter_inc<NativeCtx>, &counter);
  sync::ShmServer<NativeCtx> shm(0, &counter, 64, 4);
  sync::HybComb<NativeCtx> hyb(&counter, 16);
  sync::ShardedServer<NativeCtx> fleet(kShards, counters, kFarm);

  std::vector<std::thread> threads;
  std::atomic<std::uint32_t> done{0};
  for (std::uint32_t s = 0; s < servers; ++s) {
    threads.emplace_back([&, s] {
      NativeCtx ctx(env, s, 1 + s);
      switch (kind) {
        case AKind::kMpServer: mp.serve(ctx); break;
        case AKind::kMpServerHub: hub.serve(ctx); break;
        case AKind::kSharded: fleet.serve(ctx, s); break;
        default: shm.serve(ctx); break;
      }
    });
  }
  for (std::uint32_t i = 0; i < nclients; ++i) {
    threads.emplace_back([&, i] {
      NativeCtx ctx(env, servers + i, 100 + i);
      auto issue = [&](std::uint64_t k) -> sync::Ticket {
        switch (kind) {
          case AKind::kMpServer:
            return mp.apply_async(ctx, ds::counter_inc<NativeCtx>, 0);
          case AKind::kMpServerHub: return hub.apply_async(ctx, opcode, 0);
          case AKind::kShmServer:
            return shm.apply_async(ctx, ds::counter_inc<NativeCtx>, 0);
          case AKind::kHybComb:
            return hyb.apply_async(ctx, ds::counter_inc<NativeCtx>, 0);
          case AKind::kVlinkServer: break;  // sim-only
          case AKind::kSharded:
            return fleet.apply_async(ctx, farm_inc<NativeCtx>, k % kFarm, 0);
        }
        return {};
      };
      auto reap = [&](sync::Ticket& t) {
        switch (kind) {
          case AKind::kMpServer: mp.wait(ctx, t); break;
          case AKind::kMpServerHub: hub.wait(ctx, t); break;
          case AKind::kShmServer: shm.wait(ctx, t); break;
          case AKind::kHybComb: hyb.wait(ctx, t); break;
          case AKind::kVlinkServer: break;  // sim-only
          case AKind::kSharded: fleet.wait(ctx, t); break;
        }
      };
      std::uint64_t k = 0;
      while (k < ops_each) {
        const std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(4, ops_each - k));
        sync::Ticket ts[4];
        for (std::uint32_t j = 0; j < n; ++j, ++k) ts[j] = issue(k);
        for (std::uint32_t j = n; j-- > 0;) reap(ts[j]);
      }
      if (done.fetch_add(1) + 1 == nclients && has_server) {
        switch (kind) {
          case AKind::kMpServer: mp.request_stop(ctx); break;
          case AKind::kMpServerHub: hub.request_stop(ctx); break;
          case AKind::kSharded: fleet.request_stop(ctx); break;
          default: shm.request_stop(ctx); break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::uint64_t sum = 0;
  for (const ds::SeqCounter& c : counters) sum += c.value.load();
  return sum;
}

class NativeAsync
    : public ::testing::TestWithParam<std::tuple<AKind, std::uint32_t>> {};

TEST_P(NativeAsync, ReverseReapCounterIsExact) {
  const auto [kind, nclients] = GetParam();
  const std::uint64_t ops_each = 2000;
  EXPECT_EQ(run_native_async(kind, nclients, ops_each),
            static_cast<std::uint64_t>(nclients) * ops_each);
}

INSTANTIATE_TEST_SUITE_P(AllAsyncKinds, NativeAsync,
                         ::testing::Combine(::testing::ValuesIn(kNativeAsync),
                                            ::testing::Values(2u, 4u)),
                         AsyncSimName);

}  // namespace
}  // namespace hmps
