// Golden-trace determinism regression tests for the engine hot-path
// overhaul, plus the zero-allocation contract.
//
// The golden constants below were captured by running these exact scenarios
// against the SEED engine (std::function + std::priority_queue events,
// deque-based UDN queues, per-hop NoC walking, ucontext fibers) before the
// overhaul. The overhauled engine must reproduce every fingerprint and
// counter bit for bit: the (time, seq) event order, UDN counters, and NoC
// link_wait are the determinism contract (docs/ENGINE.md).
//
// The golden constants predate the coherence model's first-touch home
// assignment, so they deliberately do not cover coherence-model timings.
// (Those used to be ASLR-dependent — homes were hashed from host pointer
// addresses; they are now hashed from dense first-touch line ids and are
// reproducible across processes.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "check/perturb.hpp"
#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "harness/constructions.hpp"
#include "harness/history.hpp"
#include "harness/record.hpp"
#include "harness/service.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/sharded.hpp"
#include "sync/vlink_server.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook: global operator new/delete, in every form
// (plain, nothrow, aligned; scalar and array), tally every heap allocation
// in the binary, including the over-aligned ones (scheduler slots, simulated
// arenas). Tests read the delta across a steady-state window to prove the
// engine allocates nothing per event/message.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};

// The replacements below pair malloc with free through these two
// out-of-line calls, so the compiler never sees a pointer from operator new
// reach free() (-Wmismatched-new-delete).
[[gnu::noinline]] void* counted_malloc(std::size_t n) {
  ++g_allocs;
  return std::malloc(n ? n : 1);
}
[[gnu::noinline]] void* counted_aligned_malloc(std::size_t n,
                                               std::align_val_t a) {
  ++g_allocs;
  // aligned_alloc wants a nonzero multiple of the alignment.
  const auto al = static_cast<std::size_t>(a);
  return std::aligned_alloc(al, n == 0 ? al : (n + al - 1) / al * al);
}
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_malloc(n, a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_malloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_malloc(n, a);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace hmps {
namespace {

using sim::Cycle;
using sim::Tid;

struct Fp {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

struct ModelGold {
  std::uint64_t fp;
  Cycle end;
  std::uint64_t msgs, words, blocks, peak;
  std::uint64_t noc_msgs, noc_hops;
  Cycle link_wait;
};

void expect_gold(const ModelGold& got, const ModelGold& want) {
  EXPECT_EQ(got.fp, want.fp);
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.msgs, want.msgs);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_EQ(got.peak, want.peak);
  EXPECT_EQ(got.noc_msgs, want.noc_msgs);
  EXPECT_EQ(got.noc_hops, want.noc_hops);
  EXPECT_EQ(got.link_wait, want.link_wait);
}

ModelGold gold_of(Fp fp, Cycle end, arch::UdnModel& udn) {
  const auto& u = udn.counters();
  const auto& n = udn.noc().counters();
  return ModelGold{fp.h,       end,    u.messages, u.words, u.sender_blocks,
                  u.peak_occupancy, n.messages, n.hops,  n.link_wait};
}

// Scenario: pure scheduler interleaving — fibers with pseudo-random waits
// plus bare callbacks racing at the same cycles. Exercises the (time, seq)
// total order.
TEST(GoldenTrace, SchedulerInterleave) {
  sim::Scheduler s;
  Fp fp;
  for (std::uint32_t j = 0; j < 6; ++j) {
    s.spawn([&s, &fp, j] {
      sim::Xoshiro256 rng(1000 + j);
      for (std::uint32_t i = 0; i < 400; ++i) {
        fp.mix(j);
        fp.mix(s.now());
        if (i % 7 == j % 7) {
          s.at(s.now() + rng.below(5), [&fp, j] { fp.mix(100 + j); });
        }
        s.wait_for(rng.below(7));
      }
    });
  }
  const Cycle end = s.run();
  EXPECT_EQ(fp.h, 4661895399910340196ull);
  EXPECT_EQ(end, 1232ull);
}

// Scenario: UDN ring traffic — every core sends to its right neighbour and
// receives from its left, with rng-derived sizes and think times.
ModelGold run_udn_ring(bool link_contention) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  p.model_link_contention = link_contention;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  Fp fp;
  for (Tid i = 0; i < C; ++i) {
    s.spawn([&, i] {
      const Tid dst = (i + 1) % C;
      const Tid prev = (i + C - 1) % C;
      sim::Xoshiro256 think(500 + i);
      sim::Xoshiro256 out_sizes(900 + i);
      sim::Xoshiro256 in_sizes(900 + prev);
      std::uint64_t w[16];
      for (int m = 0; m < 150; ++m) {
        const std::size_t n = 1 + out_sizes.below(8);
        for (std::size_t k = 0; k < n; ++k) w[k] = i * 100000ull + m * 16 + k;
        udn.send(i, dst, i % udn.n_queues(), w, n);
        const std::size_t rn = 1 + in_sizes.below(8);
        std::uint64_t in[16];
        udn.receive(i, prev % udn.n_queues(), in, rn);
        fp.mix(in[0]);
        fp.mix(in[rn - 1]);
        fp.mix(s.now());
        s.wait_for(think.below(25));
      }
    });
  }
  const Cycle end = s.run();
  return gold_of(fp, end, udn);
}

TEST(GoldenTrace, UdnRing) {
  expect_gold(run_udn_ring(false),
              ModelGold{12640239833102257098ull, 5399, 1200, 5334, 0, 16, 0, 0,
                        0});
}

TEST(GoldenTrace, UdnRingLinkContention) {
  expect_gold(run_udn_ring(true),
              ModelGold{12640239833102257098ull, 5399, 1200, 5334, 0, 16, 1200,
                        2100, 3});
}

// Scenario: many-to-one flood on one queue, slow receiver — exercises credit
// backpressure (sender_blocks > 0) and ingress-port serialization.
ModelGold run_udn_flood(bool link_contention) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  p.model_link_contention = link_contention;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  const std::uint64_t kMsgs = 400;
  Fp fp;
  for (Tid i = 1; i < C; ++i) {
    s.spawn([&, i] {
      std::uint64_t w[3];
      for (std::uint64_t m = 0; m < kMsgs; ++m) {
        w[0] = i;
        w[1] = m;
        w[2] = i * 7777 + m;
        udn.send(i, 0, 0, w, 3);
      }
    });
  }
  s.spawn([&] {
    sim::Xoshiro256 think(42);
    std::uint64_t w[3];
    for (std::uint64_t m = 0; m < (C - 1) * kMsgs; ++m) {
      udn.receive(0, 0, w, 3);
      fp.mix(w[0]);
      fp.mix(w[2]);
      s.wait_for(think.below(9));
    }
  });
  const Cycle end = s.run();
  return gold_of(fp, end, udn);
}

TEST(GoldenTrace, UdnFloodBackpressure) {
  expect_gold(run_udn_flood(false),
              ModelGold{7686226863619266309ull, 19550, 2800, 8400, 2759, 117,
                        0, 0, 0});
}

TEST(GoldenTrace, UdnFloodLinkContention) {
  expect_gold(run_udn_flood(true),
              ModelGold{7686226863619266309ull, 19550, 2800, 8400, 2759, 117,
                        2800, 6400, 820});
}

// Scenario: full 36-core mesh with link contention, all-to-one tree — wide
// NoC coverage including multi-hop XY routes in both directions.
TEST(GoldenTrace, NocAllPairs) {
  arch::MachineParams p;  // tilegx36
  p.model_link_contention = true;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  Fp fp;
  for (Tid i = 1; i < C; ++i) {
    s.spawn([&, i] {
      sim::Xoshiro256 rng(3000 + i);
      std::uint64_t w[4] = {i, 0, 0, 0};
      for (int m = 0; m < 40; ++m) {
        w[1] = m;
        udn.send(i, 0, i % udn.n_queues(), w, 1 + (i + m) % 4);
        s.wait_for(rng.below(60));
      }
    });
  }
  // One receiver fiber per queue so a queue awaiting words never wedges the
  // drain of the others (credits are shared across the whole buffer).
  for (std::uint32_t q = 0; q < 4; ++q) {
    s.spawn([&, q] {
      std::uint64_t expect = 0;
      for (Tid i = 1; i < C; ++i)
        if (i % 4 == q)
          for (int m = 0; m < 40; ++m) expect += 1 + (i + m) % 4;
      std::uint64_t in[4];
      while (expect > 0) {
        const std::size_t n = expect < 4 ? expect : 4;
        udn.receive(0, q, in, n);
        expect -= n;
        fp.mix(in[0] + q);
      }
    });
  }
  const Cycle end = s.run();
  expect_gold(gold_of(fp, end, udn),
              ModelGold{12387181692252717492ull, 3533, 1400, 3500, 1117, 118,
                        1400, 7200, 16438});
}

// Scenario: multi-chip 8x8 mesh carved into a 2x2 chip grid with link
// contention — all-to-one traffic crossing inter-chip boundaries in both
// axes. Pins the chip-crossing surcharge (arch::MachineParams::chips_x/y,
// chip_hop_extra) end to end: default-path wire latencies AND the NoC
// contention model's per-link extras (docs/MODEL.md).
ModelGold run_multichip(std::uint32_t chips_x, std::uint32_t chips_y,
                        Cycle chip_extra) {
  arch::MachineParams p;
  p.mesh_w = 8;
  p.mesh_h = 8;
  p.chips_x = chips_x;
  p.chips_y = chips_y;
  p.chip_hop_extra = chip_extra;
  p.model_link_contention = true;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  Fp fp;
  for (Tid i = 1; i < C; ++i) {
    s.spawn([&, i] {
      sim::Xoshiro256 rng(6000 + i);
      std::uint64_t w[4] = {i, 0, 0, 0};
      for (int m = 0; m < 20; ++m) {
        w[1] = m;
        udn.send(i, 0, i % udn.n_queues(), w, 1 + (i + m) % 4);
        s.wait_for(rng.below(80));
      }
    });
  }
  for (std::uint32_t q = 0; q < 4; ++q) {
    s.spawn([&, q] {
      std::uint64_t expect = 0;
      for (Tid i = 1; i < C; ++i)
        if (i % 4 == q)
          for (int m = 0; m < 20; ++m) expect += 1 + (i + m) % 4;
      std::uint64_t in[4];
      while (expect > 0) {
        const std::size_t n = expect < 4 ? expect : 4;
        udn.receive(0, q, in, n);
        expect -= n;
        fp.mix(in[0] + q);
      }
    });
  }
  const Cycle end = s.run();
  return gold_of(fp, end, udn);
}

TEST(GoldenTrace, MultiChipMesh2x2) {
  expect_gold(run_multichip(2, 2, 12),
              ModelGold{8276535421541217655ull, 3172, 1260, 3150, 1001, 118,
                        1260, 8960, 27114});
}

// The chip surcharge must actually cost cycles: the identical traffic on
// the same 8x8 mesh as one monolithic chip finishes sooner and waits less
// on links (same message/hop counts — routes are unchanged).
TEST(GoldenTrace, MultiChipSurchargeSlowsIdenticalTraffic) {
  const ModelGold mono = run_multichip(1, 1, 12);
  const ModelGold quad = run_multichip(2, 2, 12);
  EXPECT_EQ(mono.msgs, quad.msgs);
  EXPECT_EQ(mono.noc_hops, quad.noc_hops);
  EXPECT_LT(mono.end, quad.end);
  EXPECT_NE(mono.fp, quad.fp);  // completion order shifts under the extras
}

// Scenario: the delegation servers (MP-SERVER, MP-SERVER-HUB,
// VLINK-SERVER and a 2-shard ShardedServer fleet) end to end on the 6x6
// TILE-Gx, in three client modes: sync apply(), 4-deep async trains reaped
// in reverse, and 6-deep trains against a 2-credit Section 6 guard (the
// drain-while-spinning path). The fleet runs over an 8-object counter farm,
// and over a queue farm where every third op is a queue_transfer. Every
// returned value, the final cycle, the UDN and vlink counters and the
// summed SyncStats fold into one fingerprint, so any change to the order of
// a client's or server's context operations shows up here. With `explore`
// set a PCT perturber stalls threads at the sync-layer exploration points,
// so the order of those points is pinned too.
enum class Deleg { kMp, kHub, kVlink, kFleet, kFleetTransfer };

struct DelegMode {
  std::uint32_t train;  ///< 0 = synchronous apply()
  std::uint64_t max_inflight;
  bool explore = false;
};

struct DelegGold {
  std::uint64_t fp;
  Cycle end;
};

template <class Server, class Op>
void drive_client(rt::SimCtx& ctx, Server& srv, Op op, DelegMode mode,
                  std::uint64_t ops, Fp& fp) {
  std::uint64_t k = 0;
  while (k < ops) {
    if (mode.train == 0) {
      fp.mix(srv.apply(ctx, op, k++));
    } else {
      sync::Ticket t[8];
      std::uint32_t n = 0;
      for (; n < mode.train && k < ops; ++n, ++k) {
        t[n] = srv.apply_async(ctx, op, k);
      }
      while (n-- > 0) fp.mix(srv.wait(ctx, t[n]));
    }
    ctx.compute(ctx.rand_below(20));
  }
}

using Fleet = sync::ShardedServer<rt::SimCtx>;
constexpr std::uint64_t kFarm = 8;

// The fleet behind drive_client's one-argument calls: op k goes to farm
// object k % kFarm. On a queue farm op k enqueues k, dequeues or (every
// third op) moves the head of object k % kFarm to object (k + 3) % kFarm.
struct FleetClient {
  Fleet& f;
  bool queues;

  std::uint64_t apply(rt::SimCtx& ctx, harness::reg::Fn fn, std::uint64_t k) {
    if (!queues) return f.apply(ctx, fn, k % kFarm, k);
    if (k % 3 == 2) return f.queue_transfer(ctx, k % kFarm, (k + 3) % kFarm);
    return f.apply(ctx, queue_op(k), k % kFarm, k);
  }
  sync::Ticket apply_async(rt::SimCtx& ctx, harness::reg::Fn fn,
                           std::uint64_t k) {
    if (!queues) return f.apply_async(ctx, fn, k % kFarm, k);
    if (k % 3 == 2) return f.transfer_async(ctx, k % kFarm, (k + 3) % kFarm);
    return f.apply_async(ctx, queue_op(k), k % kFarm, k);
  }
  std::uint64_t wait(rt::SimCtx& ctx, sync::Ticket& t) {
    return f.wait(ctx, t);
  }

  static harness::reg::Fn queue_op(std::uint64_t k) {
    return k % 3 == 0 ? &harness::reg::farm_enq : &harness::reg::farm_deq;
  }
};

// The PCT plan every explored GoldenTrace row runs under.
check::PerturbPlan explore_plan(std::uint32_t nthreads) {
  check::PerturbPlan plan;
  plan.seed = 29;
  plan.nthreads = nthreads;
  plan.resume_permille = 100;
  plan.delay_unit = 7;
  plan.point_permille = 400;
  plan.point_delay_max = 60;
  return plan;
}

DelegGold run_delegation(Deleg kind, DelegMode mode) {
  constexpr std::uint32_t kClients = 5;
  constexpr std::uint64_t kOps = 24;
  const bool fleet = kind == Deleg::kFleet || kind == Deleg::kFleetTransfer;
  const std::uint32_t servers = fleet ? 2 : 1;
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), /*seed=*/11);
  check::PctPerturber perturber(explore_plan(servers + kClients));
  if (mode.explore) ex.sched().set_perturber(&perturber);
  ds::SeqCounter counter;
  sync::MpServer<rt::SimCtx> mp(0, &counter, mode.max_inflight);
  sync::MpServerHub<rt::SimCtx> hub(0, mode.max_inflight);
  const std::uint64_t opcode =
      hub.add_op(ds::counter_inc<rt::SimCtx>, &counter);
  sync::VlinkServer<rt::SimCtx> vl(ex.machine().vlink(), /*server_core=*/0,
                                   &counter, mode.max_inflight);
  ds::SeqCounter counters[kFarm];
  ds::SeqQueue queues[kFarm];
  const bool transfers = kind == Deleg::kFleetTransfer;
  Fleet fl(servers, transfers ? static_cast<void*>(queues) : counters, kFarm,
           mode.max_inflight,
           transfers ? Fleet::TransferHooks{&harness::reg::farm_deq,
                                            &harness::reg::farm_enq}
                     : Fleet::TransferHooks{});
  FleetClient fc{fl, transfers};
  Fp fp;
  std::uint32_t done = 0;
  for (std::uint32_t s = 0; s < servers; ++s) {
    ex.add_thread([&, s](rt::SimCtx& ctx) {
      switch (kind) {
        case Deleg::kMp: mp.serve(ctx); break;
        case Deleg::kHub: hub.serve(ctx); break;
        case Deleg::kVlink: vl.serve(ctx); break;
        case Deleg::kFleet:
        case Deleg::kFleetTransfer: fl.serve(ctx, s); break;
      }
    });
  }
  for (std::uint32_t i = 0; i < kClients; ++i) {
    ex.add_thread([&](rt::SimCtx& ctx) {
      const auto fn = ds::counter_inc<rt::SimCtx>;
      switch (kind) {
        case Deleg::kMp: drive_client(ctx, mp, fn, mode, kOps, fp); break;
        case Deleg::kHub: drive_client(ctx, hub, opcode, mode, kOps, fp); break;
        case Deleg::kVlink: drive_client(ctx, vl, fn, mode, kOps, fp); break;
        case Deleg::kFleet:
        case Deleg::kFleetTransfer:
          drive_client(ctx, fc, &harness::reg::farm_inc, mode, kOps, fp);
          break;
      }
      if (++done < kClients) return;
      switch (kind) {
        case Deleg::kMp: mp.request_stop(ctx); break;
        case Deleg::kHub: hub.request_stop(ctx); break;
        case Deleg::kVlink: vl.request_stop(ctx); break;
        case Deleg::kFleet:
        case Deleg::kFleetTransfer: fl.request_stop(ctx); break;
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  const Cycle end = ex.sched().now();
  fp.mix(end);
  if (fleet) {
    for (const ds::SeqCounter& c : counters) fp.mix(c.value.load());
  } else {
    fp.mix(counter.value.load());
  }
  const auto& u = ex.machine().udn().counters();
  fp.mix(u.messages);
  fp.mix(u.words);
  fp.mix(u.sender_blocks);
  fp.mix(ex.machine().vlink().counters().frames);
  sync::SyncStats sum;
  for (Tid t = 0; t < servers + kClients; ++t) {
    switch (kind) {
      case Deleg::kMp: sum.add(mp.stats(t)); break;
      case Deleg::kHub: sum.add(hub.stats(t)); break;
      case Deleg::kVlink: sum.add(vl.stats(t)); break;
      case Deleg::kFleet:
      case Deleg::kFleetTransfer: sum.add(fl.stats(t)); break;
    }
  }
  for (std::uint64_t v : {sum.ops, sum.served, sum.tenures, sum.cas_attempts,
                          sum.cas_failures, sum.throttle_waits,
                          sum.stall_timeouts, sum.async_issued,
                          sum.async_batched, sum.shed_ops}) {
    fp.mix(v);
  }
  return DelegGold{fp.h, end};
}

// Prints a row set in initializer form when it mismatches, so an intended
// change can be re-pinned from the test log.
void expect_deleg(const char* what, const std::vector<DelegGold>& got,
                  const std::vector<DelegGold>& want) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].fp == want[i].fp && got[i].end == want[i].end;
  }
  EXPECT_TRUE(same) << what << " fingerprints moved";
  if (same) return;
  std::printf("%s:\n", what);
  for (const DelegGold& g : got) {
    std::printf("      {%lluull, %llu},\n",
                static_cast<unsigned long long>(g.fp),
                static_cast<unsigned long long>(g.end));
  }
}

TEST(GoldenTrace, DelegationServers) {
  const DelegMode modes[] = {{0, 0}, {4, 0}, {6, 2}};
  const Deleg kinds[] = {Deleg::kMp, Deleg::kHub, Deleg::kVlink};
  // Captured before the three servers shared one implementation.
  // The hub's opcode dispatch costs the same as a function-pointer word, so
  // its rows equal MP-SERVER's.
  const DelegGold want[3][3] = {
      {{1095110174791489449ull, 1556},
       {10063303110184695849ull, 1626},
       {11736511866052694915ull, 14670}},
      {{1095110174791489449ull, 1556},
       {10063303110184695849ull, 1626},
       {11736511866052694915ull, 14670}},
      {{5577288771900219386ull, 2488},
       {13566339914958610853ull, 2479},
       {12826561513551345387ull, 16714}},
  };
  for (int k = 0; k < 3; ++k) {
    for (int m = 0; m < 3; ++m) {
      const DelegGold got = run_delegation(kinds[k], modes[m]);
      EXPECT_EQ(got.fp, want[k][m].fp) << "server " << k << " mode " << m;
      EXPECT_EQ(got.end, want[k][m].end) << "server " << k << " mode " << m;
    }
  }
}

// The fleet rows: the counter farm in the three modes, then the queue farm
// with transfers in the three modes. Captured before the fleet ran on the
// delegation template.
TEST(GoldenTrace, ShardedFleet) {
  std::vector<DelegGold> got;
  for (const Deleg kind : {Deleg::kFleet, Deleg::kFleetTransfer}) {
    for (const DelegMode mode : {DelegMode{0, 0}, DelegMode{4, 0},
                                 DelegMode{6, 2}}) {
      got.push_back(run_delegation(kind, mode));
    }
  }
  expect_deleg("ShardedFleet", got,
               {{12776352986764616441ull, 1658},
                {1771215901919223368ull, 1325},
                {12035625177796229661ull, 10495},
                {11897305164362969751ull, 3430},
                {13946419964670542850ull, 3345},
                {882933143356150403ull, 11369}});
}

// Every server with schedule exploration on, sync and guarded trains.
// Captured before the fleet ran on the delegation template.
TEST(GoldenTrace, DelegationServersExplored) {
  std::vector<DelegGold> got;
  for (const Deleg kind : {Deleg::kMp, Deleg::kHub, Deleg::kVlink,
                           Deleg::kFleet, Deleg::kFleetTransfer}) {
    for (const DelegMode mode : {DelegMode{0, 0, true},
                                 DelegMode{6, 2, true}}) {
      got.push_back(run_delegation(kind, mode));
    }
  }
  expect_deleg("DelegationServersExplored", got,
               {{11369954168821577496ull, 5023},
                {9201812417743502400ull, 16929},
                {11369954168821577496ull, 5023},
                {9201812417743502400ull, 16929},
                {3781602992385818643ull, 6045},
                {9426103712401512121ull, 17096},
                {17869143419225310514ull, 3605},
                {9005778355489743447ull, 13426},
                {1206754592154941132ull, 7303},
                {5806096976949204409ull, 14857}});
}

// The list combiners: 13 threads on the 6x6 TILE-Gx (three H-Synch
// clusters) each apply 24 counter increments with random think time between
// them. Every return value, the end cycle, the coherence counters and the
// summed SyncStats fold into the fingerprint.
struct ListCombRun {
  DelegGold gold;
  std::uint64_t cas_failures;
};

template <class Uc>
ListCombRun run_list_combiner(std::uint32_t max_ops, bool explore,
                              bool trace) {
  constexpr std::uint32_t kThreads = 13;
  constexpr std::uint64_t kOps = 24;
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), /*seed=*/11);
  if (trace) ex.machine().tracer().enable();
  check::PctPerturber perturber(explore_plan(kThreads));
  if (explore) ex.sched().set_perturber(&perturber);
  ds::SeqCounter counter;
  Uc uc(&counter, max_ops);
  Fp fp;
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    ex.add_thread([&](rt::SimCtx& ctx) {
      for (std::uint64_t k = 0; k < kOps; ++k) {
        fp.mix(uc.apply(ctx, ds::counter_inc<rt::SimCtx>, k));
        ctx.compute(ctx.rand_below(20));
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  const Cycle end = ex.sched().now();
  fp.mix(end);
  fp.mix(counter.value.load());
  const auto& c = ex.machine().coherence().counters();
  for (std::uint64_t v : {c.hits, c.rmr_reads, c.rmr_writes, c.atomics,
                          c.invalidations, c.ctrl_wait_total}) {
    fp.mix(v);
  }
  sync::SyncStats sum;
  for (Tid t = 0; t < kThreads; ++t) sum.add(uc.stats(t));
  for (std::uint64_t v : {sum.ops, sum.served, sum.tenures, sum.cas_attempts,
                          sum.cas_failures, sum.throttle_waits,
                          sum.stall_timeouts, sum.async_issued,
                          sum.async_batched, sum.shed_ops}) {
    fp.mix(v);
  }
  return {DelegGold{fp.h, end}, sum.cas_failures};
}

// Rows per construction (CC-Synch, H-Synch, DSM-Synch): max_ops 1 and 200,
// each plain and explored. Captured before the three shared one core. The
// same rows with the tracer on must match too: spans have no observer
// effect.
TEST(GoldenTrace, ListCombiners) {
  for (const bool trace : {false, true}) {
    std::vector<DelegGold> got;
    std::uint64_t dsm_cas_failures = 0;
    auto rows = [&](auto run) {
      for (const std::uint32_t max_ops : {1u, 200u}) {
        for (const bool explore : {false, true}) {
          const ListCombRun r = run(max_ops, explore, trace);
          got.push_back(r.gold);
          dsm_cas_failures += r.cas_failures;  // only DSM-Synch CASes
        }
      }
    };
    rows(run_list_combiner<sync::CcSynch<rt::SimCtx>>);
    rows(run_list_combiner<sync::HSynch<rt::SimCtx>>);
    rows(run_list_combiner<sync::DsmSynch<rt::SimCtx>>);
    // DSM-Synch's termination race (a successor swaps itself in between
    // the combiner's last next-load and its CAS) is among the pinned paths.
    EXPECT_GT(dsm_cas_failures, 0u) << "trace " << trace;
    expect_deleg(trace ? "ListCombiners (traced)" : "ListCombiners", got,
                 {{2726260398939653574ull, 41466},
                  {12377291013255021163ull, 72754},
                  {16357149045321898392ull, 15687},
                  {2376871118808661759ull, 27553},
                  {11364274915701800863ull, 54212},
                  {11670885769221172830ull, 88072},
                  {10394485476704911540ull, 21318},
                  {16851672304230573960ull, 41847},
                  {18202861370003340699ull, 42476},
                  {17624699319659277707ull, 73189},
                  {11019558587528232292ull, 21185},
                  {6318856639443356795ull, 42395}});
  }
}

// ---------------------------------------------------------------------------
// GoldenHarness: every harness driver pinned end to end. Each closed-loop
// and service run is fingerprinted by an FNV-1a hash of its full
// hmps-metrics-v2 run entry (config, results, sync_stats, machine,
// cycle_accounts, telemetry), each recorded run by a hash of its history.
// The constants were captured before the drivers shared one construction
// registry; any refactor of src/harness/ must reproduce them bit for bit.
// ---------------------------------------------------------------------------

std::uint64_t fnv_bytes(const std::string& s) {
  Fp f;
  for (const unsigned char c : s) f.mix(c);
  return f.h;
}

// Runs `run` with a metrics sink and hashes the one run entry it adds.
// `scrub`, when given, may edit the entry first (to exclude a field).
std::uint64_t artifact_hash(
    const std::function<void(const harness::RunObs&)>& run,
    const std::function<void(obs::JsonValue&)>& scrub = {}) {
  obs::MetricsRegistry reg;
  harness::RunObs o;
  o.metrics = &reg;
  o.label = "golden";
  run(o);
  obs::JsonValue& entry = reg.root()["runs"].items().at(0);
  if (scrub) scrub(entry);
  return fnv_bytes(entry.dump(-1));
}

// Prints the captured hashes in initializer form when a row mismatches,
// so an intended change can be re-pinned from the test log.
void expect_hashes(const char* what, const std::vector<std::uint64_t>& got,
                   const std::vector<std::uint64_t>& want) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = got[i] == want[i];
  }
  EXPECT_TRUE(same) << what << " fingerprints moved";
  if (same) return;
  std::printf("%s:\n", what);
  for (const std::uint64_t h : got) {
    std::printf("      0x%016llxull,\n", static_cast<unsigned long long>(h));
  }
}

harness::RunCfg golden_run_cfg() {
  harness::RunCfg cfg;
  cfg.app_threads = 4;
  cfg.warmup = 4'000;
  cfg.window = 20'000;
  cfg.reps = 2;
  cfg.seed = 5;
  return cfg;
}

TEST(GoldenHarness, RunCounter) {
  using harness::Approach;
  const Approach all[] = {
      Approach::kMpServer,  Approach::kHybComb,   Approach::kShmServer,
      Approach::kCcSynch,   Approach::kMcsLock,   Approach::kClhLock,
      Approach::kTicketLock, Approach::kTasLock,  Approach::kTtasLock,
      Approach::kVlinkServer};
  std::vector<std::uint64_t> got;
  auto add = [&](harness::RunCfg cfg, Approach a) {
    got.push_back(artifact_hash([&](const harness::RunObs& o) {
      cfg.obs = o;
      harness::run_counter(cfg, a);
    }));
  };
  for (const Approach a : all) {
    harness::RunCfg cfg = golden_run_cfg();
    cfg.telemetry_window = 3'000;  // covers each construction's gauges
    add(cfg, a);
  }
  for (const Approach a : all) {
    harness::RunCfg cfg = golden_run_cfg();
    cfg.async_batch = 4;  // inert for the constructions without tickets
    add(cfg, a);
  }
  // Section 6 guards, the Fig. 4a fixed combiner and the Fig. 4c array CS.
  harness::RunCfg guarded = golden_run_cfg();
  guarded.max_inflight = 2;
  guarded.async_batch = 4;
  add(guarded, Approach::kMpServer);
  add(guarded, Approach::kHybComb);
  add(guarded, Approach::kVlinkServer);
  harness::RunCfg fixed = golden_run_cfg();
  fixed.fixed_combiner = true;
  fixed.cs_iters = 6;
  add(fixed, Approach::kHybComb);
  add(fixed, Approach::kCcSynch);
  add(fixed, Approach::kMpServer);
  expect_hashes("RunCounter", got, {
      0xf77bd4da80f1e470ull,
      0xc75451549049565dull,
      0xd5cf9c0995ab4efaull,
      0x52edfd0290d6b4c0ull,
      0xab5b15912696a9c9ull,
      0x8d80f5934f90d1d3ull,
      0x7c8b5e6dd743ae08ull,
      0x7eba345fcb0c8343ull,
      0x2655d263e15f39ecull,
      0x8406e46919f6f59eull,
      0x8962752a14933396ull,
      0x61e2caf8c17aa706ull,
      0x461aa19e75c2a050ull,
      0x82890332b8f0462dull,
      0x146f6a3fdca1d84dull,
      0x06d6e8eff6e5fdf8ull,
      0x2d3d199234eba58bull,
      0x4fdd09b596738819ull,
      0xa4fb4e9eee874262ull,
      0xaba608111e67cd40ull,
      0xec080c5acfa85482ull,
      0xb8d80b9f8335c288ull,
      0x9098b830ed88a59full,
      0xd3a5afa359824d3bull,
      0x99a2b2d329362a61ull,
      0xad40130118c14082ull,
  });
}

// The combining lineage and the HybComb ablations, reached through the same
// closed loop as the paper's four (ext_combiners, abl_hybcomb_variants).
TEST(GoldenHarness, RunCounterLineage) {
  using harness::Approach;
  std::vector<std::uint64_t> got;
  for (const Approach a :
       {Approach::kOyama, Approach::kFlatCombining, Approach::kDsmSynch,
        Approach::kHSynch, Approach::kHybCombSwap,
        Approach::kHybCombNoDrain}) {
    harness::RunCfg cfg = golden_run_cfg();
    cfg.max_ops = 8;
    got.push_back(artifact_hash([&](const harness::RunObs& o) {
      cfg.obs = o;
      harness::run_counter(cfg, a);
    }));
  }
  expect_hashes("RunCounterLineage", got, {
      0xfc4b003976146a64ull,
      0x101e9c590cbe6afeull,
      0xd9282b69812b59c0ull,
      0x136a4bcc4fb10cdaull,
      0x02c839bade5f6a5cull,
      0xe045f1bc8a1b9260ull,
  });
}

TEST(GoldenHarness, RunQueueAndStack) {
  using harness::QueueImpl;
  using harness::StackImpl;
  const QueueImpl queues[] = {QueueImpl::kMp1, QueueImpl::kHyb1,
                              QueueImpl::kShm1, QueueImpl::kCc1,
                              QueueImpl::kMp2, QueueImpl::kLcrq,
                              QueueImpl::kVl1};
  const StackImpl stacks[] = {StackImpl::kMp,  StackImpl::kHyb,
                              StackImpl::kShm, StackImpl::kCc,
                              StackImpl::kTreiber, StackImpl::kVl};
  std::vector<std::uint64_t> got;
  for (const std::uint32_t batch : {0u, 4u}) {
    for (const QueueImpl q : queues) {
      got.push_back(artifact_hash([&](const harness::RunObs& o) {
        harness::RunCfg cfg = golden_run_cfg();
        cfg.async_batch = batch;  // only the one-lock MP queue batches
        cfg.telemetry_window = batch ? 0 : 3'000;
        cfg.obs = o;
        harness::run_queue(cfg, q);
      }));
    }
    for (const StackImpl s : stacks) {
      got.push_back(artifact_hash([&](const harness::RunObs& o) {
        harness::RunCfg cfg = golden_run_cfg();
        cfg.async_batch = batch;  // stacks never batch
        cfg.telemetry_window = batch ? 0 : 3'000;
        cfg.obs = o;
        harness::run_stack(cfg, s);
      }));
    }
  }
  expect_hashes("RunQueueAndStack", got, {
      0x34e4c20b423c0f21ull,
      0x181e1127d8fa7a95ull,
      0x286bd14efe586252ull,
      0x6414e219fcc10792ull,
      0x39f456b763217514ull,
      0x0f61d2553ca3ef57ull,
      0x366ab339a3da76a5ull,
      0x0fa879d9355c1d2cull,
      0x447b2a3ab12e3b81ull,
      0x0aa54e868c849650ull,
      0x5798b034aa003347ull,
      0xb1696663e79a45b6ull,
      0x84e925c2241f0dedull,
      0x501a209ba0471410ull,
      0x27b692f13b8b6895ull,
      0x486549f23d537a3dull,
      0x4e74f2b98c05ffc0ull,
      0xb1c577bdc09f43b8ull,
      0x64b311ab836b07e1ull,
      0x8240bc5ba4a30310ull,
      0x9b0a09e7608f4e44ull,
      0x63113ce89611c099ull,
      0x724850e5266f10d7ull,
      0x4abad911fb390145ull,
      0xf580b9b75d916690ull,
      0x0aedf93ce6abb98aull,
  });
}

harness::ServiceCfg golden_service_cfg() {
  harness::ServiceCfg cfg;
  cfg.base.warmup = 4'000;
  cfg.base.window = 30'000;
  cfg.base.reps = 1;
  cfg.base.seed = 3;
  cfg.base.telemetry_window = 4'000;
  cfg.sessions = 4;
  cfg.objects = 4;
  cfg.offered_mops = 60;  // past most knees: sheds and full trains
  cfg.queue_cap = 6;
  return cfg;
}

TEST(GoldenHarness, RunService) {
  using harness::Approach;
  const Approach all[] = {Approach::kMpServer, Approach::kHybComb,
                          Approach::kShmServer, Approach::kCcSynch,
                          Approach::kVlinkServer};
  std::vector<std::uint64_t> got;
  auto add = [&](harness::ServiceCfg cfg, Approach a) {
    got.push_back(artifact_hash([&](const harness::RunObs& o) {
      cfg.base.obs = o;
      harness::run_service(cfg, a);
    }));
  };
  for (const bool queue : {false, true}) {
    for (const std::uint32_t batch : {0u, 4u}) {
      for (const Approach a : all) {
        harness::ServiceCfg cfg = golden_service_cfg();
        cfg.queue_object = queue;
        cfg.base.async_batch = batch;
        add(cfg, a);
      }
    }
  }
  // Bursty arrivals, drop-oldest shedding and the overflow guard.
  harness::ServiceCfg bursty = golden_service_cfg();
  bursty.arrival = harness::ArrivalModel::kMmpp;
  bursty.shed = harness::ShedPolicy::kDropOldest;
  bursty.base.max_inflight = 3;
  bursty.base.async_batch = 4;
  add(bursty, Approach::kMpServer);
  add(bursty, Approach::kHybComb);
  expect_hashes("RunService", got, {
      0x720a6cb3c9d6e054ull,
      0x2f99b0d3e4e27ea6ull,
      0x0e2367f34934d991ull,
      0x353e5e092f3df22aull,
      0xce616698cebe7955ull,
      0xbf172cf73f0ed0d6ull,
      0xf411256fc5e21389ull,
      0xe7d5d5a62c41979eull,
      0x0bdea43f7ef0e176ull,
      0x87d3bec10819204cull,
      0xa63cffd4750b937eull,
      0xd053c330962c86eaull,
      0x0781942159b54635ull,
      0x678b34bea6aef508ull,
      0x1e70524d020730d9ull,
      0xf4a2c551f4ae8c0bull,
      0x07de4570c05b125aull,
      0xe00e753e19bbae55ull,
      0xaf90401677ffd6c4ull,
      0xc6483b732ad16d0bull,
      0x29ba732e547e2950ull,
      0xe3ff193b921976b1ull,
  });
}

TEST(GoldenHarness, RunServiceSharded) {
  std::vector<std::uint64_t> got;
  std::vector<std::uint64_t> batched;
  for (const bool queue : {false, true}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      for (const std::uint32_t batch : {0u, 4u}) {
        harness::ServiceCfg cfg = golden_service_cfg();
        cfg.queue_object = queue;
        cfg.shards = shards;
        cfg.objects = 16;
        cfg.base.async_batch = batch;
        cfg.base.max_inflight = queue ? 3 : 0;
        got.push_back(artifact_hash(
            [&](const harness::RunObs& o) {
              cfg.base.obs = o;
              harness::run_service_sharded(cfg);
            },
            [&](obs::JsonValue& run) {
              // The async rows' train count is pinned separately below.
              obs::JsonValue& f = run["sync_stats"]["async_batched"];
              if (batch) batched.push_back(f.as_uint());
              f = obs::JsonValue(std::uint64_t{0});
            }));
      }
    }
  }
  expect_hashes("RunServiceSharded", got, {
      0xb8afe11fca257383ull,
      0x9c4e9ab816a18578ull,
      0x2637ff53768395a0ull,
      0xf18e475aba27ac2aull,
      0x6a94f86e80912fffull,
      0x56966b7dc3be0e6bull,
      0x969327993a9b9710ull,
      0x604333a484dd7a31ull,
  });
  // Ops the async rows completed in trains (sync_stats.async_batched),
  // pinned apart from the hashes: the one field that moved when the fleet
  // started counting its trains through sync::AsyncBatcher.
  EXPECT_EQ(batched, (std::vector<std::uint64_t>{1601, 1601, 308, 468}));
}

std::uint64_t history_hash(const harness::RecordResult& r) {
  Fp f;
  f.mix(r.completed);
  f.mix(r.end_time);
  f.mix(r.finished_threads);
  f.mix(r.total_client_threads);
  for (const harness::OpRecord& op : r.history) {
    f.mix(op.thread);
    f.mix(op.obj);
    f.mix(static_cast<std::uint64_t>(op.kind));
    f.mix(op.arg);
    f.mix(op.ret);
    f.mix(op.invoke);
    f.mix(op.response);
  }
  return f.h;
}

TEST(GoldenHarness, RecordHistory) {
  std::vector<std::uint64_t> got;
  for (const std::uint32_t depth : {0u, 4u}) {
    for (std::uint32_t c = 0; c < harness::kNumConstructions; ++c) {
      for (std::uint32_t o = 0; o < harness::kNumObjects; ++o) {
        harness::RecordCfg cfg;
        cfg.seed = 9 + c;
        cfg.construction = static_cast<harness::Construction>(c);
        cfg.object = static_cast<harness::Object>(o);
        cfg.threads = 3;
        cfg.ops_each = 6;
        cfg.async_depth = depth;
        cfg.shards = 2;
        got.push_back(history_hash(harness::record_history(cfg)));
      }
    }
  }
  expect_hashes("RecordHistory", got, {
      0x492ed46d167ff5b9ull,
      0x0ca9f1a4fd7f32a2ull,
      0x0df48f4c60a2f58full,
      0x2a10a4771d5fe305ull,
      0x083d0a35548c1fcaull,
      0xdbc3cf5e24f582b0ull,
      0x5d5f04a9c1be35c6ull,
      0xbc601d0d323c4141ull,
      0x7a9a3126867477c9ull,
      0x588f3a8aa19dbff1ull,
      0xfb6b20d79fe6ad56ull,
      0x4c3f1ff9a466ea41ull,
      0xc48a7a5a8a9257dbull,
      0x38705d8f248eb931ull,
      0xc8e7335b1b0f20e1ull,
      0xb94bbc2e434213ceull,
      0x991f874f50599c98ull,
      0x162d2acd75f52934ull,
      0x8a0e8017de939ec5ull,
      0xe75be2f4f401b10eull,
      0xe1a6196f549e8460ull,
      0x775db23c753cf523ull,
      0xb0b6cddbe1ae0b6full,
      0xefc25e0a998a4cb8ull,
      0x9a63f80d8625648bull,
      0x90e56e9794ccd0e4ull,
      0xce6d5d583f67bca2ull,
      0xdaab103873bc4bdeull,
      0x8dfa4b0924bf0ffdull,
      0x2d27f60ea0c774d9ull,
      0x88cc75a7dac76f8full,
      0x4f80e53b2b87520eull,
      0x93d262a8c9a2b2f9ull,
      0x53aa3818b6808241ull,
      0x2276a1044b1e80a1ull,
      0x9315fa0ebee01ffdull,
      0xd4169210e1e200feull,
      0xd98e0c89b2907be1ull,
      0xa9198e2a473c8ab5ull,
      0x27317ab174fef0f1ull,
      0xdf4e32c81cabc58aull,
      0x8289d0b7daef954full,
      0x7ac0dd241569deabull,
      0x26791bc7658be21dull,
      0xe5c98ee0a1b512a4ull,
      0x8c55ba16d95a9540ull,
      0x0245b74dd52a34fcull,
      0x32311bd2a15056acull,
      0x61303222d217b774ull,
      0x6d623f758d1b568dull,
      0x3ec92858fe0b6767ull,
      0x1f0b89d151e180ddull,
      0xf1c45f9d84a34868ull,
      0x3ec92858fe0b6767ull,
      0x3ec92858fe0b6767ull,
      0x663a60632a371d17ull,
      0x98aa2e854902f49cull,
      0xb8d9e83dbeb627aeull,
      0x4f27f1f7bc724909ull,
      0x09479aadc730ed98ull,
      0x42bc65b7f1b3cb9aull,
      0x9f89f1011d5618faull,
      0x5b2791f68b833a8dull,
      0x2a10a4771d5fe305ull,
      0x083d0a35548c1fcaull,
      0x9d809135e04bc50aull,
      0x2e85c4ac8eae39c4ull,
      0x17e3a906b552c905ull,
      0x7a9a3126867477c9ull,
      0x588f3a8aa19dbff1ull,
      0xeddc53ae88547bb5ull,
      0x8414e80253f25f9bull,
      0xddfc5d3c684016e9ull,
      0x38705d8f248eb931ull,
      0xc8e7335b1b0f20e1ull,
      0xb94bbc2e434213ceull,
      0x991f874f50599c98ull,
      0x162d2acd75f52934ull,
      0x8a0e8017de939ec5ull,
      0xe75be2f4f401b10eull,
      0xe1a6196f549e8460ull,
      0x775db23c753cf523ull,
      0xb0b6cddbe1ae0b6full,
      0xefc25e0a998a4cb8ull,
      0x9a63f80d8625648bull,
      0x90e56e9794ccd0e4ull,
      0xce6d5d583f67bca2ull,
      0xdaab103873bc4bdeull,
      0x8dfa4b0924bf0ffdull,
      0x2d27f60ea0c774d9ull,
      0x88cc75a7dac76f8full,
      0x4f80e53b2b87520eull,
      0x93d262a8c9a2b2f9ull,
      0x53aa3818b6808241ull,
      0x2276a1044b1e80a1ull,
      0x9315fa0ebee01ffdull,
      0xd4169210e1e200feull,
      0xd98e0c89b2907be1ull,
      0xa9198e2a473c8ab5ull,
      0x27317ab174fef0f1ull,
      0xdf4e32c81cabc58aull,
      0x8289d0b7daef954full,
      0x7ac0dd241569deabull,
      0x26791bc7658be21dull,
      0xe5c98ee0a1b512a4ull,
      0x372e8f6bd07b815cull,
      0xabc115e06ae4365cull,
      0xbf3e20c48b4b2a80ull,
      0x61303222d217b774ull,
      0x6d623f758d1b568dull,
      0x55bd9789f69c4bd9ull,
      0x2331ab30ec79057full,
      0xf41197ec1f5332aaull,
      0x55bd9789f69c4bd9ull,
      0x55bd9789f69c4bd9ull,
      0x752b582443d5391dull,
      0x57ffc8e6562475ccull,
      0x46d012a140d5a4f4ull,
      0x4f27f1f7bc724909ull,
      0x09479aadc730ed98ull,
  });
}

// Credit windows and preemption windows, shaped like sec6_overflow's fault
// scenarios.
sim::FaultPlan golden_fault_plan(std::uint64_t seed, sim::Cycle period) {
  sim::FaultPlan fp;
  fp.seed = seed;
  fp.credit_period = period;
  fp.credit_duration = period / 4;
  fp.credit_pct = 25;
  fp.preempt_period = period * 3 / 4;
  fp.preempt_duration = period / 10;
  return fp;
}

// The closed and open loops under a fault plan, then the same rows with a
// trace sink attached: the traced rows hash the run entry (its `trace`
// block included) and the merged Chrome trace, so the order of every
// traced event is pinned too.
TEST(GoldenHarness, FaultedAndTraced) {
  using harness::Approach;
  struct Row {
    Approach a;
    std::uint64_t max_inflight;
    sim::Cycle stall_timeout;
    std::uint32_t batch;
  };
  const Row rows[] = {{Approach::kMpServer, 0, 0, 0},
                      {Approach::kMpServer, 8, 0, 4},
                      {Approach::kHybComb, 0, 0, 0},
                      {Approach::kHybComb, 8, 1'500, 4},
                      {Approach::kCcSynch, 0, 0, 0}};
  std::vector<std::uint64_t> got;
  for (const bool traced : {false, true}) {
    // Hashes one run's entry and, when traced, its merged trace.
    auto add = [&](const std::function<void(const harness::RunObs&)>& run) {
      sim::Tracer sink;
      const std::uint64_t h = artifact_hash([&](const harness::RunObs& o) {
        harness::RunObs obs = o;
        if (traced) obs.trace = &sink;
        run(obs);
      });
      std::ostringstream chrome;
      sink.write_chrome_json(chrome);
      got.push_back(traced ? h ^ fnv_bytes(chrome.str()) : h);
    };
    for (const Row& row : rows) {
      harness::RunCfg cfg = golden_run_cfg();
      cfg.faults = golden_fault_plan(cfg.seed, 8'000);
      cfg.max_inflight = row.max_inflight;
      cfg.stall_timeout = row.stall_timeout;
      cfg.async_batch = row.batch;
      add([&](const harness::RunObs& o) {
        cfg.obs = o;
        harness::run_counter(cfg, row.a);
      });
    }
    for (const Row& row : rows) {
      harness::ServiceCfg cfg = golden_service_cfg();
      cfg.base.faults = golden_fault_plan(cfg.base.seed, 8'000);
      cfg.base.max_inflight = row.max_inflight;
      cfg.base.stall_timeout = row.stall_timeout;
      cfg.base.async_batch = row.batch;
      add([&](const harness::RunObs& o) {
        cfg.base.obs = o;
        harness::run_service(cfg, row.a);
      });
    }
  }
  expect_hashes("FaultedAndTraced", got, {
      0x1f1ad5337bb79595ull,
      0x9cb501763a7fca7bull,
      0xbe1e3f1054d42fa3ull,
      0x9b3388d8b4c3fe00ull,
      0xd7465c77fdc3a7f4ull,
      0x6d00a05a460df70dull,
      0x67f126ead95a3f5bull,
      0x986d0f47cfb75cb9ull,
      0x0530d42bee5c6a92ull,
      0xba6d472080f28354ull,
      0x95ea80ae897777f3ull,
      0xd7b163c85643528bull,
      0xb9f73e547cef6f1bull,
      0x734c5337ed8f6f73ull,
      0x9d50156ad02a3e9dull,
      0x6e112d788666e018ull,
      0x70935cde896dce71ull,
      0xad8cbc16a658d067ull,
      0x009098a601938668ull,
      0xdd78378ad8b6755dull,
  });
}

// record_history under a fault plan and under a PCT perturber, synchronous
// and with async trains, on a counter and a queue.
TEST(GoldenHarness, RecordHistoryFaultedAndExplored) {
  std::vector<std::uint64_t> got;
  for (const bool explored : {false, true}) {
    for (const std::uint32_t depth : {0u, 4u}) {
      for (std::uint32_t c = 0; c < harness::kNumConstructions; ++c) {
        for (const harness::Object o :
             {harness::Object::kCounter, harness::Object::kQueue}) {
          harness::RecordCfg cfg;
          cfg.seed = 13 + c;
          cfg.construction = static_cast<harness::Construction>(c);
          cfg.object = o;
          cfg.threads = 3;
          cfg.ops_each = 8;
          cfg.async_depth = depth;
          cfg.shards = 2;
          if (!explored) cfg.faults = golden_fault_plan(cfg.seed, 1'200);
          check::PctPerturber pct(explore_plan(cfg.threads + 2));
          got.push_back(history_hash(
              harness::record_history(cfg, explored ? &pct : nullptr)));
        }
      }
    }
  }
  expect_hashes("RecordHistoryFaultedAndExplored", got, {
      0x610a50cf227c1a98ull,
      0x9e4a1a5e67d4ff9dull,
      0x6a31d88527362c90ull,
      0x472c6b32be17093cull,
      0x983beeb93936d85eull,
      0xb1212c26ad440238ull,
      0x6b971bd324b22050ull,
      0xac060c99813d49aeull,
      0x6ecb3df1d8a650fdull,
      0xacd51a6817527a39ull,
      0x88e9fb473d090b68ull,
      0x6dd6504fb1853a09ull,
      0xa1e7a6614a1fc087ull,
      0x9bf35df096ababd7ull,
      0x547d61bbafd57ae1ull,
      0xab6661dfe0d25dc3ull,
      0x26dc778bfda88c77ull,
      0xd7d2f2456e6a94e4ull,
      0xa5b5eb230e11ef79ull,
      0x25de3dc8ca1a3f86ull,
      0xf240b0b0f6b6a7a3ull,
      0x1f39465695582d1aull,
      0x8d70b4cabac3d30cull,
      0x19fe559b780892d8ull,
      0xdb7287a7c9c4e622ull,
      0xc680d0b18ebe637bull,
      0xd8c1ebe563eb2a6bull,
      0x894d228e2171da71ull,
      0xbd8f347e2393a839ull,
      0x559eb503470ee2d7ull,
      0x6b971bd324b22050ull,
      0xac060c99813d49aeull,
      0x6ecb3df1d8a650fdull,
      0xacd51a6817527a39ull,
      0x88e9fb473d090b68ull,
      0x6dd6504fb1853a09ull,
      0xa1e7a6614a1fc087ull,
      0x9bf35df096ababd7ull,
      0x547d61bbafd57ae1ull,
      0xab6661dfe0d25dc3ull,
      0x26dc778bfda88c77ull,
      0xd7d2f2456e6a94e4ull,
      0x25fa6789ed807b47ull,
      0xc8a5c06c10a6f129ull,
      0x757c67ea763e836eull,
      0xc26cdd163fee9f5full,
      0x8dd3f8d0477ef1cbull,
      0x049f55f09fb599deull,
      0x8e3edb4b4a512be4ull,
      0x9e6fc4d2e269c6c6ull,
      0xd0bd473a5c7d6f98ull,
      0xd9b938b13c0cc4f6ull,
      0x35adf8008d275325ull,
      0x7694c8e08a43ae78ull,
      0xd5e2e86620e9c3a6ull,
      0xc2ba6f4957802888ull,
      0xd3fefa5b1e05cdf0ull,
      0x71077abf0ad5e0cdull,
      0x2095384a924c5979ull,
      0x7d52a561cba25700ull,
      0x43b6d55b405be76cull,
      0x5c6d76289002f267ull,
      0x1dd3d09029822859ull,
      0xb70ef6ffba35d8b1ull,
      0xca03d0c5dbb860f8ull,
      0x72258270f696f697ull,
      0x5b97c70edab60a24ull,
      0xc74e576b98586308ull,
      0xb1bc441438c51acaull,
      0xb176dc0e12de4948ull,
      0xd469df57eca8a8ceull,
      0x5e2314eb4399a589ull,
      0x106b6d771168f9aaull,
      0x1fd5637c5a16e8c0ull,
      0x3a412a45b90db139ull,
      0xa439616bea9ee2dfull,
      0x80eb80218096c4d0ull,
      0xd7bde0a3845556b7ull,
      0xd5e2e86620e9c3a6ull,
      0xc2ba6f4957802888ull,
      0xd3fefa5b1e05cdf0ull,
      0x71077abf0ad5e0cdull,
      0x2095384a924c5979ull,
      0x7d52a561cba25700ull,
      0x43b6d55b405be76cull,
      0x5c6d76289002f267ull,
      0x1dd3d09029822859ull,
      0xb70ef6ffba35d8b1ull,
      0xca03d0c5dbb860f8ull,
      0x72258270f696f697ull,
      0x40085010d976ff4full,
      0x617c000953a07da4ull,
      0x6ae774038df57f4eull,
      0x944b1b465e6301ceull,
      0xc61b4fb72befbe93ull,
      0x909a0be7e0f72082ull,
  });
}

// ---------------------------------------------------------------------------
// Zero-allocation contract.
// ---------------------------------------------------------------------------

// Raw event queue: once warmed up, schedule/pop cycles of hot-path-sized
// callbacks (inline in the event record) must not touch the heap at all.
TEST(ZeroAlloc, EventQueueSteadyState) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  // Warmup: grow the slot pool to its high-water mark AND run the schedule
  // pattern through a full timing-wheel revolution so every bucket reaches
  // its per-round capacity.
  Cycle t = 0;
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 256; ++i) {
      q.schedule(t + 1 + i % 7, [&fired, i] { fired += i; });
    }
    while (!q.empty()) q.pop(&t)();
  }

  const std::uint64_t allocs_before = g_allocs.load();
  const auto spills_before = q.counters().spill_allocs;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      q.schedule(t + 1 + i % 7, [&fired, i] { fired += i; });
    }
    while (!q.empty()) q.pop(&t)();
  }
  EXPECT_EQ(g_allocs.load() - allocs_before, 0u);
  EXPECT_EQ(q.counters().spill_allocs - spills_before, 0u);
  EXPECT_GT(fired, 0u);
}

// Whole engine: a UDN ping-pong in steady state — fiber switches, event
// scheduling, message staging, blocking receives, waiter wakeups — must be
// allocation-free per round trip.
TEST(ZeroAlloc, UdnPingPongSteadyState) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  std::uint64_t rounds = 0;
  std::uint64_t allocs_at_steady = 0;
  s.spawn([&] {
    std::uint64_t w[3] = {1, 2, 3};
    for (;;) {
      udn.send(0, 5, 0, w, 3);
      udn.receive(0, 1, w, 3);
      if (++rounds == 1000) allocs_at_steady = g_allocs.load();
      if (rounds == 11000) {
        s.stop();
        return;
      }
    }
  });
  s.spawn([&] {
    std::uint64_t w[3];
    for (;;) {
      udn.receive(5, 0, w, 3);
      udn.send(5, 0, 1, w, 3);
    }
  });
  s.run();
  EXPECT_EQ(rounds, 11000u);
  EXPECT_EQ(g_allocs.load() - allocs_at_steady, 0u);
  EXPECT_EQ(s.engine_counters().spill_allocs, 0u);
}

// Machine set-up: the event-queue buckets share one slab and the UDN keeps
// its rings and per-core arrays flat, so building a machine costs the same
// small number of allocations at every mesh shape. The first build of each
// shape is left out of the count (function-local statics, lazily built
// tables shared across machines).
TEST(ZeroAlloc, MachineSetupIsShapeIndependent) {
  std::vector<std::uint64_t> costs;
  for (const auto& [w, h] : {std::pair{2u, 2u}, {6u, 6u}, {16u, 16u}}) {
    arch::MachineParams p = arch::MachineParams::tilegx_small(w, h);
    { arch::Machine warm(p); }
    const std::uint64_t before = g_allocs.load();
    { arch::Machine m(p); }
    costs.push_back(g_allocs.load() - before);
  }
  EXPECT_LE(costs[0], 32u) << costs[0] << " allocations per machine";
  EXPECT_EQ(costs[1], costs[0]);
  EXPECT_EQ(costs[2], costs[0]);
}

// The complete linearizability search reuses per-depth saved states and a
// flat memo, so its allocations are a per-call constant, not per node. The
// wide history: nine overlapping enqueues of one value, then nine
// sequential dequeues whose last return is corrupted, so the search walks
// every subset of enqueues (the memo merges their orders) before failing.
// The serial one: the same ops run one after another.
TEST(ZeroAlloc, LinearizableSearchAllocatesPerCall) {
  using harness::OpKind;
  using harness::OpRecord;
  std::vector<OpRecord> wide, serial;
  for (std::uint64_t i = 1; i <= 9; ++i) {
    wide.push_back(OpRecord{0, OpKind::kEnq, 7, 0, 0, 100});
    serial.push_back(OpRecord{0, OpKind::kEnq, 7, 0, 10 * i, 10 * i + 5});
  }
  for (std::uint64_t i = 1; i <= 9; ++i) {
    const std::uint64_t ret = i == 9 ? 99 : 7;
    wide.push_back(OpRecord{0, OpKind::kDeq, 0, ret, 100 + 10 * i,
                            105 + 10 * i});
    serial.push_back(OpRecord{0, OpKind::kDeq, 0, ret, 100 + 10 * i,
                              105 + 10 * i});
  }
  const harness::SeqSpec spec = harness::queue_spec();
  // Node counts, through the budget: the wide search needs more than
  // 1,000 nodes, the serial one no more than 20.
  ASSERT_TRUE(harness::linearizable(wide, spec, 1000).inconclusive);
  ASSERT_FALSE(harness::linearizable(serial, spec, 20).inconclusive);

  const auto allocs_of = [&](const std::vector<OpRecord>& h) {
    const std::uint64_t before = g_allocs.load();
    const harness::CheckResult r = harness::linearizable(h, spec);
    const std::uint64_t n = g_allocs.load() - before;
    EXPECT_FALSE(r.ok);
    return n;
  };
  const std::uint64_t wide_allocs = allocs_of(wide);
  const std::uint64_t serial_allocs = allocs_of(serial);
  EXPECT_LE(wide_allocs, serial_allocs)
      << "wide " << wide_allocs << " vs serial " << serial_allocs;
}

// Fuzz the (time, seq) total order across the timing wheel's near/far split:
// random deltas up to 5000 cycles land events in both the wheel (< 1024) and
// the overflow heap (>= 1024), including equal times in both structures.
// Whatever the internal placement, the fired sequence must be exactly the
// events sorted by (time, schedule order).
TEST(EventQueueOrder, WheelOverflowFuzz) {
  sim::EventQueue q;
  sim::Xoshiro256 rng(77);
  struct Rec {
    Cycle time;
    std::uint64_t seq;
  };
  std::vector<Rec> fired;
  std::uint64_t seq = 0;
  Cycle now = 0;
  const auto schedule_one = [&] {
    const Cycle t = now + rng.below(5000);
    const std::uint64_t s = seq++;
    q.schedule(t, [&fired, t, s] { fired.push_back(Rec{t, s}); });
  };
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t n = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < n; ++k) schedule_one();
    for (std::uint64_t k = rng.below(4); k > 0 && !q.empty(); --k) {
      q.pop(&now)();
    }
  }
  while (!q.empty()) q.pop(&now)();

  ASSERT_EQ(fired.size(), seq);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    const bool ordered = fired[i - 1].time < fired[i].time ||
                         (fired[i - 1].time == fired[i].time &&
                          fired[i - 1].seq < fired[i].seq);
    ASSERT_TRUE(ordered) << "misordered at index " << i;
  }
}

// The self-counters must account for every event exactly once. Two fibers
// with overlapping waits keep each other's resume pending, so the waits go
// through the event queue rather than the wait_until fast path.
TEST(EngineCounters, ScheduledMatchesExecuted) {
  sim::Scheduler s;
  int ticks = 0;
  s.spawn([&] {
    for (; ticks < 100; ++ticks) s.wait_for(3);
  });
  s.spawn([&] {
    while (ticks < 100) s.wait_for(3);
  });
  s.run();
  const auto& c = s.engine_counters();
  EXPECT_EQ(c.scheduled, c.executed);
  EXPECT_GE(c.scheduled, 100u);
  EXPECT_GE(c.peak_depth, 1u);
}

// A lone fiber's waits never race another event, so they are satisfied by
// fast-forwarding the clock: no events beyond the initial spawn resume.
TEST(EngineCounters, LoneFiberWaitsFastForward) {
  sim::Scheduler s;
  int ticks = 0;
  s.spawn([&] {
    for (; ticks < 100; ++ticks) s.wait_for(3);
  });
  const sim::Cycle end = s.run();
  EXPECT_EQ(end, 300u);
  const auto& c = s.engine_counters();
  EXPECT_EQ(c.scheduled, 1u);  // the spawn resume only
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.fast_forwards, 100u);
}

}  // namespace
}  // namespace hmps
