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
#include <cstdlib>
#include <new>

#include "arch/machine.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "ds/counter.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sync/delegation_server.hpp"
#include "sync/vlink_server.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook: global operator new/delete tally every heap
// allocation in the binary. Tests read the delta across a steady-state
// window to prove the engine allocates nothing per event/message.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
      for (int i = 0; i < 400; ++i) {
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

// Scenario: the three delegation servers (MP-SERVER, MP-SERVER-HUB,
// VLINK-SERVER) end to end on the 6x6 TILE-Gx, in three client modes: sync
// apply(), 4-deep async trains reaped in reverse, and 6-deep trains against
// a 2-credit Section 6 guard (the drain-while-spinning path). Every returned
// value, the final cycle, the UDN and vlink counters and the summed
// SyncStats fold into one fingerprint, so any change to the order of a
// client's or server's context operations shows up here.
enum class Deleg { kMp, kHub, kVlink };

struct DelegMode {
  std::uint32_t train;  ///< 0 = synchronous apply()
  std::uint64_t max_inflight;
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

DelegGold run_delegation(Deleg kind, DelegMode mode) {
  constexpr std::uint32_t kClients = 5;
  constexpr std::uint64_t kOps = 24;
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), /*seed=*/11);
  ds::SeqCounter counter;
  sync::MpServer<rt::SimCtx> mp(0, &counter, mode.max_inflight);
  sync::MpServerHub<rt::SimCtx> hub(0, mode.max_inflight);
  const std::uint64_t opcode =
      hub.add_op(ds::counter_inc<rt::SimCtx>, &counter);
  sync::VlinkServer<rt::SimCtx> vl(ex.machine().vlink(), /*server_core=*/0,
                                   &counter, mode.max_inflight);
  Fp fp;
  std::uint32_t done = 0;
  ex.add_thread([&](rt::SimCtx& ctx) {
    switch (kind) {
      case Deleg::kMp: mp.serve(ctx); break;
      case Deleg::kHub: hub.serve(ctx); break;
      case Deleg::kVlink: vl.serve(ctx); break;
    }
  });
  for (std::uint32_t i = 0; i < kClients; ++i) {
    ex.add_thread([&](rt::SimCtx& ctx) {
      const auto fn = ds::counter_inc<rt::SimCtx>;
      switch (kind) {
        case Deleg::kMp: drive_client(ctx, mp, fn, mode, kOps, fp); break;
        case Deleg::kHub: drive_client(ctx, hub, opcode, mode, kOps, fp); break;
        case Deleg::kVlink: drive_client(ctx, vl, fn, mode, kOps, fp); break;
      }
      if (++done < kClients) return;
      switch (kind) {
        case Deleg::kMp: mp.request_stop(ctx); break;
        case Deleg::kHub: hub.request_stop(ctx); break;
        case Deleg::kVlink: vl.request_stop(ctx); break;
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  const Cycle end = ex.sched().now();
  fp.mix(end);
  fp.mix(counter.value.load());
  const auto& u = ex.machine().udn().counters();
  fp.mix(u.messages);
  fp.mix(u.words);
  fp.mix(u.sender_blocks);
  fp.mix(ex.machine().vlink().counters().frames);
  sync::SyncStats sum;
  for (Tid t = 0; t <= kClients; ++t) {
    switch (kind) {
      case Deleg::kMp: sum.add(mp.stats(t)); break;
      case Deleg::kHub: sum.add(hub.stats(t)); break;
      case Deleg::kVlink: sum.add(vl.stats(t)); break;
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
