// Sharded delegation (docs/SHARDING.md): rendezvous-hash distribution
// bounds, per-object linearizability of concurrent multi-shard clients,
// queue_transfer conservation (no lost or duplicated elements) under fault
// injection, per-shard credit/stats scoping at the client-count ceiling,
// and serial-vs-pooled artifact byte identity for the sharded service
// sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "check/explore.hpp"
#include "check/repro.hpp"
#include "check/gen.hpp"
#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "harness/artifact.hpp"
#include "harness/record.hpp"
#include "harness/run_pool.hpp"
#include "harness/service.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/sharded.hpp"

namespace hmps {
namespace {

using harness::Construction;
using harness::Object;
using harness::OpKind;
using harness::OpRecord;
using harness::RecordCfg;
using rt::SimCtx;
using rt::SimExecutor;
using Sharded = sync::ShardedServer<SimCtx>;

// ---- rendezvous hashing -----------------------------------------------

TEST(ShardHash, RouteTableMatchesShardOfAndIsStable) {
  const auto table = sync::shard_route_table(512, 8);
  ASSERT_EQ(table.size(), 512u);
  for (std::uint64_t o = 0; o < 512; ++o) {
    EXPECT_LT(table[o], 8u);
    EXPECT_EQ(table[o], sync::shard_of(o, 8));
    EXPECT_EQ(sync::shard_of(o, 8), sync::shard_of(o, 8));
  }
}

TEST(ShardHash, RendezvousMinimalDisruption) {
  // Growing the fleet by one shard must only move objects *to* the new
  // shard — every object whose home changes lands on the added shard
  // (the defining property of rendezvous hashing).
  for (std::uint32_t shards = 2; shards < 8; ++shards) {
    for (std::uint64_t o = 0; o < 256; ++o) {
      const std::uint32_t before = sync::shard_of(o, shards);
      const std::uint32_t after = sync::shard_of(o, shards + 1);
      if (after != before) {
        EXPECT_EQ(after, shards);
      }
    }
  }
}

TEST(ShardHash, LoadBalanceWithinBound) {
  // ISSUE 9 acceptance: max/mean shard load <= 1.25 at 1k objects.
  for (std::uint32_t shards = 2; shards <= 8; ++shards) {
    const double ratio = sync::shard_load_max_over_mean(1000, shards);
    EXPECT_LE(ratio, 1.25) << "shards=" << shards;
    EXPECT_GE(ratio, 1.0) << "shards=" << shards;
  }
  // No shard may be starved either.
  const auto loads = sync::shard_load_counts(1000, 8);
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_GT(loads[s], 0u) << "shard " << s << " owns no objects";
  }
}

// ---- per-object linearizability of multi-shard clients ----------------

check::Scenario sharded_scenario(std::uint64_t seed, Object obj,
                                 std::uint32_t shards,
                                 std::uint32_t async_depth) {
  check::Scenario s;
  s.cfg.seed = seed;
  s.cfg.construction = Construction::kSharded;
  s.cfg.object = obj;
  s.cfg.shards = shards;
  s.cfg.threads = 6;
  s.cfg.ops_each = 10;
  s.cfg.async_depth = async_depth;
  check::clamp_cfg(s.cfg);
  s.perturb.nthreads =
      s.cfg.threads + harness::server_threads(s.cfg.construction, s.cfg.shards);
  return s;
}

TEST(ShardedLinearizability, CounterQueueStackAcrossSeeds) {
  for (const Object obj : {Object::kCounter, Object::kQueue, Object::kStack}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      for (const std::uint32_t depth : {0u, 3u}) {
        const check::Scenario s =
            sharded_scenario(seed * 7919, obj, 2 + seed % 7, depth);
        const check::Violation v = check::run_scenario(s);
        EXPECT_FALSE(v.found)
            << harness::to_string(obj) << " seed " << seed << " depth "
            << depth << ": [" << v.kind << "] " << v.detail;
      }
    }
  }
}

// ---- queue_transfer conservation under fault injection ----------------

// Replays the recorded history as per-object multiset accounting: every
// dequeued value must have been enqueued on that same object beforehand
// (transfers contribute the delegated enqueue on the destination), no
// value is dequeued more often than enqueued, and nothing is both.
void check_conservation(const std::vector<OpRecord>& hist,
                        std::uint64_t seed) {
  std::map<std::uint32_t, std::multiset<std::uint64_t>> enq, deq;
  for (const OpRecord& r : hist) {
    if (r.kind == OpKind::kEnq) {
      enq[r.obj].insert(r.arg);
    } else if (r.kind == OpKind::kDeq && r.ret != harness::kNothing) {
      deq[r.obj].insert(r.ret);
    }
  }
  for (const auto& [obj, values] : deq) {
    for (const std::uint64_t v : values) {
      EXPECT_LE(values.count(v), enq[obj].count(v))
          << "seed " << seed << " obj " << obj << ": value " << v
          << " dequeued more often than enqueued (duplicated element)";
    }
  }
  // Loss detection: total elements may legitimately remain in the queues
  // at the end of the run, but a value can never vanish from one object
  // and also fail to appear at its transfer destination — the transfer's
  // enqueue record is written iff the dequeue returned an element, so
  // every deq is covered above and every enq is either consumed or
  // residual. Residuals must not exceed what was enqueued.
  for (const auto& [obj, values] : enq) {
    EXPECT_GE(values.size(), deq[obj].size()) << "seed " << seed;
  }
}

TEST(ShardedTransfer, ConservationUnderFaultInjection) {
  // Many seeds, every fault family (delay, jitter, preemption), transfers
  // active (queue object). The exploration harness runs thousands more
  // schedules in CI; this is the directed conservation check.
  std::uint64_t transfers_seen = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RecordCfg cfg;
    cfg.seed = seed * 104729;
    cfg.construction = Construction::kSharded;
    cfg.object = Object::kQueue;
    cfg.shards = 2 + static_cast<std::uint32_t>(seed % 7);
    cfg.threads = 5;
    cfg.ops_each = 12;
    cfg.async_depth = seed % 3 == 0 ? 3 : 0;
    cfg.faults.seed = cfg.seed ^ 0xFA0175;
    switch (seed % 3) {
      case 0:
        cfg.faults.delay_permille = 150;
        cfg.faults.delay_min = 10;
        cfg.faults.delay_max = 2000;
        break;
      case 1:
        cfg.faults.jitter_permille = 200;
        cfg.faults.jitter_max = 100;
        break;
      case 2:
        cfg.faults.preempt_period = 50'000;
        cfg.faults.preempt_duration = 5'000;
        break;
    }
    check::clamp_cfg(cfg);
    const auto res = harness::record_history(cfg);
    ASSERT_TRUE(res.completed) << "seed " << seed << " hung";
    check_conservation(res.history, seed);
    for (const OpRecord& r : res.history) {
      // A transfer's delegated enqueue shares its bracket with the
      // source dequeue; count enqueues recorded by consumer mix draws.
      if (r.kind == OpKind::kEnq) ++transfers_seen;
    }
  }
  EXPECT_GT(transfers_seen, 0u);
}

// ---- satellite 4: per-shard credits and stats at the client ceiling ---

TEST(ShardedCapacity, TwoShardsTimes64ClientsNoCapacityAbort) {
  // Regression: check_tid/stats arrays and max_inflight credits are scoped
  // per shard and indexed by client *slot* (tid - shards), so a 2-shard
  // fleet serves the full kMaxClients complement without tripping the
  // capacity guards that a global tid-indexed layout would hit.
  arch::MachineParams p = arch::MachineParams::tilegx36();
  p.mesh_w = 16;
  p.mesh_h = 16;
  p.udn_buf_words = 1024;  // 64 clients x 3-word frames on shared demux
  SimExecutor ex(p, 42);

  // 8 objects: under 2-shard rendezvous hashing ids {4, 6, 7} home on
  // shard 1, so both shards see traffic (4 objects would all land on 0).
  ds::SeqCounter counters[8];
  struct Farm {
    ds::SeqCounter* c;
  } farm{counters};
  struct Body {
    static std::uint64_t inc(SimCtx& ctx, void* o, std::uint64_t a) {
      auto* f = static_cast<Farm*>(o);
      return ds::counter_inc(ctx, &f->c[(a >> 32) % 8], 0);
    }
  };

  constexpr std::uint32_t kShards = 2;
  constexpr std::uint32_t kClients = Sharded::kMaxClients;  // 64
  // max_inflight 2: per-shard credits; a global pool would throttle to
  // starvation (or abort) with 64 clients x trains over 2 shards.
  Sharded sh(kShards, &farm, 8, /*max_inflight=*/2);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ex.add_thread([&sh, s](SimCtx& ctx) { sh.serve(ctx, s); });
  }
  std::uint32_t done = 0;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    ex.add_thread([&, c](SimCtx& ctx) {
      sync::Ticket t[8];
      for (std::uint32_t j = 0; j < 8; ++j) {
        t[j] = sh.apply_async(ctx, &Body::inc, j, 0);
      }
      for (std::uint32_t j = 8; j-- > 0;) sh.wait(ctx, t[j]);
      sh.apply(ctx, &Body::inc, c % 8, 0);
      ++done;
      if (done == kClients) sh.request_stop(ctx);
    });
  }
  ex.run_until(100'000'000);
  EXPECT_EQ(done, kClients);
  std::uint64_t total = 0;
  for (std::uint32_t j = 0; j < 8; ++j) {
    total += counters[j].value.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kClients) * 9);
  // Per-shard serve accounting: both shards actually served requests.
  EXPECT_GT(sh.stats(0).served, 0u);
  EXPECT_GT(sh.stats(1).served, 0u);
  EXPECT_EQ(sh.inflight(), 0u);
}

// ---- tag-field hard bounds --------------------------------------------

struct OneCounterFarm {
  ds::SeqCounter* c;
  static std::uint64_t inc(SimCtx& ctx, void* o, std::uint64_t) {
    return ds::counter_inc(ctx, static_cast<OneCounterFarm*>(o)->c, 0);
  }
};

TEST(ShardedTagBounds, SeqWrapsCleanlyWithNothingOutstanding) {
  // Drive one client's per-shard sequence to the last representable value:
  // the next issue uses seq == kSeqMask, the one after wraps back to 1 —
  // legal because no ticket from the previous epoch is outstanding.
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  SimExecutor ex(p, 5);
  ds::SeqCounter counter;
  OneCounterFarm farm{&counter};
  Sharded sh(2, &farm, 8);
  for (std::uint32_t s = 0; s < 2; ++s) {
    ex.add_thread([&sh, s](SimCtx& ctx) { sh.serve(ctx, s); });
  }
  std::vector<std::uint64_t> seqs;
  ex.add_thread([&](SimCtx& ctx) {
    const std::uint32_t shard = sh.shard_home(0);
    sh.debug_set_seq(0, shard, Sharded::kSeqMask);
    for (int i = 0; i < 3; ++i) {
      sync::Ticket t = sh.apply_async(ctx, &OneCounterFarm::inc, 0, 0);
      seqs.push_back(t.tag & Sharded::kSeqMask);
      sh.wait(ctx, t);  // reap before the next issue: the epoch is clean
    }
    sh.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs[0], Sharded::kSeqMask) << "boundary value must be usable";
  EXPECT_EQ(seqs[1], 1u) << "wrap restarts at 1 (tags stay nonzero)";
  EXPECT_EQ(seqs[2], 2u);
  EXPECT_EQ(counter.value.load(), 3u);
}

using ShardedDeathTest = ::testing::Test;

TEST(ShardedDeathTest, MoreThanMaxShardsAborts) {
  // A 33rd shard would spill out of tag bits [30:26]; the constructor must
  // die instead of silently colliding credits in release builds.
  ds::SeqCounter c;
  OneCounterFarm farm{&c};
  EXPECT_DEATH(Sharded sh(Sharded::kMaxShards + 1, &farm, 8),
               "exceed the 32-shard tag field");
}

TEST(ShardedDeathTest, SeqWraparoundWithOutstandingTicketAborts) {
  // Wrapping the 26-bit sequence while a previous-epoch ticket is still
  // outstanding on the same shard would recycle a live tag.
  EXPECT_DEATH(
      {
        arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
        SimExecutor ex(p, 5);
        ds::SeqCounter counter;
        OneCounterFarm farm{&counter};
        Sharded sh(2, &farm, 8);
        for (std::uint32_t s = 0; s < 2; ++s) {
          ex.add_thread([&sh, s](SimCtx& ctx) { sh.serve(ctx, s); });
        }
        ex.add_thread([&](SimCtx& ctx) {
          const std::uint32_t shard = sh.shard_home(0);
          (void)sh.apply_async(ctx, &OneCounterFarm::inc, 0, 0);
          sh.debug_set_seq(0, shard, Sharded::kSeqMask + 1);
          sh.apply_async(ctx, &OneCounterFarm::inc, 0, 0);  // must abort
          sh.wait_all(ctx);
          sh.request_stop(ctx);
        });
        ex.run_until(sim::kCycleMax);
      },
      "recycled tags would collide");
}

TEST(ShardedDeathTest, RecordedFleetPastMaxShardsAborts) {
  // A driver's shard count reaches the fleet as given: 33 shards must die
  // at construction, not silently run 32 while server_threads() reports 33.
  RecordCfg cfg;
  cfg.construction = Construction::kSharded;
  cfg.object = Object::kCounter;
  cfg.shards = Sharded::kMaxShards + 1;
  cfg.threads = 2;
  cfg.ops_each = 2;
  EXPECT_DEATH(harness::record_history(cfg), "exceed the 32-shard tag field");
}

// ---- serial vs pooled artifact identity -------------------------------

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void run_sharded_sweep(const std::string& json, std::uint32_t jobs) {
  const char* argv[] = {const_cast<char*>("sharded_sweep")};
  harness::BenchArgs args;
  args.json = json;
  harness::RunArtifacts art(args, "sharded_sweep", 1,
                            const_cast<char**>(argv));
  harness::RunPool pool(art, jobs);
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (double load : {8.0, 64.0}) {
      harness::ServiceCfg cfg;
      cfg.base.seed = 7;
      cfg.base.warmup = 5'000;
      cfg.base.window = 20'000;
      cfg.base.machine.mesh_w = 8;
      cfg.base.machine.mesh_h = 8;
      cfg.sessions = 8;
      cfg.objects = 32;
      cfg.zipf_s = 0.0;
      cfg.shards = shards;
      cfg.offered_mops = load;
      pool.submit("s" + std::to_string(shards) + "/o" +
                      std::to_string(static_cast<int>(load)),
                  [cfg](const harness::RunObs& obs) {
                    harness::ServiceCfg c = cfg;
                    c.base.obs = obs;
                    return harness::run_service_sharded(c);
                  });
    }
  }
  pool.drain();
  art.finalize();
}

TEST(ShardedService, PooledArtifactByteIdenticalToSerial) {
  const std::string sj = ::testing::TempDir() + "hmps_sharded_serial.json";
  const std::string pj = ::testing::TempDir() + "hmps_sharded_pool.json";
  run_sharded_sweep(sj, 1);
  run_sharded_sweep(pj, 4);
  const std::string serial = slurp(sj);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, slurp(pj));
  // The service block carries the shard count (schema consumers key on it).
  EXPECT_NE(serial.find("\"shards\""), std::string::npos);
}

// ---- repro schema round-trip with shards ------------------------------

TEST(ShardedRepro, SchemaRoundTripsShardCount) {
  check::Scenario s = sharded_scenario(99, Object::kQueue, 5, 2);
  check::Violation v;
  v.found = true;
  v.kind = "queue";
  v.detail = "obj 3: synthetic";
  const std::string json = check::repro_to_json(s, v);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  check::Scenario back;
  check::Violation vback;
  std::string err;
  ASSERT_TRUE(check::repro_from_json(json, &back, &vback, &err)) << err;
  EXPECT_EQ(back.cfg.shards, s.cfg.shards);
  EXPECT_EQ(back.cfg.construction, Construction::kSharded);
  EXPECT_EQ(vback.detail, v.detail);
}

TEST(ShardedRepro, RejectsShardsPastTheFleetBound) {
  // A repro file is outside input: an out-of-range shard count is an
  // error, not an abort at replay.
  check::Scenario s = sharded_scenario(99, Object::kQueue, 5, 2);
  s.cfg.shards = Sharded::kMaxShards + 1;
  check::Scenario back;
  std::string err;
  EXPECT_FALSE(check::repro_from_json(check::repro_to_json(s, {}), &back,
                                      nullptr, &err));
  EXPECT_NE(err.find("shards"), std::string::npos) << err;
  s.cfg.shards = Sharded::kMaxShards;
  EXPECT_TRUE(check::repro_from_json(check::repro_to_json(s, {}), &back,
                                     nullptr, &err))
      << err;
}

}  // namespace
}  // namespace hmps
