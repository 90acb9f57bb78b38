// Exactness oracle for parked spins (docs/ENGINE.md "Parked spins").
//
// SimCtx::spin_until parks a spinning fiber behind a poller only when the
// run has no perturber and no fault plan. A perturber whose hooks always
// return 0 changes nothing else in a run: every resume and every explore
// point is offered to it and delayed by 0 cycles. So a run with it is the
// plain-loop reference for the same run without it, and the two must agree
// on every simulated observable.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "arch/core.hpp"
#include "arch/machine.hpp"
#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "harness/record.hpp"
#include "obs/cycle_account.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/perturb.hpp"
#include "sim/rng.hpp"
#include "sync/ccsynch.hpp"
#include "sync/hybcomb.hpp"
#include "sync/locks.hpp"
#include "sync/shm_server.hpp"
#include "sync/universal.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using sim::Cycle;

class ZeroPerturber final : public sim::Perturber {
 public:
  Cycle resume_delay(std::uint32_t, Cycle) override { return 0; }
  Cycle point_delay(std::uint32_t, std::uint32_t, const char*,
                    Cycle) override {
    return 0;
  }
};

// ---- record_history: every construction ----

void expect_same_history(const harness::RecordCfg& cfg) {
  ZeroPerturber zero;
  const harness::RecordResult ref = harness::record_history(cfg, &zero);
  const harness::RecordResult got = harness::record_history(cfg, nullptr);
  EXPECT_TRUE(ref.completed);
  EXPECT_EQ(got.completed, ref.completed);
  EXPECT_EQ(got.finished_threads, ref.finished_threads);
  EXPECT_EQ(got.end_time, ref.end_time);
  ASSERT_EQ(got.history.size(), ref.history.size());
  for (std::size_t i = 0; i < ref.history.size(); ++i) {
    const harness::OpRecord& a = got.history[i];
    const harness::OpRecord& b = ref.history[i];
    EXPECT_EQ(a.thread, b.thread) << "op " << i;
    EXPECT_EQ(a.kind, b.kind) << "op " << i;
    EXPECT_EQ(a.arg, b.arg) << "op " << i;
    EXPECT_EQ(a.ret, b.ret) << "op " << i;
    EXPECT_EQ(a.invoke, b.invoke) << "op " << i;
    EXPECT_EQ(a.response, b.response) << "op " << i;
    EXPECT_EQ(a.obj, b.obj) << "op " << i;
  }
}

TEST(ParkedSpin, RecordHistoryMatchesPlainLoopForEveryConstruction) {
  for (std::uint32_t c = 0; c < harness::kNumConstructions; ++c) {
    for (const harness::Object o :
         {harness::Object::kCounter, harness::Object::kQueue}) {
      for (const std::uint32_t depth : {0u, 4u}) {
        harness::RecordCfg cfg;
        cfg.construction = static_cast<harness::Construction>(c);
        cfg.object = o;
        cfg.threads = 6;
        cfg.ops_each = 12;
        cfg.think_max = 30;
        cfg.async_depth = depth;
        SCOPED_TRACE(std::string(harness::to_string(cfg.construction)) + "/" +
                     harness::to_string(o) + "/depth" + std::to_string(depth));
        expect_same_history(cfg);
      }
    }
  }
}

// ---- SimExecutor: the spinning constructions, counter by counter ----

enum class Spinner {
  kShmSync,
  kShmAsync4,
  kCcSynch,
  kHSynch,
  kDsmSynch,
  kHybComb,
  kMcs,
  kClh,
  kTicket,
  kTtas,
};

const char* spinner_name(Spinner s) {
  switch (s) {
    case Spinner::kShmSync: return "shm-server";
    case Spinner::kShmAsync4: return "shm-server-async4";
    case Spinner::kCcSynch: return "CC-Synch";
    case Spinner::kHSynch: return "H-Synch";
    case Spinner::kDsmSynch: return "DSM-Synch";
    case Spinner::kHybComb: return "HybComb";
    case Spinner::kMcs: return "MCS";
    case Spinner::kClh: return "CLH";
    case Spinner::kTicket: return "ticket";
    case Spinner::kTtas: return "TTAS";
  }
  return "?";
}

struct Snapshot {
  std::vector<std::array<Cycle, obs::CycleAccount::kNumBuckets>> buckets;
  std::vector<Cycle> busy;
  std::vector<std::uint64_t> mem_ops;
  arch::CoherenceModel::Counters coh;
  std::uint64_t executed = 0;
  std::uint64_t fast_forwards = 0;
  std::uint64_t polled = 0;
  std::uint64_t moved = 0;  ///< poll steps that poll groups took whole
};

Snapshot snapshot(rt::SimExecutor& ex) {
  arch::Machine& m = ex.machine();
  m.settle_accounts();
  Snapshot s;
  for (std::uint32_t c = 0; c < m.cores(); ++c) {
    const arch::CoreState& cs = m.core(c);
    std::array<Cycle, obs::CycleAccount::kNumBuckets> b{};
    for (int i = 0; i < obs::CycleAccount::kNumBuckets; ++i) {
      b[i] = cs.account.bucket(static_cast<obs::CycleAccount::Bucket>(i));
    }
    s.buckets.push_back(b);
    s.busy.push_back(cs.busy);
    s.mem_ops.push_back(cs.mem_ops);
  }
  s.coh = m.coherence().counters();
  const sim::EngineCounters& ec = ex.sched().engine_counters();
  s.executed = ec.executed;
  s.fast_forwards = ec.fast_forwards;
  s.polled = ec.polled;
  s.moved = ec.moved_members;
  return s;
}

void expect_same(const Snapshot& got, const Snapshot& ref) {
  EXPECT_EQ(got.buckets, ref.buckets);
  EXPECT_EQ(got.busy, ref.busy);
  EXPECT_EQ(got.mem_ops, ref.mem_ops);
  EXPECT_EQ(got.coh.hits, ref.coh.hits);
  EXPECT_EQ(got.coh.rmr_reads, ref.coh.rmr_reads);
  EXPECT_EQ(got.coh.rmr_writes, ref.coh.rmr_writes);
  EXPECT_EQ(got.coh.atomics, ref.coh.atomics);
  EXPECT_EQ(got.coh.invalidations, ref.coh.invalidations);
  EXPECT_EQ(got.coh.ctrl_wait_total, ref.coh.ctrl_wait_total);
  EXPECT_EQ(got.executed, ref.executed);
  EXPECT_EQ(got.fast_forwards, ref.fast_forwards);
}

Snapshot run_spinner(Spinner k, sim::Perturber* perturber) {
  constexpr std::uint32_t kClients = 14;
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), 11);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);
  ds::SeqCounter counter;
  const bool shm = k == Spinner::kShmSync || k == Spinner::kShmAsync4;
  sync::ShmServer<SimCtx> shm_srv(0, &counter, kClients + 1,
                                  k == Spinner::kShmAsync4 ? 4 : 0);
  sync::CcSynch<SimCtx> cc(&counter, 8);
  sync::HSynch<SimCtx> hs(&counter, 8);
  sync::DsmSynch<SimCtx> dsm(&counter, 8);
  sync::HybComb<SimCtx> hyb(&counter, 8);
  sync::LockUc<SimCtx, sync::McsLock<SimCtx>> mcs(&counter);
  sync::LockUc<SimCtx, sync::ClhLock<SimCtx>> clh(&counter);
  sync::LockUc<SimCtx, sync::TicketLock<SimCtx>> ticket(&counter);
  sync::LockUc<SimCtx, sync::TtasLock<SimCtx>> ttas(&counter);
  const sync::CsFn<SimCtx> inc = ds::counter_inc<SimCtx>;
  auto apply = [&](SimCtx& ctx) {
    switch (k) {
      case Spinner::kShmSync:
      case Spinner::kShmAsync4: shm_srv.apply(ctx, inc, 0); break;
      case Spinner::kCcSynch: cc.apply(ctx, inc, 0); break;
      case Spinner::kHSynch: hs.apply(ctx, inc, 0); break;
      case Spinner::kDsmSynch: dsm.apply(ctx, inc, 0); break;
      case Spinner::kHybComb: hyb.apply(ctx, inc, 0); break;
      case Spinner::kMcs: mcs.apply(ctx, inc, 0); break;
      case Spinner::kClh: clh.apply(ctx, inc, 0); break;
      case Spinner::kTicket: ticket.apply(ctx, inc, 0); break;
      case Spinner::kTtas: ttas.apply(ctx, inc, 0); break;
    }
  };
  if (shm) ex.add_thread([&](SimCtx& ctx) { shm_srv.serve(ctx); });
  for (std::uint32_t i = 0; i < kClients; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (;;) {
        if (k == Spinner::kShmAsync4) {
          // A train of four tickets reaped newest first, then wait_all over
          // a second train: every spin site of the async client.
          sync::Ticket t[4];
          for (auto& x : t) x = shm_srv.apply_async(ctx, inc, 0);
          for (int j = 3; j >= 0; --j) shm_srv.wait(ctx, t[j]);
          for (auto& x : t) x = shm_srv.apply_async(ctx, inc, 0);
          shm_srv.wait_all(ctx);
        } else {
          apply(ctx);
        }
        ctx.compute(ctx.rand_below(60));
      }
    });
  }
  ex.run_until(150'000);
  return snapshot(ex);
}

TEST(ParkedSpin, SimExecutorCountersMatchPlainLoop) {
  for (const Spinner k :
       {Spinner::kShmSync, Spinner::kShmAsync4, Spinner::kCcSynch,
        Spinner::kHSynch, Spinner::kDsmSynch, Spinner::kHybComb, Spinner::kMcs,
        Spinner::kClh, Spinner::kTicket, Spinner::kTtas}) {
    SCOPED_TRACE(spinner_name(k));
    ZeroPerturber zero;
    const Snapshot ref = run_spinner(k, &zero);
    const Snapshot got = run_spinner(k, nullptr);
    expect_same(got, ref);
    // The comparison means something only if the poller engaged, and it
    // must stay off under any perturber.
    EXPECT_GT(got.polled, 0u);
    EXPECT_EQ(ref.polled, 0u);
  }
}

// ---- a spinner sharing its core ----
//
// Thread 0 spins on a word that thread 2, on the same core, keeps
// prefetching and loading and finally sets: the two poll conditions a
// remote writer never trips. A prefetch left outstanding by a core-mate
// changes the next load's timing (it takes the prefetch path), and the
// core-mate's own store leaves the line readable on this core while the
// word changes.

Snapshot run_shared_core(sim::Perturber* perturber, Cycle* done_at) {
  // Two cores: threads 0 and 2 share core 0.
  rt::SimExecutor ex(arch::MachineParams::tilegx_small(2, 1), 5);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);
  alignas(rt::kCacheLine) rt::Word flag{0};
  ex.add_thread([&](SimCtx& ctx) {
    ctx.spin_until(&flag, [](std::uint64_t v) { return v == 1; });
    *done_at = ctx.now();
  });
  ex.add_thread([&](SimCtx& ctx) {
    for (int i = 0; i < 200; ++i) {
      ctx.load(&flag);
      ctx.compute(1 + ctx.rand_below(50));
    }
  });
  ex.add_thread([&](SimCtx& ctx) {
    for (int i = 0; i < 400; ++i) {
      ctx.compute(ctx.rand_below(8));
      ctx.prefetch(&flag);
      ctx.load(&flag);
    }
    ctx.store(&flag, std::uint64_t{1});
  });
  ex.run_until(1'000'000);
  return snapshot(ex);
}

TEST(ParkedSpin, SharedCoreMatchesPlainLoop) {
  ZeroPerturber zero;
  Cycle ref_done = 0, got_done = 0;
  const Snapshot ref = run_shared_core(&zero, &ref_done);
  const Snapshot got = run_shared_core(nullptr, &got_done);
  expect_same(got, ref);
  EXPECT_EQ(got_done, ref_done);
  EXPECT_GT(ref_done, 0u);
  EXPECT_GT(got.polled, 0u);
}

// ---- the line hint across index growth ----
//
// A parked poller reaches its line by the line's id. Here the line index
// grows under parked spinners: a toucher on core 0 first-touches 900 fresh
// lines (the index starts at 1024 entries and grows at half load), which
// rehashes every line number. Then a writer on core 1 stores to the other
// word of each watched line, which takes the line from a spinner on core 0
// without changing the word it watches, and finally flips the watched
// words. A poller whose hint led to another line after the growth would
// most often test one that is readable on core 0, and take its next load
// for a hit. The lines are picked at random from a pool so that their
// index entries collide as often as random keys do.

struct GrowthRun {
  Snapshot snap;
  std::vector<Cycle> done_at;
  std::size_t lines_before = 0;
  std::size_t lines_after = 0;
};

constexpr std::uint32_t kGrowthSpinners = 64;
constexpr std::uint32_t kGrowthFresh = 900;
constexpr std::uint32_t kGrowthPool = 4096;

/// Pool indices: the first kGrowthSpinners are the watched lines, the next
/// kGrowthFresh the toucher's.
std::vector<std::uint32_t> growth_picks() {
  std::vector<std::uint32_t> idx(kGrowthPool);
  for (std::uint32_t i = 0; i < kGrowthPool; ++i) idx[i] = i;
  sim::Xoshiro256 rng(17);
  for (std::uint32_t i = kGrowthPool - 1; i > 0; --i) {
    std::swap(idx[i], idx[rng.below(i + 1)]);
  }
  idx.resize(kGrowthSpinners + kGrowthFresh);
  return idx;
}

GrowthRun run_table_growth(sim::Perturber* perturber,
                           const std::vector<std::uint32_t>& picks) {
  struct alignas(rt::kCacheLine) Line {
    rt::Word watched{0};
    rt::Word other{0};
  };
  // Two cores: thread t runs on core t % 2.
  rt::SimExecutor ex(arch::MachineParams::tilegx_small(2, 1), 3);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);
  std::vector<Line> pool(kGrowthPool);
  const auto watched = [&](std::uint32_t i) -> Line& {
    return pool[picks[i]];
  };
  GrowthRun r;
  r.done_at.assign(kGrowthSpinners, 0);
  ex.add_thread([&](SimCtx& ctx) {  // toucher, core 0
    ctx.compute(500);
    const arch::CoherenceModel& coh = ctx.machine().coherence();
    r.lines_before = coh.lines();
    for (std::uint32_t i = 0; i < kGrowthFresh; ++i) {
      ctx.load(&pool[picks[kGrowthSpinners + i]].watched);
      ctx.compute(ctx.rand_below(4));
    }
    r.lines_after = coh.lines();
  });
  ex.add_thread([&](SimCtx& ctx) {  // writer, core 1
    ctx.compute(200'000);
    for (std::uint32_t i = 0; i < kGrowthSpinners; ++i) {
      ctx.store(&watched(i).other, std::uint64_t{1});
      ctx.compute(ctx.rand_below(40));
    }
    for (std::uint32_t i = 0; i < kGrowthSpinners; ++i) {
      ctx.store(&watched(i).watched, std::uint64_t{1});
      ctx.compute(ctx.rand_below(40));
    }
  });
  for (std::uint32_t i = 0; i < kGrowthSpinners; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      ctx.spin_until(&watched(i).watched,
                     [](std::uint64_t v) { return v == 1; });
      r.done_at[i] = ctx.now();
    });
  }
  ex.run_until(1'000'000);
  r.snap = snapshot(ex);
  return r;
}

TEST(ParkedSpin, HintSurvivesLineTableGrowth) {
  const std::vector<std::uint32_t> picks = growth_picks();
  ZeroPerturber zero;
  const GrowthRun ref = run_table_growth(&zero, picks);
  const GrowthRun got = run_table_growth(nullptr, picks);
  expect_same(got.snap, ref.snap);
  EXPECT_EQ(got.done_at, ref.done_at);
  // The line index grew (it starts at 1024 entries and grows past 512
  // lines) while the spinners were parked, and every spinner saw its flip.
  EXPECT_LE(got.lines_before, 512u);
  EXPECT_GT(got.lines_after, 512u);
  for (const Cycle t : ref.done_at) EXPECT_GT(t, 200'000u);
  EXPECT_GT(got.snap.polled, 0u);
}

// ---- poll groups ----
//
// A poll group (docs/ENGINE.md "Poll groups") moves whole, without
// stepping its members, while no member's line was written, atomically
// updated, silently owned or prefetched since its last real check; the
// members' bookkeeping is settled later. Each scenario below runs a
// notification path or a settle point against the plain loop, and asserts
// that groups did move whole.

struct GroupRun {
  Snapshot snap;
  std::vector<Snapshot> snaps;  ///< the optional periodic snapshots
  std::uint64_t fp = 0;         ///< every value every spinner saw, and when
  std::string telemetry;        ///< the telemetry block, when on
  std::uint64_t combines = 0;
};

struct GroupCfg {
  arch::MachineParams machine = arch::MachineParams::tilegx36();
  Cycle snapshot_every = 0;    ///< run_until + snapshot cadence; 0: none
  Cycle telemetry_window = 0;  ///< 0: off
  Cycle end = 300'000;
};

void mix(std::uint64_t* h, std::uint64_t v) {
  *h ^= v;
  *h *= 1099511628211ull;
}

/// Runs `threads` thread bodies (thread t on core t % cores) under
/// `cfg`, then snapshots.
GroupRun run_group(const GroupCfg& cfg, sim::Perturber* perturber,
                   const std::function<void(rt::SimExecutor&, GroupRun&)>&
                       add_threads) {
  rt::SimExecutor ex(cfg.machine, 7);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);
  GroupRun r;
  r.fp = 14695981039346656037ull;
  add_threads(ex, r);
  obs::Telemetry tel(ex.machine(), {cfg.telemetry_window});
  tel.start(0, cfg.end);
  if (cfg.snapshot_every > 0) {
    for (Cycle t = cfg.snapshot_every; t < cfg.end; t += cfg.snapshot_every) {
      ex.run_until(t);
      r.snaps.push_back(snapshot(ex));
    }
  }
  ex.run_until(cfg.end);
  r.snap = snapshot(ex);  // settles the accounts
  tel.flush(cfg.end);
  if (tel.enabled()) r.telemetry = tel.to_json().dump();
  r.combines = ex.machine().coherence().combining().counters().combines;
  return r;
}

void expect_same_group(const GroupRun& got, const GroupRun& ref) {
  expect_same(got.snap, ref.snap);
  EXPECT_EQ(got.fp, ref.fp);
  ASSERT_EQ(got.snaps.size(), ref.snaps.size());
  for (std::size_t i = 0; i < ref.snaps.size(); ++i) {
    SCOPED_TRACE("snapshot " + std::to_string(i));
    expect_same(got.snaps[i], ref.snaps[i]);
  }
  EXPECT_EQ(got.telemetry, ref.telemetry);
  // Groups moved whole, and never under the plain loop.
  EXPECT_GT(got.snap.moved, 0u);
  EXPECT_EQ(ref.snap.moved, 0u);
}

struct alignas(rt::kCacheLine) GroupLine {
  rt::Word w{0};
};

/// 32 spinners, one per core, each on its own line and started together;
/// a writer on core 32 flips one watched word, picked at random, at random
/// times.
void lockstep_spinners(rt::SimExecutor& ex, GroupRun& r,
                       std::vector<GroupLine>& lines) {
  constexpr std::uint32_t kSpinners = 32;
  lines = std::vector<GroupLine>(kSpinners);
  for (std::uint32_t i = 0; i < kSpinners; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint64_t seen = 0;;) {
        seen = ctx.spin_until(&lines[i].w,
                              [seen](std::uint64_t v) { return v != seen; });
        mix(&r.fp, std::uint64_t{i} << 56 ^ seen << 32 ^ ctx.now());
      }
    });
  }
  ex.add_thread([&](SimCtx& ctx) {
    for (std::uint64_t k = 1;; ++k) {
      ctx.compute(1 + ctx.rand_below(400));
      ctx.store(&lines[ctx.rand_below(kSpinners)].w, k);
    }
  });
}

GroupRun run_lockstep(const GroupCfg& cfg, sim::Perturber* perturber) {
  std::vector<GroupLine> lines;
  return run_group(cfg, perturber, [&](rt::SimExecutor& ex, GroupRun& r) {
    lockstep_spinners(ex, r, lines);
  });
}

TEST(ParkedSpin, GroupLockstepSpinnersMatchPlainLoop) {
  const GroupCfg cfg;
  ZeroPerturber zero;
  expect_same_group(run_lockstep(cfg, nullptr), run_lockstep(cfg, &zero));
}

// Snapshots between run_until() calls read every core through
// Machine::core(), which settles the spinners parked there to their
// groups' times.
TEST(ParkedSpin, GroupSnapshotsEvery997Cycles) {
  GroupCfg cfg;
  cfg.snapshot_every = 997;
  cfg.end = 100'000;
  ZeroPerturber zero;
  const GroupRun got = run_lockstep(cfg, nullptr);
  expect_same_group(got, run_lockstep(cfg, &zero));
  EXPECT_EQ(got.snaps.size(), 100u);
}

// Telemetry ticks are events that snapshot every core's account.
TEST(ParkedSpin, GroupTelemetryWindowsMatchPlainLoop) {
  GroupCfg cfg;
  cfg.telemetry_window = 1'500;
  cfg.end = 100'000;
  ZeroPerturber zero;
  const GroupRun got = run_lockstep(cfg, nullptr);
  expect_same_group(got, run_lockstep(cfg, &zero));
  EXPECT_FALSE(got.telemetry.empty());
}

// Eight spinners watch one word that four cores fetch-and-add now and
// then. With in-network combining, a FAA that merges into one in flight
// changes the word without reaching the line table: it must notify by key.
// Twelve cores keep the single memory controller busy with CAS on words of
// their own, so a root FAA waits there long enough for the spinners to
// reload the word and park again before the next FAA merges into it.
TEST(ParkedSpin, GroupCombinedFaaNotifiesWatchers) {
  GroupCfg cfg;
  cfg.machine.noc_combining = true;
  cfg.machine.n_mem_ctrls = 1;
  cfg.end = 300'000;
  alignas(rt::kCacheLine) rt::Word word{0};
  std::vector<GroupLine> own(12);
  const auto threads = [&](rt::SimExecutor& ex, GroupRun& r) {
    word.store(0);
    for (auto& l : own) l.w.store(0);
    for (std::uint32_t i = 0; i < 8; ++i) {
      ex.add_thread([&, i](SimCtx& ctx) {
        for (std::uint64_t seen = 0;;) {
          seen = ctx.spin_until(
              &word, [seen](std::uint64_t v) { return v != seen; });
          mix(&r.fp, std::uint64_t{i} << 56 ^ seen << 32 ^ ctx.now());
        }
      });
    }
    for (std::uint32_t i = 0; i < 4; ++i) {
      ex.add_thread([&](SimCtx& ctx) {
        for (;;) {
          ctx.compute(ctx.rand_below(1'500));
          ctx.faa(&word, 1);
        }
      });
    }
    for (std::uint32_t i = 0; i < 12; ++i) {
      ex.add_thread([&, i](SimCtx& ctx) {
        for (std::uint64_t k = 0;; ++k) ctx.cas(&own[i].w, k, k + 1);
      });
    }
  };
  ZeroPerturber zero;
  const GroupRun got = run_group(cfg, nullptr, threads);
  expect_same_group(got, run_group(cfg, &zero, threads));
  EXPECT_GT(got.combines, 0u);
}

// Eight spinners, one per core, each with a core-mate that prefetches the
// spinner's line (which changes the spinner's next load: it takes the
// prefetch path), loads it, and now and then stores to the watched word.
TEST(ParkedSpin, GroupCoreMatePrefetchAndStore) {
  GroupCfg cfg;
  cfg.machine = arch::MachineParams::tilegx_small(4, 2);
  cfg.end = 200'000;
  std::vector<GroupLine> lines(8);
  const auto threads = [&](rt::SimExecutor& ex, GroupRun& r) {
    for (auto& l : lines) l.w.store(0);
    for (std::uint32_t i = 0; i < 8; ++i) {
      ex.add_thread([&, i](SimCtx& ctx) {
        for (std::uint64_t seen = 0;;) {
          seen = ctx.spin_until(&lines[i].w,
                                [seen](std::uint64_t v) { return v != seen; });
          mix(&r.fp, std::uint64_t{i} << 56 ^ seen << 32 ^ ctx.now());
        }
      });
    }
    for (std::uint32_t i = 0; i < 8; ++i) {  // thread 8 + i: core i
      ex.add_thread([&, i](SimCtx& ctx) {
        for (std::uint64_t k = 1;; ++k) {
          ctx.compute(ctx.rand_below(600));
          ctx.prefetch(&lines[i].w);
          ctx.compute(ctx.rand_below(60));
          if (k % 4 == 0) {
            ctx.store(&lines[i].w, k);
          } else {
            ctx.load(&lines[i].w);
          }
        }
      });
    }
  };
  ZeroPerturber zero;
  expect_same_group(run_group(cfg, nullptr, threads),
                    run_group(cfg, &zero, threads));
}

// CoreState::book_spin() books a parked spin's deferred steps in O(1); it
// must match replaying them one by one, wherever the account's watermark
// lies: before the first step, inside the run (a core-mate charged ahead),
// or past its end.
TEST(ParkedSpin, GroupSettleMatchesReplay) {
  sim::Xoshiro256 rng(23);
  for (int trial = 0; trial < 20'000; ++trial) {
    const Cycle load_cycles = 1 + rng.below(12);
    const Cycle from = rng.below(500);
    bool load = rng.below(2) == 1;
    Cycle to = from;
    for (std::uint64_t n = rng.below(40), i = 0; i < n; ++i) {
      to += (load ^ (i % 2 == 1)) ? load_cycles : 1;
    }
    const Cycle mark = rng.below(to + 60);
    arch::CoreState a;
    a.account.charge(obs::CycleAccount::kAtomic, mark / 3, mark);
    a.busy = rng.below(100);
    arch::CoreState b = a;
    SCOPED_TRACE("from " + std::to_string(from) + " to " + std::to_string(to) +
                 " load " + std::to_string(load) + " mark " +
                 std::to_string(mark) + " L " + std::to_string(load_cycles));
    const bool got = a.book_spin(from, to, load, load_cycles);
    const bool ref = b.replay_spin(from, to, load, load_cycles);
    ASSERT_EQ(got, ref);
    ASSERT_EQ(a.busy, b.busy);
    ASSERT_EQ(a.mem_ops, b.mem_ops);
    ASSERT_EQ(a.account.mark(), b.account.mark());
    for (int k = 0; k < obs::CycleAccount::kNumBuckets; ++k) {
      const auto bk = static_cast<obs::CycleAccount::Bucket>(k);
      ASSERT_EQ(a.account.bucket(bk), b.account.bucket(bk)) << k;
    }
  }
}

}  // namespace
}  // namespace hmps
