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
#include <vector>

#include "arch/machine.hpp"
#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "harness/record.hpp"
#include "obs/cycle_account.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/perturb.hpp"
#include "sync/ccsynch.hpp"
#include "sync/dsm_synch.hpp"
#include "sync/hsynch.hpp"
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

}  // namespace
}  // namespace hmps
