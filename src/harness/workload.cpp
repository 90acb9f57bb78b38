#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

#include "ds/counter.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/async_batcher.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"
#include "sync/locks.hpp"
#include "sync/shm_server.hpp"
#include "sync/universal.hpp"
#include "sync/vlink_server.hpp"

#include <optional>

namespace hmps::harness {

using rt::SimCtx;
using rt::SimExecutor;
using sim::Cycle;
using sync::SyncStats;

const char* approach_name(Approach a) {
  switch (a) {
    case Approach::kMpServer: return "mp-server";
    case Approach::kHybComb: return "HybComb";
    case Approach::kShmServer: return "shm-server";
    case Approach::kCcSynch: return "CC-Synch";
    case Approach::kMcsLock: return "mcs";
    case Approach::kClhLock: return "clh";
    case Approach::kTicketLock: return "ticket";
    case Approach::kTasLock: return "tas";
    case Approach::kTtasLock: return "ttas";
    case Approach::kVlinkServer: return "vlink-server";
  }
  return "?";
}

bool approach_needs_server(Approach a) {
  return a == Approach::kMpServer || a == Approach::kShmServer ||
         a == Approach::kVlinkServer;
}

const char* queue_name(QueueImpl q) {
  switch (q) {
    case QueueImpl::kMp1: return "mp-server-1";
    case QueueImpl::kHyb1: return "HybComb-1";
    case QueueImpl::kShm1: return "shm-server-1";
    case QueueImpl::kCc1: return "CC-Synch-1";
    case QueueImpl::kMp2: return "mp-server-2";
    case QueueImpl::kLcrq: return "LCRQ";
    case QueueImpl::kVl1: return "vlink-1";
  }
  return "?";
}

const char* stack_name(StackImpl s) {
  switch (s) {
    case StackImpl::kMp: return "mp-server";
    case StackImpl::kHyb: return "HybComb";
    case StackImpl::kShm: return "shm-server";
    case StackImpl::kCc: return "CC-Synch";
    case StackImpl::kTreiber: return "Treiber";
    case StackImpl::kVl: return "vlink";
  }
  return "?";
}

namespace {

// Everything the generic runner snapshots at window boundaries.
struct Snapshot {
  std::vector<std::uint64_t> ops;
  std::vector<double> latsum;
  SyncStats stats;           // summed over threads
  Cycle core0_busy = 0, core0_stall = 0;
  std::uint64_t served = 0;  // CSes executed by the servicing thread(s)
  std::uint64_t msgs = 0;
  Cycle ctrl_wait = 0;
  // Settled per-core cycle accounts (monotonic; windows are diffs).
  std::vector<obs::CycleAccount> accounts;
};

struct DriverHooks {
  // Called once with the freshly built executor, before any thread is
  // added. Constructions that need a machine model reference at
  // construction time (the Virtual-Link fabric lives inside the executor's
  // Machine) are created here into optionals on the caller's frame; the
  // closures below then dereference them. May be empty.
  std::function<void(SimExecutor&)> init;
  // One application operation (op index k for alternation). Runs on an app
  // thread's context. Returns the number of operations COMPLETED by the
  // call: 1 for synchronous apply, 0 while an async batcher is buffering,
  // and the train length when a train is issued and reaped.
  std::function<std::uint64_t(SimCtx&, std::uint64_t)> op;
  // Server bodies (run on threads 0..n_servers-1); empty = no servers.
  std::vector<std::function<void(SimCtx&)>> servers;
  // Sums construction stats over all thread slots.
  std::function<SyncStats()> sum_stats;
  // Registers construction-specific telemetry gauges (server inflight
  // credits, combiner queue length). Called once before the warmup when
  // cfg.telemetry_window > 0; may be empty.
  std::function<void(obs::Telemetry&)> register_telemetry;
};

RunResult drive(const RunCfg& cfg, DriverHooks hooks) {
  SimExecutor ex(cfg.machine, cfg.seed);
  // Install the fault plan before any thread starts so its first windows
  // land deterministically; a disabled plan leaves the machine untouched
  // (and the golden traces byte-identical).
  if (cfg.faults.enabled()) ex.machine().install_faults(cfg.faults);
  // Tracing only observes — recording never advances simulated time, so
  // runs with and without a trace sink produce identical timings (pinned by
  // tests/test_obs.cpp).
  const bool tracing = cfg.obs.trace != nullptr;
  if (tracing) {
    ex.machine().tracer().enable(cfg.obs.trace_max_events);
    ex.machine().tracer().set_process(cfg.obs.pid, cfg.obs.label);
  }
  if (hooks.init) hooks.init(ex);
  const std::uint32_t ns = static_cast<std::uint32_t>(hooks.servers.size());
  const std::uint32_t na = cfg.app_threads;

  std::vector<std::uint64_t> ops(na, 0);
  std::vector<double> latsum(na, 0.0);
  bool measuring = false;  // set once warmup completes
  sim::Histogram lat_hist(/*bucket_width=*/8, /*nbuckets=*/4096);

  for (std::uint32_t s = 0; s < ns; ++s) {
    ex.add_thread(hooks.servers[s]);
  }
  for (std::uint32_t i = 0; i < na; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      std::uint64_t k = 0;
      for (;;) {
        const Cycle t0 = ctx.now();
        const std::uint64_t done = hooks.op(ctx, k++);
        const Cycle lat = ctx.now() - t0;
        // latsum accumulates all time spent inside op() (including calls
        // that only buffered), so lat_mean stays time-per-completed-op
        // under batching; the histogram records the train's mean.
        ops[i] += done;
        latsum[i] += static_cast<double>(lat);
        if (measuring && done > 0) lat_hist.add(lat / done);
        // Section 5.2: up to think_iters_max empty loop iterations.
        ctx.compute(cfg.think_iter_cost *
                    ctx.rand_below(cfg.think_iters_max + 1));
      }
    });
  }

  auto snap = [&]() {
    Snapshot s;
    s.ops = ops;
    s.latsum = latsum;
    s.stats = hooks.sum_stats ? hooks.sum_stats() : SyncStats{};
    s.core0_busy = ex.machine().core(0).busy;
    s.core0_stall = ex.machine().core(0).stall;
    s.served = s.stats.served;
    s.msgs = ex.machine().udn().counters().messages;
    s.ctrl_wait = ex.machine().coherence().counters().ctrl_wait_total;
    ex.machine().settle_accounts();
    s.accounts.reserve(ex.machine().cores());
    for (std::uint32_t c = 0; c < ex.machine().cores(); ++c) {
      s.accounts.push_back(ex.machine().core(c).account);
    }
    return s;
  };

  obs::Telemetry tel(ex.machine(), {cfg.telemetry_window});
  if (tel.enabled() && hooks.register_telemetry) hooks.register_telemetry(tel);

  ex.run_until(cfg.warmup);
  measuring = true;
  const Snapshot first = snap();
  Snapshot prev = first;
  // Baseline right after the run-level snapshot (snap() settled the
  // accounts), so per-bucket window sums telescope to exactly the
  // run-level cycle_accounts deltas below.
  tel.start(ex.sched().now(), ex.sched().now() + cfg.reps * cfg.window);

  RunResult r;
  std::vector<double> rep_mops;
  double lat_n = 0, lat_sum = 0;
  double serv_busy = 0, serv_stall = 0, serv_ops = 0;
  double fair_max = 0, fair_min = 0;
  SyncStats stat_delta{};
  std::uint64_t msgs = 0;
  double ctrl_wait = 0;

  for (std::uint32_t rep = 0; rep < cfg.reps; ++rep) {
    ex.run_until(ex.sched().now() + cfg.window);
    Snapshot cur = snap();

    std::uint64_t dops = 0, dmax = 0, dmin = ~std::uint64_t{0};
    double dlat = 0;
    for (std::uint32_t i = 0; i < na; ++i) {
      const std::uint64_t d = cur.ops[i] - prev.ops[i];
      dops += d;
      dlat += cur.latsum[i] - prev.latsum[i];
      // The fixed combiner (thread 0) completes no application ops; skip
      // zero-op threads in the fairness ratio.
      if (d > 0) {
        dmax = std::max(dmax, d);
        dmin = std::min(dmin, d);
      }
    }
    rep_mops.push_back(static_cast<double>(dops) /
                       static_cast<double>(cfg.window) * 1200.0);
    lat_sum += dlat;
    lat_n += static_cast<double>(dops);
    fair_max += static_cast<double>(dmax);
    fair_min += static_cast<double>(dmin == ~std::uint64_t{0} ? 0 : dmin);

    serv_busy += static_cast<double>(cur.core0_busy - prev.core0_busy);
    serv_stall += static_cast<double>(cur.core0_stall - prev.core0_stall);
    const std::uint64_t dserved = cur.served - prev.served;
    serv_ops += static_cast<double>(dserved ? dserved : dops);

    stat_delta.ops += cur.stats.ops - prev.stats.ops;
    stat_delta.served += cur.stats.served - prev.stats.served;
    stat_delta.tenures += cur.stats.tenures - prev.stats.tenures;
    stat_delta.cas_attempts += cur.stats.cas_attempts - prev.stats.cas_attempts;
    stat_delta.cas_failures += cur.stats.cas_failures - prev.stats.cas_failures;
    stat_delta.throttle_waits +=
        cur.stats.throttle_waits - prev.stats.throttle_waits;
    stat_delta.stall_timeouts +=
        cur.stats.stall_timeouts - prev.stats.stall_timeouts;
    stat_delta.async_issued += cur.stats.async_issued - prev.stats.async_issued;
    stat_delta.async_batched +=
        cur.stats.async_batched - prev.stats.async_batched;
    msgs += cur.msgs - prev.msgs;
    ctrl_wait += static_cast<double>(cur.ctrl_wait - prev.ctrl_wait);

    r.total_ops += dops;
    prev = cur;
  }
  // The last snap() settled the accounts at the final window boundary;
  // close telemetry's final window against those same values.
  tel.flush(ex.sched().now());

  double mean = 0;
  for (double m : rep_mops) mean += m;
  mean /= static_cast<double>(rep_mops.size());
  double var = 0;
  for (double m : rep_mops) var += (m - mean) * (m - mean);
  var /= static_cast<double>(rep_mops.size());

  r.mops = mean;
  r.mops_std = std::sqrt(var);
  r.lat_mean = lat_n > 0 ? lat_sum / lat_n : 0;
  r.lat_p50 = static_cast<double>(lat_hist.quantile(0.50));
  r.lat_p99 = static_cast<double>(lat_hist.quantile(0.99));
  r.serv_total_per_op = serv_ops > 0 ? (serv_busy + serv_stall) / serv_ops : 0;
  r.serv_stall_per_op = serv_ops > 0 ? serv_stall / serv_ops : 0;
  r.combining_rate = stat_delta.combining_rate();
  const double napply = static_cast<double>(r.total_ops);
  r.cas_per_op = napply > 0 ? static_cast<double>(stat_delta.cas_attempts) /
                                  napply
                            : 0;
  r.fairness = fair_min > 0 ? fair_max / fair_min : 0;
  r.msgs_per_op = napply > 0 ? static_cast<double>(msgs) / napply : 0;
  r.ctrl_wait_per_op = napply > 0 ? ctrl_wait / napply : 0;
  r.cycles_per_op = r.mops > 0 ? 1200.0 / r.mops : 0;
  r.throttle_waits = stat_delta.throttle_waits;
  r.stall_timeouts = stat_delta.stall_timeouts;
  for (std::uint32_t c = 0; c < ex.machine().cores(); ++c) {
    r.preemptions += ex.machine().core(c).preemptions;
  }
  // Exact attribution of the servicing core over the measurement windows.
  // Both endpoints are settled, so the buckets sum to reps * window.
  r.serv_account = prev.accounts[0].diff_since(first.accounts[0]);
  r.serv_ops = serv_ops;

  if (cfg.obs.metrics != nullptr) {
    using obs::JsonValue;
    using obs::MetricsRegistry;
    JsonValue& run = cfg.obs.metrics->add_run(cfg.obs.label);
    JsonValue& c = run["config"];
    c["app_threads"] = JsonValue(std::uint64_t{cfg.app_threads});
    c["servers"] = JsonValue(std::uint64_t{ns});
    c["warmup"] = JsonValue(std::uint64_t{cfg.warmup});
    c["window"] = JsonValue(std::uint64_t{cfg.window});
    c["reps"] = JsonValue(std::uint64_t{cfg.reps});
    c["seed"] = JsonValue(cfg.seed);
    c["max_ops"] = JsonValue(cfg.max_ops);
    c["think_iters_max"] = JsonValue(std::uint64_t{cfg.think_iters_max});
    c["think_iter_cost"] = JsonValue(std::uint64_t{cfg.think_iter_cost});
    c["cs_iters"] = JsonValue(cfg.cs_iters);
    c["fixed_combiner"] = JsonValue(cfg.fixed_combiner);
    c["max_inflight"] = JsonValue(cfg.max_inflight);
    c["stall_timeout"] = JsonValue(std::uint64_t{cfg.stall_timeout});
    c["async_batch"] = JsonValue(std::uint64_t{cfg.async_batch});
    c["faults_enabled"] = JsonValue(cfg.faults.enabled());
    JsonValue& res = run["results"];
    res["mops"] = JsonValue(r.mops);
    res["mops_std"] = JsonValue(r.mops_std);
    res["lat_mean"] = JsonValue(r.lat_mean);
    res["lat_p50"] = JsonValue(r.lat_p50);
    res["lat_p99"] = JsonValue(r.lat_p99);
    res["serv_total_per_op"] = JsonValue(r.serv_total_per_op);
    res["serv_stall_per_op"] = JsonValue(r.serv_stall_per_op);
    res["combining_rate"] = JsonValue(r.combining_rate);
    res["cas_per_op"] = JsonValue(r.cas_per_op);
    res["fairness"] = JsonValue(r.fairness);
    res["msgs_per_op"] = JsonValue(r.msgs_per_op);
    res["ctrl_wait_per_op"] = JsonValue(r.ctrl_wait_per_op);
    res["cycles_per_op"] = JsonValue(r.cycles_per_op);
    res["total_ops"] = JsonValue(r.total_ops);
    res["throttle_waits"] = JsonValue(r.throttle_waits);
    res["stall_timeouts"] = JsonValue(r.stall_timeouts);
    res["preemptions"] = JsonValue(r.preemptions);
    res["serv_ops"] = JsonValue(r.serv_ops);
    run["machine_params"] = MetricsRegistry::params_json(cfg.machine);
    run["sync_stats"] = MetricsRegistry::sync_stats_json(stat_delta);
    run["machine"] = MetricsRegistry::machine_json(ex.machine());
    // Windowed (post-warmup) per-core attribution; [0] is the servicing
    // core for the server/combiner constructions.
    JsonValue& accts = run["cycle_accounts"];
    for (std::size_t core = 0; core < prev.accounts.size(); ++core) {
      accts.push_back(MetricsRegistry::cycle_account_json(
          prev.accounts[core].diff_since(first.accounts[core])));
    }
    if (tel.enabled()) {
      run["telemetry"] = tel.to_json();
    }
    if (tracing) {
      run["trace"] = MetricsRegistry::tracer_json(ex.machine().tracer());
    }
  }
  if (tracing) {
    cfg.obs.trace->merge_from(ex.machine().tracer());
  }
  return r;
}

}  // namespace

RunResult run_counter(const RunCfg& cfg, Approach a) {
  // Objects outlive the executor inside drive(); keep them on this frame.
  ds::SeqCounter counter;
  ds::ArrayObject array;
  void* obj = cfg.cs_iters > 0 ? static_cast<void*>(&array)
                               : static_cast<void*>(&counter);
  const sync::CsFn<SimCtx> fn = cfg.cs_iters > 0 ? &ds::array_inc_loop<SimCtx>
                                                 : &ds::counter_inc<SimCtx>;
  const std::uint64_t arg = cfg.cs_iters;

  sync::MpServer<SimCtx> mp(0, obj, cfg.max_inflight);
  sync::ShmServer<SimCtx> shm(0, obj, sync::ShmServer<SimCtx>::kMaxThreads,
                              cfg.async_batch);
  sync::HybComb<SimCtx>::Options hopts;
  hopts.stall_timeout = cfg.stall_timeout;
  hopts.max_inflight = cfg.max_inflight;
  sync::HybComb<SimCtx> hyb(obj, cfg.max_ops, cfg.fixed_combiner, hopts);

  // The Virtual-Link construction needs the executor's fabric at
  // construction time; DriverHooks::init fills the optional once the
  // executor exists (before any thread runs).
  std::optional<sync::VlinkServer<SimCtx>> vl;

  // Per-thread request batchers for the async-capable constructions
  // (indexed by ctx.tid(); unused entries are inert).
  using MpBatch = sync::AsyncBatcher<SimCtx, sync::MpServer<SimCtx>>;
  using HybBatch = sync::AsyncBatcher<SimCtx, sync::HybComb<SimCtx>>;
  using ShmBatch = sync::AsyncBatcher<SimCtx, sync::ShmServer<SimCtx>>;
  using VlBatch = sync::AsyncBatcher<SimCtx, sync::VlinkServer<SimCtx>>;
  std::vector<MpBatch> mpb;
  std::vector<HybBatch> hybb;
  std::vector<ShmBatch> shmb;
  std::vector<VlBatch> vlb;
  const bool batching =
      cfg.async_batch >= 2 &&
      (a == Approach::kMpServer || a == Approach::kHybComb ||
       a == Approach::kShmServer || a == Approach::kVlinkServer);
  if (batching) {
    mpb.reserve(64);
    hybb.reserve(64);
    shmb.reserve(64);
    for (std::uint32_t t = 0; t < 64; ++t) {
      mpb.emplace_back(mp, cfg.async_batch);
      hybb.emplace_back(hyb, cfg.async_batch);
      shmb.emplace_back(shm, cfg.async_batch);
    }
  }
  sync::CcSynch<SimCtx> cc(obj, static_cast<std::uint32_t>(cfg.max_ops),
                           cfg.fixed_combiner);
  sync::LockUc<SimCtx, sync::McsLock<SimCtx>> mcs(obj);
  sync::LockUc<SimCtx, sync::ClhLock<SimCtx>> clh(obj);
  sync::LockUc<SimCtx, sync::TicketLock<SimCtx>> ticket(obj);
  sync::LockUc<SimCtx, sync::TasLock<SimCtx>> tas(obj);
  sync::LockUc<SimCtx, sync::TtasLock<SimCtx>> ttas(obj);

  DriverHooks hooks;
  if (a == Approach::kVlinkServer) {
    hooks.init = [&](SimExecutor& ex) {
      vl.emplace(ex.machine().vlink(), /*server_core=*/0, obj,
                 cfg.max_inflight);
      if (batching) {
        vlb.reserve(64);
        for (std::uint32_t t = 0; t < 64; ++t) {
          vlb.emplace_back(*vl, cfg.async_batch);
        }
      }
    };
  }
  if (approach_needs_server(a)) {
    hooks.servers.push_back([&, a](SimCtx& ctx) {
      if (a == Approach::kMpServer) {
        mp.serve(ctx);
      } else if (a == Approach::kVlinkServer) {
        vl->serve(ctx);
      } else {
        shm.serve(ctx);
      }
    });
  }
  if (batching) {
    hooks.op = [&, a, fn, arg](SimCtx& ctx, std::uint64_t) -> std::uint64_t {
      switch (a) {
        case Approach::kMpServer: return mpb[ctx.tid()].add(ctx, fn, arg);
        case Approach::kHybComb: return hybb[ctx.tid()].add(ctx, fn, arg);
        case Approach::kVlinkServer: return vlb[ctx.tid()].add(ctx, fn, arg);
        default: return shmb[ctx.tid()].add(ctx, fn, arg);
      }
    };
  } else {
    hooks.op = [&, a, fn, arg](SimCtx& ctx, std::uint64_t) -> std::uint64_t {
      switch (a) {
        case Approach::kMpServer: mp.apply(ctx, fn, arg); break;
        case Approach::kHybComb: hyb.apply(ctx, fn, arg); break;
        case Approach::kShmServer: shm.apply(ctx, fn, arg); break;
        case Approach::kCcSynch: cc.apply(ctx, fn, arg); break;
        case Approach::kMcsLock: mcs.apply(ctx, fn, arg); break;
        case Approach::kClhLock: clh.apply(ctx, fn, arg); break;
        case Approach::kTicketLock: ticket.apply(ctx, fn, arg); break;
        case Approach::kTasLock: tas.apply(ctx, fn, arg); break;
        case Approach::kTtasLock: ttas.apply(ctx, fn, arg); break;
        case Approach::kVlinkServer: vl->apply(ctx, fn, arg); break;
      }
      return 1;
    };
  }
  hooks.register_telemetry = [&, a](obs::Telemetry& tel) {
    if (a == Approach::kMpServer) {
      tel.add_gauge("server_inflight", [&mp] { return mp.inflight(); });
    } else if (a == Approach::kVlinkServer) {
      tel.add_gauge("server_inflight", [&vl] { return vl->inflight(); });
    } else if (a == Approach::kHybComb) {
      tel.add_gauge("combiner_inflight",
                    [&hyb] { return hyb.combiner_inflight(); });
    }
  };
  hooks.sum_stats = [&, a]() {
    SyncStats sum;
    for (std::uint32_t t = 0; t < 64; ++t) {
      const SyncStats* s = nullptr;
      switch (a) {
        case Approach::kMpServer: s = &mp.stats(t); break;
        case Approach::kHybComb: s = &hyb.stats(t); break;
        case Approach::kShmServer: s = &shm.stats(t); break;
        case Approach::kCcSynch: s = &cc.stats(t); break;
        case Approach::kMcsLock: s = &mcs.stats(t); break;
        case Approach::kClhLock: s = &clh.stats(t); break;
        case Approach::kTicketLock: s = &ticket.stats(t); break;
        case Approach::kTasLock: s = &tas.stats(t); break;
        case Approach::kTtasLock: s = &ttas.stats(t); break;
        case Approach::kVlinkServer: s = &vl->stats(t); break;
      }
      sum.add(*s);
    }
    return sum;
  };
  return drive(cfg, std::move(hooks));
}

double ideal_cs_cycles(const RunCfg& cfg) {
  SimExecutor ex(cfg.machine, cfg.seed);
  ds::ArrayObject array;
  double per_op = 0;
  const std::uint64_t iters = cfg.cs_iters;
  ex.add_thread([&](SimCtx& ctx) {
    // Warm the cache, then time the body.
    ds::array_inc_loop<SimCtx>(ctx, &array, iters);
    const Cycle t0 = ctx.now();
    constexpr int kReps = 50;
    for (int i = 0; i < kReps; ++i) {
      ds::array_inc_loop<SimCtx>(ctx, &array, iters);
    }
    per_op = static_cast<double>(ctx.now() - t0) / kReps;
  });
  ex.run_until(sim::kCycleMax);
  return per_op;
}

RunResult run_queue(const RunCfg& cfg, QueueImpl qi) {
  ds::SeqQueue q(16384);
  ds::Lcrq<SimCtx> lcrq(7, 8192);

  sync::MpServer<SimCtx> mp1(0, &q, cfg.max_inflight);
  sync::HybComb<SimCtx>::Options hopts;
  hopts.stall_timeout = cfg.stall_timeout;
  hopts.max_inflight = cfg.max_inflight;
  sync::HybComb<SimCtx> hyb(&q, cfg.max_ops, /*fixed_combiner=*/false, hopts);
  sync::ShmServer<SimCtx> shm(0, &q);
  sync::CcSynch<SimCtx> cc(&q, static_cast<std::uint32_t>(cfg.max_ops));
  sync::MpServer<SimCtx> mp2e(0, &q, cfg.max_inflight);
  sync::MpServer<SimCtx> mp2d(1, &q, cfg.max_inflight);
  std::optional<sync::VlinkServer<SimCtx>> vl1;

  DriverHooks hooks;
  switch (qi) {
    case QueueImpl::kMp1:
      hooks.servers.push_back([&](SimCtx& ctx) { mp1.serve(ctx); });
      break;
    case QueueImpl::kVl1:
      hooks.init = [&](SimExecutor& ex) {
        vl1.emplace(ex.machine().vlink(), /*server_core=*/0, &q,
                    cfg.max_inflight);
      };
      hooks.servers.push_back([&](SimCtx& ctx) { vl1->serve(ctx); });
      break;
    case QueueImpl::kShm1:
      hooks.servers.push_back([&](SimCtx& ctx) { shm.serve(ctx); });
      break;
    case QueueImpl::kMp2:
      hooks.servers.push_back([&](SimCtx& ctx) { mp2e.serve(ctx); });
      hooks.servers.push_back([&](SimCtx& ctx) { mp2d.serve(ctx); });
      break;
    case QueueImpl::kHyb1:
    case QueueImpl::kCc1:
    case QueueImpl::kLcrq:
      break;  // combiner/lock-free queues run without dedicated servers
    default:
      // A silently-skipped enumerator here used to run the benchmark with
      // no server thread and hang the clients; die with a diagnosis.
      std::fprintf(stderr,
                   "hmps fatal: run_queue: unhandled QueueImpl %d in server "
                   "dispatch\n",
                   static_cast<int>(qi));
      std::abort();
  }
  // Async batching for the single-server message-passing queue (the other
  // impls stay synchronous; combiner/lock-free queues have no server to
  // pipeline against a second request).
  using Mp1Batch = sync::AsyncBatcher<SimCtx, sync::MpServer<SimCtx>>;
  std::vector<Mp1Batch> mp1b;
  if (cfg.async_batch >= 2 && qi == QueueImpl::kMp1) {
    mp1b.reserve(64);
    for (std::uint32_t t = 0; t < 64; ++t) {
      mp1b.emplace_back(mp1, cfg.async_batch);
    }
    hooks.op = [&](SimCtx& ctx, std::uint64_t k) -> std::uint64_t {
      const bool enq = (k & 1) == 0;
      const std::uint64_t v = 1 + (k & 0xFFFF);
      return enq ? mp1b[ctx.tid()].add(ctx, ds::q_enqueue<SimCtx>, v)
                 : mp1b[ctx.tid()].add(ctx, ds::q_dequeue<SimCtx>, 0);
    };
    hooks.sum_stats = [&]() {
      SyncStats sum;
      for (std::uint32_t t = 0; t < 64; ++t) sum.add(mp1.stats(t));
      return sum;
    };
    return drive(cfg, std::move(hooks));
  }
  hooks.op = [&, qi](SimCtx& ctx, std::uint64_t k) -> std::uint64_t {
    const bool enq = (k & 1) == 0;
    const std::uint64_t v = 1 + (k & 0xFFFF);
    switch (qi) {
      case QueueImpl::kMp1:
        enq ? (void)mp1.apply(ctx, ds::q_enqueue<SimCtx>, v)
            : (void)mp1.apply(ctx, ds::q_dequeue<SimCtx>, 0);
        break;
      case QueueImpl::kHyb1:
        enq ? (void)hyb.apply(ctx, ds::q_enqueue<SimCtx>, v)
            : (void)hyb.apply(ctx, ds::q_dequeue<SimCtx>, 0);
        break;
      case QueueImpl::kShm1:
        enq ? (void)shm.apply(ctx, ds::q_enqueue<SimCtx>, v)
            : (void)shm.apply(ctx, ds::q_dequeue<SimCtx>, 0);
        break;
      case QueueImpl::kCc1:
        enq ? (void)cc.apply(ctx, ds::q_enqueue<SimCtx>, v)
            : (void)cc.apply(ctx, ds::q_dequeue<SimCtx>, 0);
        break;
      case QueueImpl::kMp2:
        enq ? (void)mp2e.apply(ctx, ds::q_enqueue_fenced<SimCtx>, v)
            : (void)mp2d.apply(ctx, ds::q_dequeue_fenced<SimCtx>, 0);
        break;
      case QueueImpl::kLcrq:
        enq ? lcrq.enqueue(ctx, static_cast<std::uint32_t>(v))
            : (void)lcrq.dequeue(ctx);
        break;
      case QueueImpl::kVl1:
        enq ? (void)vl1->apply(ctx, ds::q_enqueue<SimCtx>, v)
            : (void)vl1->apply(ctx, ds::q_dequeue<SimCtx>, 0);
        break;
    }
    return 1;
  };
  hooks.sum_stats = [&, qi]() {
    SyncStats sum;
    auto acc = [&sum](const SyncStats& s) { sum.add(s); };
    for (std::uint32_t t = 0; t < 64; ++t) {
      switch (qi) {
        case QueueImpl::kMp1: acc(mp1.stats(t)); break;
        case QueueImpl::kHyb1: acc(hyb.stats(t)); break;
        case QueueImpl::kShm1: acc(shm.stats(t)); break;
        case QueueImpl::kCc1: acc(cc.stats(t)); break;
        case QueueImpl::kMp2:
          acc(mp2e.stats(t));
          acc(mp2d.stats(t));
          break;
        case QueueImpl::kLcrq: break;
        case QueueImpl::kVl1: acc(vl1->stats(t)); break;
      }
    }
    return sum;
  };
  return drive(cfg, std::move(hooks));
}

RunResult run_stack(const RunCfg& cfg, StackImpl si) {
  ds::SeqStack st(16384);
  ds::TreiberStack<SimCtx> tr(2048);

  sync::MpServer<SimCtx> mp(0, &st, cfg.max_inflight);
  sync::HybComb<SimCtx>::Options hopts;
  hopts.stall_timeout = cfg.stall_timeout;
  hopts.max_inflight = cfg.max_inflight;
  sync::HybComb<SimCtx> hyb(&st, cfg.max_ops, /*fixed_combiner=*/false, hopts);
  sync::ShmServer<SimCtx> shm(0, &st);
  sync::CcSynch<SimCtx> cc(&st, static_cast<std::uint32_t>(cfg.max_ops));
  std::optional<sync::VlinkServer<SimCtx>> vl;

  DriverHooks hooks;
  if (si == StackImpl::kMp) {
    hooks.servers.push_back([&](SimCtx& ctx) { mp.serve(ctx); });
  } else if (si == StackImpl::kShm) {
    hooks.servers.push_back([&](SimCtx& ctx) { shm.serve(ctx); });
  } else if (si == StackImpl::kVl) {
    hooks.init = [&](SimExecutor& ex) {
      vl.emplace(ex.machine().vlink(), /*server_core=*/0, &st,
                 cfg.max_inflight);
    };
    hooks.servers.push_back([&](SimCtx& ctx) { vl->serve(ctx); });
  }
  hooks.op = [&, si](SimCtx& ctx, std::uint64_t k) -> std::uint64_t {
    const bool push = (k & 1) == 0;
    const std::uint64_t v = 1 + (k & 0xFFFF);
    switch (si) {
      case StackImpl::kMp:
        push ? (void)mp.apply(ctx, ds::s_push<SimCtx>, v)
             : (void)mp.apply(ctx, ds::s_pop<SimCtx>, 0);
        break;
      case StackImpl::kHyb:
        push ? (void)hyb.apply(ctx, ds::s_push<SimCtx>, v)
             : (void)hyb.apply(ctx, ds::s_pop<SimCtx>, 0);
        break;
      case StackImpl::kShm:
        push ? (void)shm.apply(ctx, ds::s_push<SimCtx>, v)
             : (void)shm.apply(ctx, ds::s_pop<SimCtx>, 0);
        break;
      case StackImpl::kCc:
        push ? (void)cc.apply(ctx, ds::s_push<SimCtx>, v)
             : (void)cc.apply(ctx, ds::s_pop<SimCtx>, 0);
        break;
      case StackImpl::kTreiber:
        push ? tr.push(ctx, v) : (void)tr.pop(ctx);
        break;
      case StackImpl::kVl:
        push ? (void)vl->apply(ctx, ds::s_push<SimCtx>, v)
             : (void)vl->apply(ctx, ds::s_pop<SimCtx>, 0);
        break;
    }
    return 1;
  };
  hooks.sum_stats = [&, si]() {
    SyncStats sum;
    auto acc = [&sum](const SyncStats& s) { sum.add(s); };
    for (std::uint32_t t = 0; t < 64; ++t) {
      switch (si) {
        case StackImpl::kMp: acc(mp.stats(t)); break;
        case StackImpl::kHyb: acc(hyb.stats(t)); break;
        case StackImpl::kShm: acc(shm.stats(t)); break;
        case StackImpl::kCc: acc(cc.stats(t)); break;
        case StackImpl::kTreiber: {
          sum.cas_attempts += tr.stats(t).cas_failures;
          break;
        }
        case StackImpl::kVl: acc(vl->stats(t)); break;
      }
    }
    return sum;
  };
  return drive(cfg, std::move(hooks));
}

}  // namespace hmps::harness
