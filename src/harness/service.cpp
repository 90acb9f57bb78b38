#include "harness/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/async_batcher.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"
#include "sync/sharded.hpp"
#include "sync/shm_server.hpp"
#include "sync/vlink_server.hpp"

namespace hmps::harness {

using rt::SimCtx;
using rt::SimExecutor;
using sim::Cycle;
using sync::SyncStats;

const char* arrival_model_name(ArrivalModel m) {
  switch (m) {
    case ArrivalModel::kPoisson: return "poisson";
    case ArrivalModel::kMmpp: return "mmpp";
  }
  return "?";
}

const char* shed_policy_name(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kDropNewest: return "drop-newest";
    case ShedPolicy::kDropOldest: return "drop-oldest";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kMaxObjects = 8;

// Object farms: one construction instance serializes critical sections on
// K object instances (the server-consolidation shape: one serving core,
// many objects); the Zipf-chosen object index rides in the CS argument.
// Each instance sits on its own cache line(s), so popularity skew shows up
// as working-set locality at the serving core.
struct CounterFarm {
  ds::SeqCounter c[kMaxObjects];
};

template <class Ctx>
std::uint64_t farm_inc(Ctx& ctx, void* obj, std::uint64_t arg) {
  auto* f = static_cast<CounterFarm*>(obj);
  return ds::counter_inc(ctx, &f->c[arg & (kMaxObjects - 1)], 0);
}

template <class Ctx>
std::uint64_t farm_get(Ctx& ctx, void* obj, std::uint64_t arg) {
  auto* f = static_cast<CounterFarm*>(obj);
  return ds::counter_get(ctx, &f->c[arg & (kMaxObjects - 1)], 0);
}

struct QueueFarm {
  ds::SeqQueue q[kMaxObjects];  // default capacity each; in-place (nodes
                                // self-reference, so SeqQueue must not move)
};

template <class Ctx>
std::uint64_t farm_enq(Ctx& ctx, void* obj, std::uint64_t arg) {
  auto* f = static_cast<QueueFarm*>(obj);
  return ds::q_enqueue(ctx, &f->q[(arg >> 32) & (kMaxObjects - 1)],
                       arg & 0xFFFFFFFFu);
}

template <class Ctx>
std::uint64_t farm_deq(Ctx& ctx, void* obj, std::uint64_t arg) {
  auto* f = static_cast<QueueFarm*>(obj);
  return ds::q_dequeue(ctx, &f->q[(arg >> 32) & (kMaxObjects - 1)], 0);
}

// Sharded farms are larger than the single-server ones: the point of the
// fleet is spreading many objects across shards, and rendezvous hashing
// needs a reasonable object population to balance (docs/SHARDING.md).
constexpr std::uint32_t kShardedObjects = 64;

struct ShardedCounterFarm {
  ds::SeqCounter c[kShardedObjects];
};
struct ShardedQueueFarm {
  ds::SeqQueue q[kShardedObjects];
};

// Sharded CS bodies: the object index rides in the high 32 bits of the
// argument (sync::ShardedServer::pack_obj_arg).
template <class Ctx>
std::uint64_t sh_farm_inc(Ctx& ctx, void* obj, std::uint64_t a) {
  auto* f = static_cast<ShardedCounterFarm*>(obj);
  return ds::counter_inc(ctx, &f->c[(a >> 32) % kShardedObjects], 0);
}
template <class Ctx>
std::uint64_t sh_farm_get(Ctx& ctx, void* obj, std::uint64_t a) {
  auto* f = static_cast<ShardedCounterFarm*>(obj);
  return ds::counter_get(ctx, &f->c[(a >> 32) % kShardedObjects], 0);
}
template <class Ctx>
std::uint64_t sh_farm_enq(Ctx& ctx, void* obj, std::uint64_t a) {
  auto* f = static_cast<ShardedQueueFarm*>(obj);
  return ds::q_enqueue(ctx, &f->q[(a >> 32) % kShardedObjects],
                       a & 0xFFFFFFFFu);
}
template <class Ctx>
std::uint64_t sh_farm_deq(Ctx& ctx, void* obj, std::uint64_t a) {
  auto* f = static_cast<ShardedQueueFarm*>(obj);
  return ds::q_dequeue(ctx, &f->q[(a >> 32) % kShardedObjects], 0);
}

struct Arrival {
  Cycle t;            ///< arrival time
  std::uint32_t obj;  ///< Zipf-chosen object index
  bool alt;           ///< session-mix alternate op (get/dequeue)
};

struct PendingStamp {
  Cycle t_arr;
  Cycle t_disp;
};

SyncStats diff_stats(const SyncStats& cur, const SyncStats& prev) {
  SyncStats d;
  d.ops = cur.ops - prev.ops;
  d.served = cur.served - prev.served;
  d.tenures = cur.tenures - prev.tenures;
  d.cas_attempts = cur.cas_attempts - prev.cas_attempts;
  d.cas_failures = cur.cas_failures - prev.cas_failures;
  d.throttle_waits = cur.throttle_waits - prev.throttle_waits;
  d.stall_timeouts = cur.stall_timeouts - prev.stall_timeouts;
  d.async_issued = cur.async_issued - prev.async_issued;
  d.async_batched = cur.async_batched - prev.async_batched;
  d.shed_ops = cur.shed_ops - prev.shed_ops;
  return d;
}

}  // namespace

RunResult run_service(const ServiceCfg& cfg, Approach a) {
  if (a != Approach::kMpServer && a != Approach::kHybComb &&
      a != Approach::kShmServer && a != Approach::kCcSynch &&
      a != Approach::kVlinkServer) {
    std::fprintf(stderr,
                 "hmps fatal: run_service: approach %s has no service "
                 "driver\n",
                 approach_name(a));
    std::abort();
  }
  const RunCfg& base = cfg.base;
  const std::uint32_t nsess = std::max(cfg.sessions, 1u);
  const std::uint32_t nobj =
      std::min(std::max(cfg.objects, 1u), kMaxObjects);
  const Cycle measure =
      base.window * std::max<std::uint64_t>(base.reps, 1);
  const Cycle t_meas0 = base.warmup;
  const Cycle t_end = base.warmup + measure;

  SimExecutor ex(base.machine, base.seed);
  if (base.faults.enabled()) ex.machine().install_faults(base.faults);
  const bool tracing = base.obs.trace != nullptr;
  if (tracing) {
    ex.machine().tracer().enable(base.obs.trace_max_events);
    ex.machine().tracer().set_process(base.obs.pid, base.obs.label);
  }

  // ---- objects + constructions (one serialization domain per run) ----
  CounterFarm counters;
  QueueFarm queues;
  void* obj = cfg.queue_object ? static_cast<void*>(&queues)
                               : static_cast<void*>(&counters);
  const sync::CsFn<SimCtx> fn_main =
      cfg.queue_object ? &farm_enq<SimCtx> : &farm_inc<SimCtx>;
  const sync::CsFn<SimCtx> fn_alt =
      cfg.queue_object ? &farm_deq<SimCtx> : &farm_get<SimCtx>;

  sync::MpServer<SimCtx> mp(0, obj, base.max_inflight);
  sync::ShmServer<SimCtx> shm(0, obj, sync::ShmServer<SimCtx>::kMaxThreads,
                              base.async_batch);
  sync::HybComb<SimCtx>::Options hopts;
  hopts.stall_timeout = base.stall_timeout;
  hopts.max_inflight = base.max_inflight;
  sync::HybComb<SimCtx> hyb(obj, base.max_ops, /*fixed_combiner=*/false,
                            hopts);
  sync::CcSynch<SimCtx> cc(obj, static_cast<std::uint32_t>(base.max_ops));
  // The executor (and so the Virtual-Link fabric) already exists here, so
  // the vlink construction is built directly — no deferred init needed.
  sync::VlinkServer<SimCtx> vl(ex.machine().vlink(), /*server_core=*/0, obj,
                               base.max_inflight);

  auto stats_slot = [&](std::uint32_t t) -> SyncStats& {
    switch (a) {
      case Approach::kMpServer: return mp.stats(t);
      case Approach::kHybComb: return hyb.stats(t);
      case Approach::kShmServer: return shm.stats(t);
      case Approach::kVlinkServer: return vl.stats(t);
      default: return cc.stats(t);
    }
  };
  auto sum_stats = [&]() {
    SyncStats sum;
    for (std::uint32_t t = 0; t < 64; ++t) sum.add(stats_slot(t));
    return sum;
  };

  const std::uint32_t ns = approach_needs_server(a) ? 1 : 0;
  if (ns) {
    ex.add_thread([&](SimCtx& ctx) {
      if (a == Approach::kMpServer) {
        mp.serve(ctx);
      } else if (a == Approach::kVlinkServer) {
        vl.serve(ctx);
      } else {
        shm.serve(ctx);
      }
    });
  }

  // Client-side batching (idle-flushed on lulls; docs/SERVICE.md).
  using MpBatch = sync::AsyncBatcher<SimCtx, sync::MpServer<SimCtx>>;
  using HybBatch = sync::AsyncBatcher<SimCtx, sync::HybComb<SimCtx>>;
  using ShmBatch = sync::AsyncBatcher<SimCtx, sync::ShmServer<SimCtx>>;
  using VlBatch = sync::AsyncBatcher<SimCtx, sync::VlinkServer<SimCtx>>;
  std::vector<MpBatch> mpb;
  std::vector<HybBatch> hybb;
  std::vector<ShmBatch> shmb;
  std::vector<VlBatch> vlb;
  const bool batching = base.async_batch >= 2 && a != Approach::kCcSynch;
  if (batching) {
    for (std::uint32_t t = 0; t < 64; ++t) {
      mpb.emplace_back(mp, base.async_batch);
      hybb.emplace_back(hyb, base.async_batch);
      shmb.emplace_back(shm, base.async_batch);
      vlb.emplace_back(vl, base.async_batch);
    }
  }

  // ---- open-loop state ----
  ArrivalGen gen(cfg, base.seed * 0x9e3779b97f4a7c15ULL + 0xA55A);
  ZipfSampler zipf(nobj, cfg.zipf_s);
  // Per-session op mix: fraction (percent) of the primary op, drawn once
  // per session from the arrival stream's RNG so the whole traffic pattern
  // is (seed, config)-deterministic.
  std::vector<std::uint32_t> mix(nsess);
  for (auto& m : mix) m = 50 + static_cast<std::uint32_t>(gen.below(50));

  std::vector<std::deque<Arrival>> pend(nsess);
  std::vector<std::deque<PendingStamp>> stamps(nsess);
  std::vector<char> waiting(nsess, 0);
  std::vector<sim::Scheduler::FiberId> sfid(nsess, 0);

  sim::Reservoir sojourn;
  sim::Summary queue_delay, service_time;
  std::uint64_t offered_n = 0;    // arrivals generated in the window
  std::uint64_t admitted_n = 0;   // arrivals admitted in the window
  std::uint64_t completed_n = 0;  // completions recorded in the window

  // Windowed sampling (off unless base.telemetry_window > 0): per-window
  // sojourn percentiles, throughput, admission-queue depth, sheds, and the
  // construction's backlog gauge — the time-resolved view of this run.
  obs::Telemetry tel(ex.machine(), {base.telemetry_window});
  if (tel.enabled()) {
    tel.enable_completion_stream();
    tel.add_gauge("admission_queue", [&pend] {
      std::uint64_t n = 0;
      for (const auto& q : pend) n += q.size();
      return n;
    });
    if (a == Approach::kMpServer) {
      tel.add_gauge("server_inflight", [&mp] { return mp.inflight(); });
    } else if (a == Approach::kVlinkServer) {
      tel.add_gauge("server_inflight", [&vl] { return vl.inflight(); });
    } else if (a == Approach::kHybComb) {
      tel.add_gauge("combiner_inflight",
                    [&hyb] { return hyb.combiner_inflight(); });
    }
    tel.add_counter("shed_ops", [&sum_stats] { return sum_stats().shed_ops; });
    tel.add_counter("offered", [&offered_n] { return offered_n; });
  }

  // Carves an arrival's queueing delay out of the session core's account:
  // while the arrival aged in the pending queue, the core was burning
  // cycles on the *previous* operation — mostly waiting on the
  // construction — and those cycles are the queueing delay, charged under
  // the mechanism rather than the cause. Wait-type buckets are drained
  // first, compute last; clamping in reclassify() keeps the sum invariant
  // unconditional.
  auto carve_queue_delay = [](obs::CycleAccount& acct, Cycle w) {
    using CA = obs::CycleAccount;
    static constexpr CA::Bucket order[] = {
        CA::kUdnRecvWait, CA::kUdnAsyncWait, CA::kSpin,
        CA::kCoherenceRead, CA::kCoherenceWrite, CA::kAtomic,
        CA::kUdnSendBlock, CA::kIdle, CA::kCompute};
    for (const CA::Bucket b : order) {
      if (w == 0) return;
      w -= acct.reclassify(b, CA::kSvcQueue, w);
    }
  };

  auto record = [&](Cycle t_arr, Cycle t_disp, Cycle t_done) {
    if (t_done < t_meas0) return;
    sojourn.add(t_done - t_arr);
    queue_delay.add(static_cast<double>(t_disp - t_arr));
    service_time.add(static_cast<double>(t_done - t_disp));
    ++completed_n;
    tel.record_completion(t_done - t_arr);
  };

  // ---- session fibers ----
  for (std::uint32_t i = 0; i < nsess; ++i) {
    const std::uint32_t tid = ns + i;
    ex.add_thread([&, i, tid](SimCtx& ctx) {
      sfid[i] = ex.sched().current();
      const std::uint32_t core = tid % ex.machine().cores();
      obs::CycleAccount& acct = ex.machine().core(core).account;
      auto& myq = pend[i];
      auto& mystamps = stamps[i];
      std::uint64_t k = 0;
      for (;;) {
        if (myq.empty()) {
          if (batching) {
            // Open-loop lull: flush the partial train so buffered ops are
            // not stranded until the next arrival (sync::AsyncBatcher).
            std::uint64_t n = 0;
            switch (a) {
              case Approach::kMpServer: n = mpb[tid].flush(ctx); break;
              case Approach::kHybComb: n = hybb[tid].flush(ctx); break;
              case Approach::kVlinkServer: n = vlb[tid].flush(ctx); break;
              default: n = shmb[tid].flush(ctx); break;
            }
            if (n > 0) {
              const Cycle done = ctx.now();
              for (std::uint64_t j = 0; j < n; ++j) {
                const PendingStamp s = mystamps.front();
                mystamps.pop_front();
                record(s.t_arr, s.t_disp, done);
              }
              continue;  // time passed; re-check for new arrivals
            }
          }
          waiting[i] = 1;
          ex.sched().suspend();
          continue;
        }
        const Arrival arr = myq.front();
        myq.pop_front();
        const Cycle t_disp = ctx.now();
        // Queueing delay spent inside the measurement window becomes
        // svc-queue on this session's core (clamped at the window start so
        // a wait that began during warmup cannot overdraw the reset
        // buckets).
        const Cycle wait_from = arr.t > t_meas0 ? arr.t : t_meas0;
        if (t_disp > wait_from) carve_queue_delay(acct, t_disp - wait_from);
        const std::uint64_t arg =
            cfg.queue_object
                ? (static_cast<std::uint64_t>(arr.obj) << 32) |
                      (1 + (k & 0xFFFF))
                : arr.obj;
        ++k;
        const sync::CsFn<SimCtx> fn = arr.alt ? fn_alt : fn_main;
        if (batching) {
          mystamps.push_back({arr.t, t_disp});
          std::uint64_t n = 0;
          switch (a) {
            case Approach::kMpServer: n = mpb[tid].add(ctx, fn, arg); break;
            case Approach::kHybComb: n = hybb[tid].add(ctx, fn, arg); break;
            case Approach::kVlinkServer: n = vlb[tid].add(ctx, fn, arg); break;
            default: n = shmb[tid].add(ctx, fn, arg); break;
          }
          if (n > 0) {
            const Cycle done = ctx.now();
            for (std::uint64_t j = 0; j < n; ++j) {
              const PendingStamp s = mystamps.front();
              mystamps.pop_front();
              record(s.t_arr, s.t_disp, done);
            }
          }
        } else {
          switch (a) {
            case Approach::kMpServer: mp.apply(ctx, fn, arg); break;
            case Approach::kHybComb: hyb.apply(ctx, fn, arg); break;
            case Approach::kShmServer: shm.apply(ctx, fn, arg); break;
            case Approach::kVlinkServer: vl.apply(ctx, fn, arg); break;
            default: cc.apply(ctx, fn, arg); break;
          }
          record(arr.t, t_disp, ctx.now());
        }
      }
    });
  }

  // ---- arrival delivery (scheduler callbacks; composes with the
  // wait_until fast path: a pending arrival event blocks the floor raise,
  // so fibers can never skip over one) ----
  std::function<void(Cycle)> arrive = [&](Cycle t) {
    const std::uint32_t sess = static_cast<std::uint32_t>(gen.below(nsess));
    const std::uint32_t obj_i = zipf.sample(gen.uniform());
    const bool alt = gen.below(100) >= mix[sess];
    if (t >= t_meas0) ++offered_n;
    auto& q = pend[sess];
    bool admitted = true;
    if (q.size() >= cfg.queue_cap) {
      // Admission control: the pending queue is full.
      ++stats_slot(ns + sess).shed_ops;
      if (cfg.shed == ShedPolicy::kDropNewest) {
        admitted = false;
      } else {
        q.pop_front();  // evict the longest-waiting arrival
      }
    }
    if (admitted) {
      q.push_back(Arrival{t, obj_i, alt});
      if (t >= t_meas0) ++admitted_n;
      if (waiting[sess]) {
        waiting[sess] = 0;
        ex.sched().wake(sfid[sess], t);
      }
    }
    const Cycle nt = gen.next(t);
    if (nt <= t_end) {
      ex.sched().at(nt, [&arrive, nt] { arrive(nt); });
    }
  };
  const Cycle t0 = gen.next(0);
  if (t0 <= t_end) {
    ex.sched().at(t0, [&arrive, t0] { arrive(t0); });
  }

  // ---- run: warmup, then one continuous measurement window ----
  ex.run_until(base.warmup);
  ex.machine().reset_window_counters();
  const SyncStats stats0 = sum_stats();
  // Baseline after the reset: every account starts from zero at t_meas0,
  // so the per-bucket window sums telescope to the final cycle_accounts.
  tel.start(t_meas0, t_end);
  ex.run_until(t_end);
  // Close the books even if the event queue drained before t_end (all
  // sessions idle past the last arrival): the tail must become idle time
  // or the per-core accounts under-cover the window.
  ex.machine().finalize_accounts(t_end);
  tel.flush(t_end);
  const SyncStats stat_delta = diff_stats(sum_stats(), stats0);

  RunResult r;
  r.total_ops = completed_n;
  r.arrivals = admitted_n;
  r.shed_ops = stat_delta.shed_ops;
  const double win = static_cast<double>(measure);
  r.mops = static_cast<double>(completed_n) / win * 1200.0;
  r.offered_mops = static_cast<double>(offered_n) / win * 1200.0;
  r.lat_mean = sojourn.summary().mean();
  r.lat_p50 = static_cast<double>(sojourn.quantile(0.50));
  r.lat_p99 = static_cast<double>(sojourn.quantile(0.99));
  r.lat_p999 = static_cast<double>(sojourn.quantile(0.999));
  r.lat_max = sojourn.summary().max();
  r.queue_delay_mean = queue_delay.mean();
  r.service_mean = service_time.mean();
  r.combining_rate = stat_delta.combining_rate();
  r.throttle_waits = stat_delta.throttle_waits;
  r.stall_timeouts = stat_delta.stall_timeouts;
  r.cycles_per_op = r.mops > 0 ? 1200.0 / r.mops : 0;
  // Windowed attribution of the serving core ([0]; for the serverless
  // combiners core 0 is the first session's core).
  r.serv_account = ex.machine().core(0).account;
  r.serv_ops = static_cast<double>(stat_delta.served ? stat_delta.served
                                                     : completed_n);

  if (base.obs.metrics != nullptr) {
    using obs::JsonValue;
    using obs::MetricsRegistry;
    JsonValue& run = base.obs.metrics->add_run(base.obs.label);
    JsonValue& c = run["config"];
    c["app_threads"] = JsonValue(std::uint64_t{nsess});
    c["servers"] = JsonValue(std::uint64_t{ns});
    c["warmup"] = JsonValue(std::uint64_t{base.warmup});
    c["window"] = JsonValue(std::uint64_t{measure});
    c["reps"] = JsonValue(std::uint64_t{1});
    c["seed"] = JsonValue(base.seed);
    c["max_ops"] = JsonValue(base.max_ops);
    c["max_inflight"] = JsonValue(base.max_inflight);
    c["stall_timeout"] = JsonValue(std::uint64_t{base.stall_timeout});
    c["async_batch"] = JsonValue(std::uint64_t{base.async_batch});
    c["faults_enabled"] = JsonValue(base.faults.enabled());
    JsonValue& res = run["results"];
    res["mops"] = JsonValue(r.mops);
    res["lat_mean"] = JsonValue(r.lat_mean);
    res["lat_p50"] = JsonValue(r.lat_p50);
    res["lat_p99"] = JsonValue(r.lat_p99);
    res["total_ops"] = JsonValue(r.total_ops);
    res["throttle_waits"] = JsonValue(r.throttle_waits);
    res["stall_timeouts"] = JsonValue(r.stall_timeouts);
    res["serv_ops"] = JsonValue(r.serv_ops);
    JsonValue& svc = run["service"];
    svc["arrival"] = JsonValue(arrival_model_name(cfg.arrival));
    svc["offered_mops_target"] = JsonValue(cfg.offered_mops);
    svc["offered_mops"] = JsonValue(r.offered_mops);
    svc["achieved_mops"] = JsonValue(r.mops);
    svc["sessions"] = JsonValue(std::uint64_t{nsess});
    svc["objects"] = JsonValue(std::uint64_t{nobj});
    svc["zipf_s"] = JsonValue(cfg.zipf_s);
    svc["burst"] = JsonValue(cfg.burst);
    svc["dwell_quiet"] = JsonValue(std::uint64_t{cfg.dwell_quiet});
    svc["dwell_burst"] = JsonValue(std::uint64_t{cfg.dwell_burst});
    svc["queue_cap"] = JsonValue(std::uint64_t{cfg.queue_cap});
    svc["shed_policy"] = JsonValue(shed_policy_name(cfg.shed));
    svc["object"] = JsonValue(cfg.queue_object ? "ms-queue" : "counter");
    svc["offered"] = JsonValue(offered_n);
    svc["arrivals"] = JsonValue(r.arrivals);
    svc["completed"] = JsonValue(completed_n);
    svc["shed_ops"] = JsonValue(r.shed_ops);
    JsonValue& soj = svc["sojourn"];
    soj["mean"] = JsonValue(r.lat_mean);
    soj["p50"] = JsonValue(r.lat_p50);
    soj["p99"] = JsonValue(r.lat_p99);
    soj["p999"] = JsonValue(r.lat_p999);
    soj["max"] = JsonValue(r.lat_max);
    soj["count"] = JsonValue(sojourn.count());
    soj["kept"] = JsonValue(static_cast<std::uint64_t>(sojourn.kept()));
    svc["queue_delay_mean"] = JsonValue(r.queue_delay_mean);
    svc["service_mean"] = JsonValue(r.service_mean);
    run["machine_params"] = MetricsRegistry::params_json(base.machine);
    run["sync_stats"] = MetricsRegistry::sync_stats_json(stat_delta);
    run["machine"] = MetricsRegistry::machine_json(ex.machine());
    JsonValue& accts = run["cycle_accounts"];
    for (std::uint32_t core = 0; core < ex.machine().cores(); ++core) {
      accts.push_back(MetricsRegistry::cycle_account_json(
          ex.machine().core(core).account));
    }
    if (tel.enabled()) {
      run["telemetry"] = tel.to_json();
    }
    if (tracing) {
      run["trace"] = MetricsRegistry::tracer_json(ex.machine().tracer());
    }
  }
  if (tracing) {
    base.obs.trace->merge_from(ex.machine().tracer());
  }
  return r;
}

RunResult run_service_sharded(const ServiceCfg& cfg) {
  using Sharded = sync::ShardedServer<SimCtx>;
  const RunCfg& base = cfg.base;
  const std::uint32_t shards = std::clamp<std::uint32_t>(
      cfg.shards, 1, Sharded::kMaxShards);
  const std::uint32_t nsess =
      std::min(std::max(cfg.sessions, 1u), Sharded::kMaxClients);
  const std::uint32_t nobj =
      std::min(std::max(cfg.objects, 1u), kShardedObjects);
  const Cycle measure = base.window * std::max<std::uint64_t>(base.reps, 1);
  const Cycle t_meas0 = base.warmup;
  const Cycle t_end = base.warmup + measure;

  SimExecutor ex(base.machine, base.seed);
  if (base.faults.enabled()) ex.machine().install_faults(base.faults);
  const bool tracing = base.obs.trace != nullptr;
  if (tracing) {
    ex.machine().tracer().enable(base.obs.trace_max_events);
    ex.machine().tracer().set_process(base.obs.pid, base.obs.label);
  }

  // ---- farm + fleet ----
  ShardedCounterFarm counters;
  ShardedQueueFarm queues;
  void* obj = cfg.queue_object ? static_cast<void*>(&queues)
                               : static_cast<void*>(&counters);
  const sync::CsFn<SimCtx> fn_main =
      cfg.queue_object ? &sh_farm_enq<SimCtx> : &sh_farm_inc<SimCtx>;
  const sync::CsFn<SimCtx> fn_alt =
      cfg.queue_object ? &sh_farm_deq<SimCtx> : &sh_farm_get<SimCtx>;
  Sharded::TransferHooks hooks{&sh_farm_deq<SimCtx>, &sh_farm_enq<SimCtx>};
  Sharded sh(shards, obj, nobj, base.max_inflight,
             cfg.queue_object ? hooks : Sharded::TransferHooks{});

  auto sum_stats = [&]() {
    SyncStats sum;
    for (std::uint32_t t = 0; t < shards + Sharded::kMaxClients; ++t) {
      sum.add(sh.stats(t));
    }
    return sum;
  };

  for (std::uint32_t s = 0; s < shards; ++s) {
    ex.add_thread([&sh, s](SimCtx& ctx) { sh.serve(ctx, s); });
  }

  // ---- open-loop state (one arrival stream demuxed across sessions,
  // exactly as run_service) ----
  ArrivalGen gen(cfg, base.seed * 0x9e3779b97f4a7c15ULL + 0xA55A);
  ZipfSampler zipf(nobj, cfg.zipf_s);
  std::vector<std::uint32_t> mix(nsess);
  for (auto& m : mix) m = 50 + static_cast<std::uint32_t>(gen.below(50));

  std::vector<std::deque<Arrival>> pend(nsess);
  std::vector<std::deque<PendingStamp>> stamps(nsess);
  std::vector<char> waiting(nsess, 0);
  std::vector<sim::Scheduler::FiberId> sfid(nsess, 0);

  sim::Reservoir sojourn;
  sim::Summary queue_delay, service_time;
  std::uint64_t offered_n = 0;
  std::uint64_t admitted_n = 0;
  std::uint64_t completed_n = 0;

  obs::Telemetry tel(ex.machine(), {base.telemetry_window});
  if (tel.enabled()) {
    tel.enable_completion_stream();
    tel.add_gauge("admission_queue", [&pend] {
      std::uint64_t n = 0;
      for (const auto& q : pend) n += q.size();
      return n;
    });
    tel.add_gauge("fleet_inflight", [&sh] { return sh.inflight_total(); });
    tel.add_counter("shed_ops", [&sum_stats] { return sum_stats().shed_ops; });
    tel.add_counter("offered", [&offered_n] { return offered_n; });
  }

  auto carve_queue_delay = [](obs::CycleAccount& acct, Cycle w) {
    using CA = obs::CycleAccount;
    static constexpr CA::Bucket order[] = {
        CA::kUdnRecvWait, CA::kUdnAsyncWait, CA::kSpin,
        CA::kCoherenceRead, CA::kCoherenceWrite, CA::kAtomic,
        CA::kUdnSendBlock, CA::kIdle, CA::kCompute};
    for (const CA::Bucket b : order) {
      if (w == 0) return;
      w -= acct.reclassify(b, CA::kSvcQueue, w);
    }
  };

  auto record = [&](Cycle t_arr, Cycle t_disp, Cycle t_done) {
    if (t_done < t_meas0) return;
    sojourn.add(t_done - t_arr);
    queue_delay.add(static_cast<double>(t_disp - t_arr));
    service_time.add(static_cast<double>(t_done - t_disp));
    ++completed_n;
    tel.record_completion(t_done - t_arr);
  };

  // ---- session fibers: the client-side routing layer. Each session
  // resolves its arrival's object to the home shard and issues through the
  // fleet's ticket API; with base.async_batch >= 2 a session keeps a train
  // of async tickets in flight — typically spread across several shards at
  // once — and reaps the train when it fills or the arrival stream lulls.
  const std::uint32_t batch =
      base.async_batch >= 2
          ? std::min<std::uint32_t>(base.async_batch, 16)
          : 1;
  for (std::uint32_t i = 0; i < nsess; ++i) {
    const std::uint32_t tid = shards + i;
    ex.add_thread([&, i, tid](SimCtx& ctx) {
      sfid[i] = ex.sched().current();
      const std::uint32_t core = tid % ex.machine().cores();
      obs::CycleAccount& acct = ex.machine().core(core).account;
      auto& myq = pend[i];
      auto& mystamps = stamps[i];
      sync::Ticket train[16];
      std::uint32_t train_n = 0;
      std::uint64_t k = 0;
      auto reap_train = [&](SimCtx& c2) {
        for (std::uint32_t j = 0; j < train_n; ++j) sh.wait(c2, train[j]);
        const Cycle done = c2.now();
        for (std::uint32_t j = 0; j < train_n; ++j) {
          const PendingStamp s = mystamps.front();
          mystamps.pop_front();
          record(s.t_arr, s.t_disp, done);
        }
        train_n = 0;
      };
      for (;;) {
        if (myq.empty()) {
          if (train_n > 0) {
            // Open-loop lull: reap the partial train so in-flight ops are
            // not stranded until the next arrival.
            reap_train(ctx);
            continue;  // time passed; re-check for new arrivals
          }
          waiting[i] = 1;
          ex.sched().suspend();
          continue;
        }
        const Arrival arr = myq.front();
        myq.pop_front();
        const Cycle t_disp = ctx.now();
        const Cycle wait_from = arr.t > t_meas0 ? arr.t : t_meas0;
        if (t_disp > wait_from) carve_queue_delay(acct, t_disp - wait_from);
        const std::uint64_t arg = cfg.queue_object ? 1 + (k & 0xFFFF) : 0;
        ++k;
        const sync::CsFn<SimCtx> fn = arr.alt ? fn_alt : fn_main;
        if (batch >= 2) {
          mystamps.push_back({arr.t, t_disp});
          train[train_n++] = sh.apply_async(ctx, fn, arr.obj, arg);
          if (train_n == batch) reap_train(ctx);
        } else {
          sh.apply(ctx, fn, arr.obj, arg);
          record(arr.t, t_disp, ctx.now());
        }
      }
    });
  }

  // ---- arrival delivery ----
  std::function<void(Cycle)> arrive = [&](Cycle t) {
    const std::uint32_t sess = static_cast<std::uint32_t>(gen.below(nsess));
    const std::uint32_t obj_i = zipf.sample(gen.uniform());
    const bool alt = gen.below(100) >= mix[sess];
    if (t >= t_meas0) ++offered_n;
    auto& q = pend[sess];
    bool admitted = true;
    if (q.size() >= cfg.queue_cap) {
      ++sh.stats(shards + sess).shed_ops;
      if (cfg.shed == ShedPolicy::kDropNewest) {
        admitted = false;
      } else {
        q.pop_front();
      }
    }
    if (admitted) {
      q.push_back(Arrival{t, obj_i, alt});
      if (t >= t_meas0) ++admitted_n;
      if (waiting[sess]) {
        waiting[sess] = 0;
        ex.sched().wake(sfid[sess], t);
      }
    }
    const Cycle nt = gen.next(t);
    if (nt <= t_end) {
      ex.sched().at(nt, [&arrive, nt] { arrive(nt); });
    }
  };
  const Cycle t0 = gen.next(0);
  if (t0 <= t_end) {
    ex.sched().at(t0, [&arrive, t0] { arrive(t0); });
  }

  // ---- run: warmup, then one continuous measurement window ----
  ex.run_until(base.warmup);
  ex.machine().reset_window_counters();
  const SyncStats stats0 = sum_stats();
  tel.start(t_meas0, t_end);
  ex.run_until(t_end);
  ex.machine().finalize_accounts(t_end);
  tel.flush(t_end);
  const SyncStats stat_delta = diff_stats(sum_stats(), stats0);

  RunResult r;
  r.total_ops = completed_n;
  r.arrivals = admitted_n;
  r.shed_ops = stat_delta.shed_ops;
  const double win = static_cast<double>(measure);
  r.mops = static_cast<double>(completed_n) / win * 1200.0;
  r.offered_mops = static_cast<double>(offered_n) / win * 1200.0;
  r.lat_mean = sojourn.summary().mean();
  r.lat_p50 = static_cast<double>(sojourn.quantile(0.50));
  r.lat_p99 = static_cast<double>(sojourn.quantile(0.99));
  r.lat_p999 = static_cast<double>(sojourn.quantile(0.999));
  r.lat_max = sojourn.summary().max();
  r.queue_delay_mean = queue_delay.mean();
  r.service_mean = service_time.mean();
  r.combining_rate = stat_delta.combining_rate();
  r.throttle_waits = stat_delta.throttle_waits;
  r.stall_timeouts = stat_delta.stall_timeouts;
  r.cycles_per_op = r.mops > 0 ? 1200.0 / r.mops : 0;
  r.serv_account = ex.machine().core(0).account;  // shard 0's core
  r.serv_ops = static_cast<double>(stat_delta.served ? stat_delta.served
                                                     : completed_n);

  if (base.obs.metrics != nullptr) {
    using obs::JsonValue;
    using obs::MetricsRegistry;
    JsonValue& run = base.obs.metrics->add_run(base.obs.label);
    JsonValue& c = run["config"];
    c["app_threads"] = JsonValue(std::uint64_t{nsess});
    c["servers"] = JsonValue(std::uint64_t{shards});
    c["warmup"] = JsonValue(std::uint64_t{base.warmup});
    c["window"] = JsonValue(std::uint64_t{measure});
    c["reps"] = JsonValue(std::uint64_t{1});
    c["seed"] = JsonValue(base.seed);
    c["max_ops"] = JsonValue(base.max_ops);
    c["max_inflight"] = JsonValue(base.max_inflight);
    c["stall_timeout"] = JsonValue(std::uint64_t{base.stall_timeout});
    c["async_batch"] = JsonValue(std::uint64_t{base.async_batch});
    c["faults_enabled"] = JsonValue(base.faults.enabled());
    JsonValue& res = run["results"];
    res["mops"] = JsonValue(r.mops);
    res["lat_mean"] = JsonValue(r.lat_mean);
    res["lat_p50"] = JsonValue(r.lat_p50);
    res["lat_p99"] = JsonValue(r.lat_p99);
    res["total_ops"] = JsonValue(r.total_ops);
    res["throttle_waits"] = JsonValue(r.throttle_waits);
    res["stall_timeouts"] = JsonValue(r.stall_timeouts);
    res["serv_ops"] = JsonValue(r.serv_ops);
    JsonValue& svc = run["service"];
    svc["arrival"] = JsonValue(arrival_model_name(cfg.arrival));
    svc["offered_mops_target"] = JsonValue(cfg.offered_mops);
    svc["offered_mops"] = JsonValue(r.offered_mops);
    svc["achieved_mops"] = JsonValue(r.mops);
    svc["sessions"] = JsonValue(std::uint64_t{nsess});
    svc["objects"] = JsonValue(std::uint64_t{nobj});
    svc["shards"] = JsonValue(std::uint64_t{shards});
    svc["zipf_s"] = JsonValue(cfg.zipf_s);
    svc["burst"] = JsonValue(cfg.burst);
    svc["dwell_quiet"] = JsonValue(std::uint64_t{cfg.dwell_quiet});
    svc["dwell_burst"] = JsonValue(std::uint64_t{cfg.dwell_burst});
    svc["queue_cap"] = JsonValue(std::uint64_t{cfg.queue_cap});
    svc["shed_policy"] = JsonValue(shed_policy_name(cfg.shed));
    svc["object"] = JsonValue(cfg.queue_object ? "ms-queue" : "counter");
    svc["offered"] = JsonValue(offered_n);
    svc["arrivals"] = JsonValue(r.arrivals);
    svc["completed"] = JsonValue(completed_n);
    svc["shed_ops"] = JsonValue(r.shed_ops);
    JsonValue& soj = svc["sojourn"];
    soj["mean"] = JsonValue(r.lat_mean);
    soj["p50"] = JsonValue(r.lat_p50);
    soj["p99"] = JsonValue(r.lat_p99);
    soj["p999"] = JsonValue(r.lat_p999);
    soj["max"] = JsonValue(r.lat_max);
    soj["count"] = JsonValue(sojourn.count());
    soj["kept"] = JsonValue(static_cast<std::uint64_t>(sojourn.kept()));
    svc["queue_delay_mean"] = JsonValue(r.queue_delay_mean);
    svc["service_mean"] = JsonValue(r.service_mean);
    run["machine_params"] = MetricsRegistry::params_json(base.machine);
    run["sync_stats"] = MetricsRegistry::sync_stats_json(stat_delta);
    run["machine"] = MetricsRegistry::machine_json(ex.machine());
    JsonValue& accts = run["cycle_accounts"];
    for (std::uint32_t core = 0; core < ex.machine().cores(); ++core) {
      accts.push_back(MetricsRegistry::cycle_account_json(
          ex.machine().core(core).account));
    }
    if (tel.enabled()) {
      run["telemetry"] = tel.to_json();
    }
    if (tracing) {
      run["trace"] = MetricsRegistry::tracer_json(ex.machine().tracer());
    }
  }
  if (tracing) {
    base.obs.trace->merge_from(ex.machine().tracer());
  }
  return r;
}

}  // namespace hmps::harness
