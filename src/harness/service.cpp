#include "harness/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <vector>

#include "harness/constructions.hpp"
#include "sim/stats.hpp"

namespace hmps::harness {

using rt::SimCtx;
using rt::SimExecutor;
using sim::Cycle;
using sync::SyncStats;

const char* arrival_model_name(ArrivalModel m) {
  constexpr const char* kNames[] = {"poisson", "mmpp"};  // enum order
  const auto i = static_cast<std::size_t>(m);
  return i < std::size(kNames) ? kNames[i] : "?";
}

const char* shed_policy_name(ShedPolicy p) {
  constexpr const char* kNames[] = {"drop-newest", "drop-oldest"};
  const auto i = static_cast<std::size_t>(p);
  return i < std::size(kNames) ? kNames[i] : "?";
}

namespace {

using reg::Kind;

/// Object farms behind one construction (the server-consolidation shape:
/// one serving core, many objects) hold up to 8 objects; a sharded fleet's
/// farm is larger, since rendezvous hashing needs a reasonable object
/// population to balance (docs/SHARDING.md).
constexpr std::uint32_t kMaxObjects = 8;
constexpr std::uint32_t kShardedObjects = 64;

struct Arrival {
  Cycle t;            ///< arrival time
  std::uint32_t obj;  ///< Zipf-chosen object index
  bool alt;           ///< session-mix alternate op (get/dequeue)
};

struct PendingStamp {
  Cycle t_arr;
  Cycle t_disp;
};

/// The open-loop run over construction `uc` (one server or a fleet; the
/// farm object index rides in each op's argument).
template <class U>
RunResult open_loop(const ServiceCfg& cfg, SimExecutor& ex, U& uc,
                    std::uint32_t nsess, std::uint32_t nobj) {
  const RunCfg& base = cfg.base;
  const Cycle measure =
      base.window * std::max<std::uint64_t>(base.reps, 1);
  const Cycle t_meas0 = base.warmup;
  const Cycle t_end = base.warmup + measure;
  const reg::Fn fn_main = cfg.queue_object ? &reg::farm_enq : &reg::farm_inc;
  const reg::Fn fn_alt = cfg.queue_object ? &reg::farm_deq : &reg::farm_get;

  const std::uint32_t ns = reg::add_servers(ex, uc);
  // Client-side trains (idle-flushed on lulls; docs/SERVICE.md).
  reg::Trains<U> trains(uc, base.async_batch, ns + nsess);

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
    reg::add_backlog_gauge(tel, uc);
    tel.add_counter("shed_ops", [&uc] { return reg::sum_stats(uc).shed_ops; });
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
      auto& myq = pend[i];
      auto& mystamps = stamps[i];
      // Records the `n` oldest stamped ops as completed now.
      auto complete = [&](std::uint64_t n) {
        const Cycle done = ctx.now();
        for (std::uint64_t j = 0; j < n; ++j) {
          const PendingStamp s = mystamps.front();
          mystamps.pop_front();
          record(s.t_arr, s.t_disp, done);
        }
      };
      std::uint64_t k = 0;
      for (;;) {
        if (myq.empty()) {
          // Open-loop lull: flush the partial train so its ops are not
          // stranded until the next arrival (sync::AsyncBatcher).
          if (trains.on()) {
            if (const std::uint64_t n = trains.flush(ctx); n > 0) {
              complete(n);
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
        if (t_disp > wait_from) {
          carve_queue_delay(ex.machine().core(core).account,
                            t_disp - wait_from);
        }
        const std::uint64_t arg = sync::ShardedServer<SimCtx>::pack_obj_arg(
            arr.obj, cfg.queue_object ? 1 + (k & 0xFFFF) : 0);
        ++k;
        const reg::Fn fn = arr.alt ? fn_alt : fn_main;
        if (trains.on()) {
          mystamps.push_back({arr.t, t_disp});
          complete(trains.add(ctx, fn, arg));
        } else {
          uc.apply(ctx, fn, arg);
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
      if constexpr (requires { ++uc.stats(0).shed_ops; }) {
        ++uc.stats(ns + sess).shed_ops;
      }
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
  const SyncStats stats0 = reg::sum_stats(uc);
  // Baseline after the reset: every account starts from zero at t_meas0,
  // so the per-bucket window sums telescope to the final cycle_accounts.
  tel.start(t_meas0, t_end);
  ex.run_until(t_end);
  // Close the books even if the event queue drained before t_end (all
  // sessions idle past the last arrival): the tail must become idle time
  // or the per-core accounts under-cover the window.
  ex.machine().finalize_accounts(t_end);
  tel.flush(t_end);
  const SyncStats stat_delta = reg::sum_stats(uc).since(stats0);

  RunResult r;
  r.total_ops = completed_n;
  r.arrivals = admitted_n;
  r.shed_ops = stat_delta.shed_ops;
  const double win = static_cast<double>(measure);
  r.mops = static_cast<double>(completed_n) / win * 1200.0;
  r.offered_mops = static_cast<double>(offered_n) / win * 1200.0;
  r.lat_mean = sojourn.summary().mean();
  const auto [p50, p99, p999] = sojourn.quantiles({0.50, 0.99, 0.999});
  r.lat_p50 = static_cast<double>(p50);
  r.lat_p99 = static_cast<double>(p99);
  r.lat_p999 = static_cast<double>(p999);
  r.lat_max = sojourn.summary().max();
  r.queue_delay_mean = queue_delay.mean();
  r.service_mean = service_time.mean();
  r.combining_rate = stat_delta.combining_rate();
  r.throttle_waits = stat_delta.throttle_waits;
  r.stall_timeouts = stat_delta.stall_timeouts;
  r.cycles_per_op = r.mops > 0 ? 1200.0 / r.mops : 0;
  // Windowed attribution of the serving core ([0]: shard 0 for a fleet,
  // the first session's core for the serverless combiners).
  r.serv_account = ex.machine().core(0).account;
  r.serv_ops = static_cast<double>(stat_delta.served ? stat_delta.served
                                                     : completed_n);

  obs::JsonValue* run = nullptr;
  if (base.obs.metrics != nullptr) {
    using obs::JsonValue;
    run = &base.obs.metrics->add_run(base.obs.label);
    JsonValue& c = (*run)["config"];
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
    JsonValue& res = (*run)["results"];
    res["mops"] = JsonValue(r.mops);
    res["lat_mean"] = JsonValue(r.lat_mean);
    res["lat_p50"] = JsonValue(r.lat_p50);
    res["lat_p99"] = JsonValue(r.lat_p99);
    res["total_ops"] = JsonValue(r.total_ops);
    res["throttle_waits"] = JsonValue(r.throttle_waits);
    res["stall_timeouts"] = JsonValue(r.stall_timeouts);
    res["serv_ops"] = JsonValue(r.serv_ops);
    JsonValue& svc = (*run)["service"];
    svc["arrival"] = JsonValue(arrival_model_name(cfg.arrival));
    svc["offered_mops_target"] = JsonValue(cfg.offered_mops);
    svc["offered_mops"] = JsonValue(r.offered_mops);
    svc["achieved_mops"] = JsonValue(r.mops);
    svc["sessions"] = JsonValue(std::uint64_t{nsess});
    svc["objects"] = JsonValue(std::uint64_t{nobj});
    if constexpr (reg::MultiServer<U>) {
      svc["shards"] = JsonValue(std::uint64_t{ns});
    }
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
  }
  std::vector<obs::CycleAccount> accounts;
  for (std::uint32_t core = 0; core < ex.machine().cores(); ++core) {
    accounts.push_back(ex.machine().core(core).account);
  }
  reg::close_run(run, base, ex, stat_delta, accounts, tel);
  return r;
}

/// Builds construction `kind` over a counter or queue farm and runs the
/// open loop against it; `name` names it in diagnostics.
RunResult run_farm(const ServiceCfg& cfg, Kind kind, const char* name) {
  const RunCfg& base = cfg.base;
  const bool fleet = kind == Kind::kSharded;
  const std::uint32_t max_sessions =
      fleet ? sync::ShardedServer<SimCtx>::kMaxClients : ~0u;
  const std::uint32_t nsess =
      std::min(std::max(cfg.sessions, 1u), max_sessions);
  const std::uint32_t nobj = std::min(std::max(cfg.objects, 1u),
                                      fleet ? kShardedObjects : kMaxObjects);

  SimExecutor ex(base.machine, base.seed);
  reg::open_run(ex, base);
  const reg::FarmPtr farm = cfg.queue_object
                                ? reg::make_farm<ds::SeqQueue>(nobj)
                                : reg::make_farm<ds::SeqCounter>(nobj);
  reg::Params p;
  p.obj = farm.get();
  p.max_ops = base.max_ops;
  p.max_inflight = base.max_inflight;
  p.stall_timeout = base.stall_timeout;
  p.shm_depth = base.async_batch;
  p.shards = cfg.shards;
  p.objects = nobj;
  p.transfers = cfg.queue_object;
  return reg::with_construction(kind, p, ex, [&](auto& uc) -> RunResult {
    using U = std::remove_reference_t<decltype(uc)>;
    // The constructions with a service driver (compiled only for them).
    if constexpr (reg::OneOf<U, sync::MpServer<SimCtx>, sync::HybComb<SimCtx>,
                             sync::ShmServer<SimCtx>, sync::CcSynch<SimCtx>,
                             sync::VlinkServer<SimCtx>, reg::Fleet>) {
      return open_loop(cfg, ex, uc, nsess, nobj);
    }
    std::fprintf(stderr,
                 "hmps fatal: run_service: approach %s has no service "
                 "driver\n",
                 name);
    std::abort();
  });
}

}  // namespace

RunResult run_service(const ServiceCfg& cfg, Approach a) {
  return run_farm(cfg, reg::kind_of(a), approach_name(a));
}

RunResult run_service_sharded(const ServiceCfg& cfg) {
  return run_farm(cfg, Kind::kSharded, "sharded");
}

}  // namespace hmps::harness
