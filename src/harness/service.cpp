#include "harness/service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <vector>

#include "harness/driver.hpp"
#include "sim/stats.hpp"

namespace hmps::harness {

using rt::SimCtx;
using rt::SimExecutor;
using sim::Cycle;

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

/// The open-loop run (one server or a fleet; the farm object index rides
/// in each op's argument). Its measurement window is run.cfg.window.
template <class U>
RunResult open_loop(const ServiceCfg& cfg, reg::Run<U>& run,
                    std::uint32_t nobj) {
  const RunCfg& base = run.cfg;
  SimExecutor& ex = run.ex;
  const std::uint32_t nsess = run.clients;
  const Cycle t_meas0 = base.warmup;
  const Cycle t_end = base.warmup + base.window;
  const reg::Fn fn_main = cfg.queue_object ? &reg::farm_enq : &reg::farm_inc;
  const reg::Fn fn_alt = cfg.queue_object ? &reg::farm_deq : &reg::farm_get;

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
  obs::Telemetry& tel = run.tel;
  if (tel.enabled()) {
    tel.enable_completion_stream();
    tel.add_gauge("admission_queue", [&pend] {
      std::uint64_t n = 0;
      for (const auto& q : pend) n += q.size();
      return n;
    });
    reg::add_backlog_gauge(tel, run.uc);
    tel.add_counter("shed_ops",
                    [&run] { return reg::sum_stats(run.uc).shed_ops; });
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

  // ---- session fibers ----
  run.spawn([&](SimCtx& ctx, std::uint32_t i) {
    sfid[i] = ex.sched().current();
    const std::uint32_t core = (run.servers + i) % ex.machine().cores();
    auto& myq = pend[i];
    auto& mystamps = stamps[i];
    // Records the `n` oldest stamped ops as completed now.
    auto complete = [&](std::uint64_t n) {
      const Cycle done = ctx.now();
      for (std::uint64_t j = 0; j < n; ++j) {
        const PendingStamp st = mystamps.front();
        mystamps.pop_front();
        if (done < t_meas0) continue;
        sojourn.add(done - st.t_arr);
        queue_delay.add(static_cast<double>(st.t_disp - st.t_arr));
        service_time.add(static_cast<double>(done - st.t_disp));
        ++completed_n;
        tel.record_completion(done - st.t_arr);
      }
    };
    std::uint64_t k = 0;
    for (;;) {
      if (myq.empty()) {
        // Open-loop lull: flush the partial train so its ops are not
        // stranded until the next arrival (sync::AsyncBatcher).
        if (const std::uint64_t n = run.flush(ctx); n > 0) {
          complete(n);
          continue;  // time passed; re-check for new arrivals
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
      mystamps.push_back({arr.t, t_disp});
      complete(run.issue(ctx, arr.alt ? fn_alt : fn_main, arg));
    }
  });

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
      if constexpr (requires { ++run.uc.stats(0).shed_ops; }) {
        ++run.uc.stats(run.servers + sess).shed_ops;
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
  // Baseline after the reset: every account starts from zero at t_meas0,
  // so the per-bucket window sums telescope to the final cycle_accounts.
  run.mark(t_meas0, t_end);
  ex.run_until(t_end);
  // Close the books even if the event queue drained before t_end (all
  // sessions idle past the last arrival): the tail must become idle time
  // or the per-core accounts under-cover the window.
  ex.machine().finalize_accounts(t_end);
  tel.flush(t_end);
  run.window(completed_n);

  RunResult r;
  r.total_ops = completed_n;
  r.arrivals = admitted_n;
  const double win = static_cast<double>(base.window);
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
  r.shed_ops = run.end(r).shed_ops;

  obs::JsonValue* entry = run.entry(r, /*closed=*/false);
  if (entry != nullptr) {
    using obs::JsonValue;
    JsonValue& svc = (*entry)["service"];
    svc["arrival"] = JsonValue(arrival_model_name(cfg.arrival));
    svc["offered_mops_target"] = JsonValue(cfg.offered_mops);
    svc["offered_mops"] = JsonValue(r.offered_mops);
    svc["achieved_mops"] = JsonValue(r.mops);
    svc["sessions"] = JsonValue(std::uint64_t{nsess});
    svc["objects"] = JsonValue(std::uint64_t{nobj});
    if constexpr (reg::MultiServer<U>) {
      svc["shards"] = JsonValue(std::uint64_t{run.servers});
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
  run.close(entry);
  return r;
}

/// Builds construction `kind` over a counter or queue farm and runs the
/// open loop against it; `name` names it in diagnostics.
RunResult run_farm(const ServiceCfg& cfg, Kind kind, const char* name) {
  // One continuous measurement window: percentiles need the whole
  // completion stream.
  RunCfg base = cfg.base;
  base.window *= std::max<std::uint64_t>(base.reps, 1);
  base.reps = 1;
  const bool fleet = kind == Kind::kSharded;
  const std::uint32_t max_sessions =
      fleet ? sync::ShardedServer<SimCtx>::kMaxClients : ~0u;
  const std::uint32_t nsess =
      std::min(std::max(cfg.sessions, 1u), max_sessions);
  const std::uint32_t nobj = std::min(std::max(cfg.objects, 1u),
                                      fleet ? kShardedObjects : kMaxObjects);
  const reg::FarmPtr farm = cfg.queue_object
                                ? reg::make_farm<ds::SeqQueue>(nobj)
                                : reg::make_farm<ds::SeqCounter>(nobj);
  reg::Params p;
  p.obj = farm.get();
  p.shards = cfg.shards;
  p.objects = nobj;
  p.transfers = cfg.queue_object;
  return reg::drive(
      base, kind, p, nsess, base.async_batch, [&](auto& run) -> RunResult {
        using U = std::remove_reference_t<decltype(run.uc)>;
        // The constructions with a service driver (compiled only for them).
        if constexpr (reg::OneOf<U, sync::MpServer<SimCtx>,
                                 sync::HybComb<SimCtx>,
                                 sync::ShmServer<SimCtx>,
                                 sync::CcSynch<SimCtx>,
                                 sync::VlinkServer<SimCtx>, reg::Fleet>) {
          return open_loop(cfg, run, nobj);
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
