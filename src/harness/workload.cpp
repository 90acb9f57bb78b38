#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "harness/constructions.hpp"
#include "sim/stats.hpp"

namespace hmps::harness {

using reg::Kind;
using rt::SimCtx;
using rt::SimExecutor;
using sim::Cycle;
using sync::SyncStats;

namespace {

constexpr reg::Row<Approach> kApproaches[] = {
    {Approach::kMpServer, "mp-server", Kind::kMpServer},
    {Approach::kHybComb, "HybComb", Kind::kHybComb},
    {Approach::kShmServer, "shm-server", Kind::kShmServer},
    {Approach::kCcSynch, "CC-Synch", Kind::kCcSynch},
    {Approach::kMcsLock, "mcs", Kind::kMcsLock},
    {Approach::kClhLock, "clh", Kind::kClhLock},
    {Approach::kTicketLock, "ticket", Kind::kTicketLock},
    {Approach::kTasLock, "tas", Kind::kTasLock},
    {Approach::kTtasLock, "ttas", Kind::kTtasLock},
    {Approach::kVlinkServer, "vlink-server", Kind::kVlink},
    {Approach::kOyama, "Oyama99", Kind::kOyama},
    {Approach::kFlatCombining, "flat-combining", Kind::kFlatCombining},
    {Approach::kDsmSynch, "DSM-Synch", Kind::kDsmSynch},
    {Approach::kHSynch, "H-Synch", Kind::kHSynch},
    {Approach::kHybCombSwap, "HybComb-swap", Kind::kHybCombSwap},
    {Approach::kHybCombNoDrain, "HybComb-nodrain", Kind::kHybCombNoDrain},
};
constexpr reg::Row<QueueImpl> kQueues[] = {
    {QueueImpl::kMp1, "mp-server-1", Kind::kMpServer},
    {QueueImpl::kHyb1, "HybComb-1", Kind::kHybComb},
    {QueueImpl::kShm1, "shm-server-1", Kind::kShmServer},
    {QueueImpl::kCc1, "CC-Synch-1", Kind::kCcSynch},
    {QueueImpl::kMp2, "mp-server-2", Kind::kMpServerPair},
    {QueueImpl::kLcrq, "LCRQ", Kind::kLcrq},
    {QueueImpl::kVl1, "vlink-1", Kind::kVlink},
};
constexpr reg::Row<StackImpl> kStacks[] = {
    {StackImpl::kMp, "mp-server", Kind::kMpServer},
    {StackImpl::kHyb, "HybComb", Kind::kHybComb},
    {StackImpl::kShm, "shm-server", Kind::kShmServer},
    {StackImpl::kCc, "CC-Synch", Kind::kCcSynch},
    {StackImpl::kTreiber, "Treiber", Kind::kTreiber},
    {StackImpl::kVl, "vlink", Kind::kVlink},
};

}  // namespace

const char* approach_name(Approach a) { return reg::name_of(kApproaches, a); }
const char* queue_name(QueueImpl q) { return reg::name_of(kQueues, q); }
const char* stack_name(StackImpl s) { return reg::name_of(kStacks, s); }

bool approach_needs_server(Approach a) {
  return reg::traits(reg::kind_of(a)).serves;
}

Kind reg::kind_of(Approach a) {
  return row_kind(kApproaches, a, "run_counter", "Approach");
}

namespace {

/// One application operation: a CS body and its argument.
struct CsCall {
  reg::Fn fn;
  std::uint64_t arg;
};

/// A client's op mix. With `consume` set (queues, stacks) ops alternate
/// produce(1 + k mod 2^16) and consume(0); otherwise every op is
/// produce(arg).
struct Mix {
  reg::Fn produce;
  reg::Fn consume = nullptr;
  std::uint64_t arg = 0;

  CsCall at(std::uint64_t k) const {
    if (consume == nullptr) return {produce, arg};
    return (k & 1) == 0 ? CsCall{produce, 1 + (k & 0xFFFF)}
                        : CsCall{consume, 0};
  }
};

// Everything the closed loop snapshots at window boundaries.
struct Snapshot {
  std::vector<std::uint64_t> ops;
  std::vector<double> latsum;
  SyncStats stats;  // summed over threads
  Cycle core0_busy = 0, core0_stall = 0;
  std::uint64_t msgs = 0;
  Cycle ctrl_wait = 0;
  // Settled per-core cycle accounts (monotonic; windows are diffs).
  std::vector<obs::CycleAccount> accounts;
};

/// What the closed loop's clients tally for the measurement windows.
struct Tally {
  explicit Tally(std::uint32_t threads) : ops(threads, 0), latsum(threads, 0) {}
  std::vector<std::uint64_t> ops;
  std::vector<double> latsum;
  bool measuring = false;  // set once warmup completes
  sim::Histogram lat_hist{/*bucket_width=*/8, /*nbuckets=*/4096};
};

/// Warmup, measurement windows and the run entry: the part of the closed
/// loop that does not depend on the construction (compiled once).
RunResult measure(const RunCfg& cfg, SimExecutor& ex, std::uint32_t ns,
                  Tally& tally, obs::Telemetry& tel,
                  const std::function<SyncStats()>& sum_stats);

/// The Section 5.2 closed loop over construction `uc`: app thread i issues
/// mix.at(k) for k = 0, 1, ... with think time between ops, through
/// per-thread trains of `batch` async tickets when uc has them (batch >= 2).
/// `gauges` registers uc's backlog gauge with telemetry.
template <class U>
RunResult closed_loop(const RunCfg& cfg, SimExecutor& ex, U& uc,
                      const Mix& mix, std::uint32_t batch, bool gauges) {
  const std::uint32_t ns = reg::add_servers(ex, uc);
  const std::uint32_t na = cfg.app_threads;
  reg::Trains<U> trains(uc, batch, ns + na);
  Tally tally(na);
  for (std::uint32_t i = 0; i < na; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      std::uint64_t k = 0;
      for (;;) {
        const Cycle t0 = ctx.now();
        const CsCall op = mix.at(k++);
        // Ops completed by this call: 1 for a synchronous apply, 0 while a
        // train fills, the train length when one is issued and reaped.
        std::uint64_t done = 1;
        if (trains.on()) {
          done = trains.add(ctx, op.fn, op.arg);
        } else {
          uc.apply(ctx, op.fn, op.arg);
        }
        const Cycle lat = ctx.now() - t0;
        // latsum accumulates all time spent inside the op (including calls
        // that only buffered), so lat_mean stays time-per-completed-op
        // under batching; the histogram records the train's mean.
        tally.ops[i] += done;
        tally.latsum[i] += static_cast<double>(lat);
        if (tally.measuring && done > 0) tally.lat_hist.add(lat / done);
        // Section 5.2: up to think_iters_max empty loop iterations.
        ctx.compute(cfg.think_iter_cost *
                    ctx.rand_below(cfg.think_iters_max + 1));
      }
    });
  }
  obs::Telemetry tel(ex.machine(), {cfg.telemetry_window});
  if (tel.enabled() && gauges) reg::add_backlog_gauge(tel, uc);
  return measure(cfg, ex, ns, tally, tel, [&uc] { return reg::sum_stats(uc); });
}

RunResult measure(const RunCfg& cfg, SimExecutor& ex, std::uint32_t ns,
                  Tally& tally, obs::Telemetry& tel,
                  const std::function<SyncStats()>& sum_stats) {
  const std::uint32_t na = cfg.app_threads;
  auto snap = [&]() {
    Snapshot s;
    s.ops = tally.ops;
    s.latsum = tally.latsum;
    s.stats = sum_stats();
    s.core0_busy = ex.machine().core(0).busy;
    s.core0_stall = ex.machine().core(0).stall;
    s.msgs = ex.machine().udn().counters().messages;
    s.ctrl_wait = ex.machine().coherence().counters().ctrl_wait_total;
    ex.machine().settle_accounts();
    s.accounts.reserve(ex.machine().cores());
    for (std::uint32_t c = 0; c < ex.machine().cores(); ++c) {
      s.accounts.push_back(ex.machine().core(c).account);
    }
    return s;
  };

  ex.run_until(cfg.warmup);
  tally.measuring = true;
  const Snapshot first = snap();
  Snapshot prev = first;
  // Baseline right after the run-level snapshot (snap() settled the
  // accounts), so per-bucket window sums telescope to exactly the
  // run-level cycle_accounts deltas below.
  tel.start(ex.sched().now(), ex.sched().now() + cfg.reps * cfg.window);

  RunResult r;
  std::vector<double> rep_mops;
  double lat_n = 0, lat_sum = 0;
  double serv_ops = 0;
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

    const SyncStats d = cur.stats.since(prev.stats);
    serv_ops += static_cast<double>(d.served ? d.served : dops);
    stat_delta.add(d);
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
  r.lat_p50 = static_cast<double>(tally.lat_hist.quantile(0.50));
  r.lat_p99 = static_cast<double>(tally.lat_hist.quantile(0.99));
  // `prev` is the last snapshot: the servicing core's cycles over the reps.
  const auto serv_busy =
      static_cast<double>(prev.core0_busy - first.core0_busy);
  const auto serv_stall =
      static_cast<double>(prev.core0_stall - first.core0_stall);
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
  // Windowed (post-warmup) per-core attribution; [0] is the servicing core
  // for the server/combiner constructions. Both endpoints are settled, so
  // each account's buckets sum to reps * window.
  std::vector<obs::CycleAccount> accounts;
  for (std::size_t core = 0; core < prev.accounts.size(); ++core) {
    accounts.push_back(prev.accounts[core].diff_since(first.accounts[core]));
  }
  r.serv_account = accounts[0];
  r.serv_ops = serv_ops;

  obs::JsonValue* run = nullptr;
  if (cfg.obs.metrics != nullptr) {
    using obs::JsonValue;
    run = &cfg.obs.metrics->add_run(cfg.obs.label);
    JsonValue& c = (*run)["config"];
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
    JsonValue& res = (*run)["results"];
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
  }
  reg::close_run(run, cfg, ex, stat_delta, accounts, tel);
  return r;
}

/// Builds construction `kind` on `p.obj` and runs the closed loop over it.
RunResult run_closed_loop(const RunCfg& cfg, Kind kind, reg::Params p,
                          const Mix& mix, std::uint32_t batch, bool gauges) {
  SimExecutor ex(cfg.machine, cfg.seed);
  reg::open_run(ex, cfg);
  p.max_ops = cfg.max_ops;
  p.max_inflight = cfg.max_inflight;
  p.stall_timeout = cfg.stall_timeout;
  p.shm_depth = batch;
  return reg::with_construction(kind, p, ex, [&](auto& uc) {
    return closed_loop(cfg, ex, uc, mix, batch, gauges);
  });
}

}  // namespace

RunResult run_counter(const RunCfg& cfg, Approach a) {
  const Kind kind = reg::kind_of(a);
  ds::SeqCounter counter;
  ds::ArrayObject array;
  reg::Params p;
  p.obj = cfg.cs_iters > 0 ? static_cast<void*>(&array)
                           : static_cast<void*>(&counter);
  p.fixed_combiner = cfg.fixed_combiner;
  const Mix mix{cfg.cs_iters > 0 ? &ds::array_inc_loop<SimCtx>
                                 : &ds::counter_inc<SimCtx>,
                nullptr, cfg.cs_iters};
  return run_closed_loop(cfg, kind, p, mix, cfg.async_batch,
                         /*gauges=*/true);
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

RunResult run_queue(const RunCfg& cfg, QueueImpl q) {
  const Kind kind = reg::row_kind(kQueues, q, "run_queue", "QueueImpl");
  ds::SeqQueue queue(16384);
  reg::Params p;
  p.obj = &queue;
  // Only the one-lock MP-SERVER queue pipelines its clients' requests.
  const std::uint32_t batch = kind == Kind::kMpServer ? cfg.async_batch : 0;
  return run_closed_loop(cfg, kind, p,
                         {&ds::q_enqueue<SimCtx>, &ds::q_dequeue<SimCtx>},
                         batch, /*gauges=*/false);
}

RunResult run_stack(const RunCfg& cfg, StackImpl s) {
  const Kind kind = reg::row_kind(kStacks, s, "run_stack", "StackImpl");
  ds::SeqStack stack(16384);
  reg::Params p;
  p.obj = &stack;
  return run_closed_loop(cfg, kind, p,
                         {&ds::s_push<SimCtx>, &ds::s_pop<SimCtx>},
                         /*batch=*/0, /*gauges=*/false);
}

}  // namespace hmps::harness
