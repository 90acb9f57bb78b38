#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "harness/driver.hpp"
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

/// What the closed loop's clients tally; the measurement shell takes each
/// window's counts and zeroes them.
struct Tally {
  explicit Tally(std::uint32_t threads) : ops(threads, 0), latsum(threads, 0) {}
  std::vector<std::uint64_t> ops;
  std::vector<double> latsum;
  bool measuring = false;  // set once warmup completes
  sim::Histogram lat_hist{/*bucket_width=*/8, /*nbuckets=*/4096};
};

/// The servicing core's cycles and the machine's message and controller
/// counters at a window boundary.
struct Counters {
  Cycle busy, stall;
  std::uint64_t msgs;
  Cycle ctrl_wait;
};

/// The closed loop's measurement shell: warmup, then `reps` windows
/// (construction-independent, so compiled once).
RunResult measure(reg::Frame& f, Tally& tally) {
  const RunCfg& cfg = f.cfg;
  arch::Machine& m = f.ex.machine();
  // Reads the boundary's counters, then settles every core's account.
  auto snap = [&m] {
    const Counters c{m.core(0).busy, m.core(0).stall,
                     m.udn().counters().messages,
                     m.coherence().counters().ctrl_wait_total};
    m.settle_accounts();
    return c;
  };
  f.ex.run_until(cfg.warmup);
  tally.measuring = true;
  const Counters first = snap();
  std::fill(tally.ops.begin(), tally.ops.end(), 0);
  std::fill(tally.latsum.begin(), tally.latsum.end(), 0.0);
  // Baselines right after snap() settled the accounts, so per-bucket
  // telemetry window sums telescope to exactly the run's cycle_accounts.
  const Cycle t0 = f.ex.sched().now();
  f.mark(t0, t0 + cfg.reps * cfg.window);

  RunResult r;
  std::vector<double> rep_mops;
  double lat_sum = 0, fair_max = 0, fair_min = 0;
  Counters last = first;
  for (std::uint32_t rep = 0; rep < cfg.reps; ++rep) {
    f.ex.run_until(f.ex.sched().now() + cfg.window);
    // Take and zero the window's counts.
    std::uint64_t dops = 0, dmax = 0, dmin = ~std::uint64_t{0};
    double dlat = 0;
    for (std::uint32_t i = 0; i < f.clients; ++i) {
      const std::uint64_t d = std::exchange(tally.ops[i], 0);
      dops += d;
      dlat += std::exchange(tally.latsum[i], 0);
      // The fixed combiner (thread 0) completes no application ops; skip
      // zero-op threads in the fairness ratio.
      if (d > 0) {
        dmax = std::max(dmax, d);
        dmin = std::min(dmin, d);
      }
    }
    last = snap();
    rep_mops.push_back(static_cast<double>(dops) /
                       static_cast<double>(cfg.window) * 1200.0);
    lat_sum += dlat;
    fair_max += static_cast<double>(dmax);
    fair_min += static_cast<double>(dmin == ~std::uint64_t{0} ? 0 : dmin);
    f.window(dops);
    r.total_ops += dops;
  }
  // The last snap() settled the accounts at the final window boundary;
  // close telemetry's final window against those same values.
  f.tel.flush(f.ex.sched().now());

  double mean = 0;
  for (double x : rep_mops) mean += x;
  mean /= static_cast<double>(rep_mops.size());
  double var = 0;
  for (double x : rep_mops) var += (x - mean) * (x - mean);
  var /= static_cast<double>(rep_mops.size());

  r.mops = mean;
  r.mops_std = std::sqrt(var);
  const double napply = static_cast<double>(r.total_ops);
  r.lat_mean = napply > 0 ? lat_sum / napply : 0;
  r.lat_p50 = static_cast<double>(tally.lat_hist.quantile(0.50));
  r.lat_p99 = static_cast<double>(tally.lat_hist.quantile(0.99));
  for (std::uint32_t c = 0; c < m.cores(); ++c) {
    r.preemptions += m.core(c).preemptions;
  }
  const SyncStats& d = f.end(r);
  const auto serv_busy = static_cast<double>(last.busy - first.busy);
  const auto serv_stall = static_cast<double>(last.stall - first.stall);
  const double sops = r.serv_ops;
  r.serv_total_per_op = sops > 0 ? (serv_busy + serv_stall) / sops : 0;
  r.serv_stall_per_op = sops > 0 ? serv_stall / sops : 0;
  r.cas_per_op =
      napply > 0 ? static_cast<double>(d.cas_attempts) / napply : 0;
  r.fairness = fair_min > 0 ? fair_max / fair_min : 0;
  r.msgs_per_op =
      napply > 0 ? static_cast<double>(last.msgs - first.msgs) / napply : 0;
  r.ctrl_wait_per_op =
      napply > 0 ? static_cast<double>(last.ctrl_wait - first.ctrl_wait) /
                       napply
                 : 0;
  f.close(f.entry(r, /*closed=*/true));
  return r;
}

/// The Section 5.2 closed loop: app thread i issues mix.at(k) for k = 0,
/// 1, ... with think time between ops. `gauges` registers the
/// construction's backlog gauge with telemetry.
template <class U>
RunResult closed_loop(reg::Run<U>& run, const Mix& mix, bool gauges) {
  const RunCfg& cfg = run.cfg;
  Tally tally(run.clients);
  run.spawn([&](SimCtx& ctx, std::uint32_t i) {
    for (std::uint64_t k = 0;;) {
      const Cycle t0 = ctx.now();
      const CsCall op = mix.at(k++);
      const std::uint64_t done = run.issue(ctx, op.fn, op.arg);
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
  if (run.tel.enabled() && gauges) reg::add_backlog_gauge(run.tel, run.uc);
  return measure(run, tally);
}

/// Builds construction `kind` on `p.obj` and runs the closed loop over it,
/// in per-thread trains of `batch` async tickets when it has them.
RunResult run_closed_loop(const RunCfg& cfg, Kind kind, const reg::Params& p,
                          const Mix& mix, std::uint32_t batch, bool gauges) {
  return reg::drive(cfg, kind, p, cfg.app_threads, batch, [&](auto& run) {
    return closed_loop(run, mix, gauges);
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
