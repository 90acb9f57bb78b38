// The one run frame under every harness driver (DESIGN.md S21): the closed
// loop (workload.cpp), the open-loop service (service.cpp) and the history
// recorder (record.cpp).
//
// drive() builds the executor with the run's fault plan, trace sink and
// perturber, fills the construction parameters every driver shares, builds
// the construction and starts its server loops, then hands the driver a
// Run. The driver spawns its clients through Run::spawn() (tids in order,
// after the servers) and every client issues its ops through one step,
// Run::issue(): a train of async tickets or a synchronous apply. The closed
// and open loops end through Frame::end(), entry() and close(), which book
// the stats and per-core accounts since Frame::mark() and write the parts
// of the run entry the two loops share. Each driver keeps its op source and
// its measurement shell; the recorder also keeps its reverse-order reap.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/constructions.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/perturb.hpp"
#include "sim/trace.hpp"
#include "sync/async_batcher.hpp"

namespace hmps::harness::reg {

/// Installs the run's fault plan, perturber and trace sink on a fresh
/// executor. A disabled plan leaves the machine untouched; tracing only
/// observes, so runs with and without a sink have identical timings.
inline void open_run(SimExecutor& ex, const RunCfg& cfg,
                     sim::Perturber* perturber) {
  if (cfg.faults.enabled()) ex.machine().install_faults(cfg.faults);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);
  if (cfg.obs.trace != nullptr) {
    ex.machine().tracer().enable(cfg.obs.trace_max_events);
    ex.machine().tracer().set_process(cfg.obs.pid, cfg.obs.label);
  }
}

/// The part of a run that does not depend on the construction (no
/// template, so its code is not repeated per construction): executor,
/// config, thread counts, telemetry, and the stats and per-core accounts of
/// the measured span.
class Frame {
 public:
  using StatsFn = sync::SyncStats (*)(void*);

  Frame(SimExecutor& ex, const RunCfg& cfg, std::uint32_t servers,
        std::uint32_t clients, StatsFn stats, void* uc)
      : ex(ex),
        cfg(cfg),
        servers(servers),
        clients(clients),
        tel(ex.machine(), {cfg.telemetry_window}),
        stats_(stats),
        uc_(uc) {}
  /// Detaches the perturber while the construction still exists.
  ~Frame() { ex.sched().set_perturber(nullptr); }

  SimExecutor& ex;
  const RunCfg& cfg;
  const std::uint32_t servers;  ///< tids [0, servers) run server loops
  const std::uint32_t clients;  ///< tids [servers, servers + clients)
  obs::Telemetry tel;

  /// Starts the measured span: baselines the stats and the per-core
  /// accounts (the caller settles or resets them first) and arms telemetry
  /// over [t0, t_end).
  void mark(sim::Cycle t0, sim::Cycle t_end) {
    stats0_ = last_ = stats_(uc_);
    for (std::uint32_t c = 0; c < ex.machine().cores(); ++c) {
      accounts0_.push_back(ex.machine().core(c).account);
    }
    tel.start(t0, t_end);
  }

  /// Closes one measurement window in which the clients completed `ops`:
  /// the serviced ops gain the window's SyncStats::served, or `ops` for a
  /// construction that counts none.
  void window(std::uint64_t ops) {
    const sync::SyncStats now = stats_(uc_);
    const sync::SyncStats d = now.since(last_);
    serv_ops_ += static_cast<double>(d.served ? d.served : ops);
    last_ = now;
  }

  /// Ends the span (accounts settled or finalized): fills r's
  /// combining_rate, throttle_waits, stall_timeouts, cycles_per_op (from
  /// r.mops), serv_account and serv_ops; returns the stats since mark().
  const sync::SyncStats& end(RunResult& r) {
    delta_ = stats_(uc_).since(stats0_);
    for (std::uint32_t c = 0; c < ex.machine().cores(); ++c) {
      accounts_.push_back(
          ex.machine().core(c).account.diff_since(accounts0_[c]));
    }
    r.combining_rate = delta_.combining_rate();
    r.throttle_waits = delta_.throttle_waits;
    r.stall_timeouts = delta_.stall_timeouts;
    r.cycles_per_op = r.mops > 0 ? 1200.0 / r.mops : 0;
    // [0] is the servicing core of the server constructions (shard 0 of a
    // fleet); for the serverless combiners, the first client's core.
    r.serv_account = accounts_[0];
    r.serv_ops = serv_ops_;
    return delta_;
  }

  /// Opens the run's artifact entry (nullptr without one) with the config
  /// and results keys; `closed` adds the keys only the closed loop has.
  obs::JsonValue* entry(const RunResult& r, bool closed) const {
    using obs::JsonValue;
    if (cfg.obs.metrics == nullptr) return nullptr;
    JsonValue& run = cfg.obs.metrics->add_run(cfg.obs.label);
    JsonValue& c = run["config"];
    c["app_threads"] = JsonValue(std::uint64_t{clients});
    c["servers"] = JsonValue(std::uint64_t{servers});
    c["warmup"] = JsonValue(std::uint64_t{cfg.warmup});
    c["window"] = JsonValue(std::uint64_t{cfg.window});
    c["reps"] = JsonValue(std::uint64_t{cfg.reps});
    c["seed"] = JsonValue(cfg.seed);
    c["max_ops"] = JsonValue(cfg.max_ops);
    if (closed) {
      c["think_iters_max"] = JsonValue(std::uint64_t{cfg.think_iters_max});
      c["think_iter_cost"] = JsonValue(std::uint64_t{cfg.think_iter_cost});
      c["cs_iters"] = JsonValue(cfg.cs_iters);
      c["fixed_combiner"] = JsonValue(cfg.fixed_combiner);
    }
    c["max_inflight"] = JsonValue(cfg.max_inflight);
    c["stall_timeout"] = JsonValue(std::uint64_t{cfg.stall_timeout});
    c["async_batch"] = JsonValue(std::uint64_t{cfg.async_batch});
    c["faults_enabled"] = JsonValue(cfg.faults.enabled());
    JsonValue& res = run["results"];
    res["mops"] = JsonValue(r.mops);
    if (closed) res["mops_std"] = JsonValue(r.mops_std);
    res["lat_mean"] = JsonValue(r.lat_mean);
    res["lat_p50"] = JsonValue(r.lat_p50);
    res["lat_p99"] = JsonValue(r.lat_p99);
    if (closed) {
      res["serv_total_per_op"] = JsonValue(r.serv_total_per_op);
      res["serv_stall_per_op"] = JsonValue(r.serv_stall_per_op);
      res["combining_rate"] = JsonValue(r.combining_rate);
      res["cas_per_op"] = JsonValue(r.cas_per_op);
      res["fairness"] = JsonValue(r.fairness);
      res["msgs_per_op"] = JsonValue(r.msgs_per_op);
      res["ctrl_wait_per_op"] = JsonValue(r.ctrl_wait_per_op);
      res["cycles_per_op"] = JsonValue(r.cycles_per_op);
    }
    res["total_ops"] = JsonValue(r.total_ops);
    res["throttle_waits"] = JsonValue(r.throttle_waits);
    res["stall_timeouts"] = JsonValue(r.stall_timeouts);
    if (closed) res["preemptions"] = JsonValue(r.preemptions);
    res["serv_ops"] = JsonValue(r.serv_ops);
    return &run;
  }

  /// Completes the entry with the blocks every run ends with, then merges
  /// the run's trace into the sink.
  void close(obs::JsonValue* run) const {
    using obs::JsonValue;
    using obs::MetricsRegistry;
    const bool tracing = cfg.obs.trace != nullptr;
    if (run != nullptr) {
      (*run)["machine_params"] = MetricsRegistry::params_json(cfg.machine);
      (*run)["sync_stats"] = MetricsRegistry::sync_stats_json(delta_);
      (*run)["machine"] = MetricsRegistry::machine_json(ex.machine());
      JsonValue& accts = (*run)["cycle_accounts"];
      for (const obs::CycleAccount& a : accounts_) {
        accts.push_back(MetricsRegistry::cycle_account_json(a));
      }
      if (tel.enabled()) (*run)["telemetry"] = tel.to_json();
      if (tracing) {
        (*run)["trace"] =
            MetricsRegistry::tracer_json(ex.machine().tracer());
      }
    }
    if (tracing) cfg.obs.trace->merge_from(ex.machine().tracer());
  }

 private:
  StatsFn stats_;
  void* uc_;
  sync::SyncStats stats0_, last_, delta_;
  std::vector<obs::CycleAccount> accounts0_, accounts_;
  double serv_ops_ = 0;
};

/// A run over construction `uc`: the frame, plus the clients and their one
/// issue step. The per-op path is templated over the construction.
template <class U>
class Run : public Frame {
 public:
  /// Starts uc's server loops; with tickets and `depth` >= 2, every thread
  /// of the run gets a sync::AsyncBatcher (sized by the run's thread count,
  /// so a tid past the construction's capacity reaches its check_tid abort
  /// instead of writing past the vector).
  Run(SimExecutor& ex, const RunCfg& cfg, U& uc, std::uint32_t clients,
      std::uint32_t depth)
      : Frame(ex, cfg, add_servers(ex, uc), clients, &stats_of, &uc),
        uc(uc) {
    if constexpr (Async<U>) {
      if (depth < 2) return;
      constexpr bool eager = requires { U::kIssueOnAdd; };
      trains_.reserve(servers + clients);
      for (std::uint32_t t = 0; t < servers + clients; ++t) {
        trains_.emplace_back(uc, depth, eager);
      }
    }
  }

  U& uc;

  /// Train depth, 0 when clients issue synchronously.
  std::uint32_t depth() const {
    return trains_.empty() ? 0 : trains_.front().depth();
  }

  /// Spawns the clients in tid order; client i runs body(ctx, i).
  template <class Body>
  void spawn(Body body) {
    for (std::uint32_t i = 0; i < clients; ++i) {
      ex.add_thread([body, i](SimCtx& ctx) mutable { body(ctx, i); });
    }
  }

  /// One op: added to the client's train, or applied synchronously with
  /// its result in `*ret`. Returns the ops completed by this call: 1 for an
  /// apply, 0 while a train fills, the train length when one is issued and
  /// reaped.
  std::uint64_t issue(SimCtx& ctx, Fn fn, std::uint64_t arg,
                      std::uint64_t* ret = nullptr) {
    if constexpr (Async<U>) {
      if (!trains_.empty()) return trains_[ctx.tid()].add(ctx, fn, arg);
    }
    const std::uint64_t r = uc.apply(ctx, fn, arg);
    if (ret != nullptr) *ret = r;
    return 1;
  }

  /// Issues and reaps the client's partial train (open-loop lulls).
  std::uint64_t flush(SimCtx& ctx) {
    if constexpr (Async<U>) {
      if (!trains_.empty()) return trains_[ctx.tid()].flush(ctx);
    }
    return 0;
  }

 private:
  static sync::SyncStats stats_of(void* uc) {
    return sum_stats(*static_cast<U*>(uc));
  }

  std::vector<sync::AsyncBatcher<SimCtx, U, Fn>> trains_;
};

/// The run frame: builds the executor and kind `kind`'s construction from
/// `p` with the shared fields filled from `cfg`, and returns body(run) for
/// a Run of `clients` clients issuing in trains of `depth` (also the
/// shared-memory server's async slots per client).
template <class Body>
decltype(auto) drive(const RunCfg& cfg, Kind kind, Params p,
                     std::uint32_t clients, std::uint32_t depth, Body&& body,
                     sim::Perturber* perturber = nullptr) {
  SimExecutor ex(cfg.machine, cfg.seed);
  open_run(ex, cfg, perturber);
  p.max_ops = cfg.max_ops;
  p.max_inflight = cfg.max_inflight;
  p.stall_timeout = cfg.stall_timeout;
  p.shm_depth = depth;
  return with_construction(kind, p, ex, [&](auto& uc) -> decltype(auto) {
    Run run(ex, cfg, uc, clients, depth);
    return body(run);
  });
}

}  // namespace hmps::harness::reg
