// The four benchmark workloads (benchmark/README.md has why each exists).
// Each one calls the simulator only through its public entry points:
// harness::run_counter/run_queue/run_service through harness::RunPool for
// the sweeps, harness::record_history plus the harness/history.hpp checkers
// for the exploration scenarios.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "bench.hpp"
#include "check/explore.hpp"
#include "check/gen.hpp"
#include "check/perturb.hpp"
#include "harness/artifact.hpp"
#include "harness/history.hpp"
#include "harness/record.hpp"
#include "harness/run_pool.hpp"
#include "harness/service.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace hmps::bench {

namespace {

using harness::Approach;
using harness::RunResult;
using obs::JsonValue;

/// The constructions of the counter and service sweeps, in kConstructions
/// order.
constexpr Approach kApproaches[] = {Approach::kMpServer, Approach::kHybComb,
                                    Approach::kShmServer, Approach::kCcSynch,
                                    Approach::kVlinkServer};
constexpr std::size_t kNumApproaches = std::size(kApproaches);

void digest_result(Digest& d, const RunResult& r) {
  for (const double v :
       {r.mops, r.mops_std, r.lat_mean, r.lat_p50, r.lat_p99,
        r.serv_total_per_op, r.serv_stall_per_op, r.combining_rate,
        r.cas_per_op, r.fairness, r.msgs_per_op, r.ctrl_wait_per_op,
        r.cycles_per_op, r.serv_ops, r.offered_mops, r.lat_p999, r.lat_max,
        r.queue_delay_mean, r.service_mean}) {
    d.add(v);
  }
  for (const std::uint64_t v : {r.total_ops, r.throttle_waits,
                                r.stall_timeouts, r.preemptions, r.arrivals,
                                r.shed_ops}) {
    d.add(v);
  }
  for (int b = 0; b < obs::CycleAccount::kNumBuckets; ++b) {
    d.add(std::uint64_t{
        r.serv_account.bucket(static_cast<obs::CycleAccount::Bucket>(b))});
  }
}

/// Fig. 4a's quantity: share of the servicing core's non-idle cycles spent
/// stalled on coherence reads, writes and atomics.
double stall_share(const obs::CycleAccount& a) {
  using CA = obs::CycleAccount;
  const double active = static_cast<double>(a.active());
  if (active <= 0) return 0;
  return static_cast<double>(a.bucket(CA::kCoherenceRead) +
                             a.bucket(CA::kCoherenceWrite) +
                             a.bucket(CA::kAtomic)) /
         active;
}

std::uint64_t u(const JsonValue& run, const char* sect, const char* key) {
  const JsonValue* m = run.find("machine");
  const JsonValue* s = m ? m->find(sect) : nullptr;
  const JsonValue* v = s ? s->find(key) : nullptr;
  return v ? v->as_uint() : 0;
}

/// Adds the simulated counters of every run entry in an artifact.
void tally_artifact(Tally& t, const obs::MetricsRegistry& reg) {
  const JsonValue* runs = reg.root().find("runs");
  if (!runs) return;
  for (const JsonValue& r : runs->items()) {
    t.events += u(r, "engine", "executed");
    t.fast_forwards += u(r, "engine", "fast_forwards");
    const std::uint64_t rmr =
        u(r, "coherence", "rmr_reads") + u(r, "coherence", "rmr_writes");
    t.coh_rmrs += rmr;
    t.coh_atomics += u(r, "coherence", "atomics");
    t.coh_accesses += rmr + u(r, "coherence", "hits") +
                      u(r, "coherence", "atomics");
    t.coh_invalidations += u(r, "coherence", "invalidations");
    t.coh_ctrl_wait += u(r, "coherence", "ctrl_wait_total");
    t.udn_messages += u(r, "udn", "messages");
    t.udn_sender_blocks += u(r, "udn", "sender_blocks");
    t.noc_messages += u(r, "noc", "messages");
    t.noc_hops += u(r, "noc", "hops");
    t.noc_link_wait += u(r, "noc", "link_wait");
    t.vlink_frames += u(r, "vlink", "frames");
    t.vlink_consumer_waits += u(r, "vlink", "consumer_waits");
  }
}

/// Writes the traced pass's hmps-metrics-v2 artifact, timed as obs.artifact.
void write_artifact(const TraceSink& trace, const obs::MetricsRegistry& reg,
                    Pass& p) {
  Scope s(trace.spans, "obs.artifact");
  const double t0 = now_s();
  if (!reg.write(trace.artifact_path)) {
    p.fail("cannot write " + trace.artifact_path);
  }
  p.tally.artifact_ms += (now_s() - t0) * 1e3;
}

/// One simulation run of a sweep: a label, the construction it measures
/// (per-construction metrics), and the call into the harness.
struct Job {
  std::string label;
  std::string construction;  ///< kConstructions entry, or "" (queue runs)
  std::function<RunResult(const harness::RunObs&)> fn;
};

/// A closed-loop counter run of construction `a`, labelled `name/t<threads>`.
Job counter_job(const harness::RunCfg& cfg, Approach a) {
  return {std::string(harness::approach_name(a)) + "/t" +
              std::to_string(cfg.app_threads),
          harness::approach_name(a), [cfg, a](const harness::RunObs& o) {
            harness::RunCfg c = cfg;
            c.obs = o;
            return harness::run_counter(c, a);
          }};
}

/// Runs a sweep through harness::RunPool with `jobs` host threads; traced
/// passes add the run/drain spans, the artifact and the per-layer tallies.
std::vector<RunResult> run_sweep(const std::vector<Job>& jobs_in,
                                 std::uint32_t jobs, const char* bench,
                                 const TraceSink* trace, Pass& p) {
  SpanLog* log = trace ? trace->spans : nullptr;
  harness::BenchArgs args;
  if (trace) args.json = trace->artifact_path;
  harness::RunArtifacts art(args, bench, 0, nullptr);
  std::vector<double> secs(jobs_in.size(), 0);
  std::vector<RunResult> out;
  const double t0 = now_s();
  {
    Scope drain(log, "harness.pool.drain");
    harness::RunPool pool(art, jobs);
    const int parent = drain.id();
    for (std::size_t i = 0; i < jobs_in.size(); ++i) {
      pool.submit(jobs_in[i].label,
                  [&jobs_in, &secs, log, parent, i](const harness::RunObs& o) {
                    Scope run(log, "harness.run", parent, i);
                    const double r0 = now_s();
                    RunResult r = jobs_in[i].fn(o);
                    secs[i] = now_s() - r0;
                    return r;
                  });
    }
    out = pool.drain();
  }
  const double wall = now_s() - t0;
  p.attempted += out.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    digest_result(p.digest, out[i]);
    if (out[i].total_ops == 0) p.fail(jobs_in[i].label + ": no operations");
    p.run_mops.push_back(out[i].mops);
    p.run_p99.push_back(out[i].lat_p99);
  }
  if (!trace) return out;

  Tally& t = p.tally;
  t.runs = out.size();
  t.pool_jobs = jobs;
  t.pool_wall_s = wall;
  for (std::size_t i = 0; i < out.size(); ++i) {
    t.run_ms.push_back(secs[i] * 1e3);
    t.sim_run_s += secs[i];
    t.pool_busy_s += secs[i];
    if (jobs_in[i].construction.empty()) continue;
    Tally::Cons& c = t.cons[jobs_in[i].construction];
    c.host_s += secs[i];
    c.ops += static_cast<double>(out[i].total_ops);
    if (out[i].mops > c.peak_mops) {
      c.peak_mops = out[i].mops;
      c.stall_share = stall_share(out[i].serv_account);
    }
  }
  tally_artifact(t, art.metrics());
  write_artifact(*trace, art.metrics(), p);
  return out;
}

/// A workload that is one sweep of harness runs: set-up builds the run
/// list from the seed, each pass runs it through harness::RunPool and then
/// applies the workload's output checks.
class Sweep : public Workload {
 public:
  Sweep(const char* name, std::uint32_t jobs, arch::MachineParams machine)
      : name_(name), jobs_(jobs), machine_(std::move(machine)) {}

  void setup(std::uint64_t seed) override {
    runs_.clear();
    build(seed);
    arch::Machine cold(machine_);
  }

  Pass run(const TraceSink* trace) override {
    Pass p;
    check(run_sweep(runs_, jobs_, name_, trace, p), p);
    return p;
  }

 protected:
  virtual void build(std::uint64_t seed) = 0;
  virtual void check(const std::vector<RunResult>& r, Pass& p) = 0;

  std::vector<Job> runs_;

 private:
  const char* name_;
  std::uint32_t jobs_;
  arch::MachineParams machine_;
};

// ---- W1 paper_tile36 ------------------------------------------------------
// Closed loop on the 6x6 TILE-Gx preset: the default Fig. 3a counter sweep
// and Fig. 5a queue sweep of bench/, through the run pool with two workers.
class PaperTile36 final : public Sweep {
 public:
  explicit PaperTile36(std::uint32_t scale)
      : Sweep("benchmark/paper_tile36", 2, arch::MachineParams::tilegx36()),
        scale_(scale) {}

 private:
  static constexpr std::uint32_t kThreads3[] = {1, 5, 10, 15, 20, 25, 30, 35};
  static constexpr std::uint32_t kThreads5[] = {1, 5, 10, 15, 20, 25, 30, 34};
  static constexpr std::size_t kRows = 8, kCounters = kNumApproaches,
                               kQueues = 7;

  void build(std::uint64_t seed) override {
    static constexpr harness::QueueImpl kQueue[kQueues] = {
        harness::QueueImpl::kMp1,  harness::QueueImpl::kHyb1,
        harness::QueueImpl::kShm1, harness::QueueImpl::kCc1,
        harness::QueueImpl::kLcrq, harness::QueueImpl::kMp2,
        harness::QueueImpl::kVl1};
    harness::RunCfg base;
    base.seed = seed;
    base.warmup /= scale_;
    base.window /= scale_;
    for (const std::uint32_t t : kThreads3) {
      for (const Approach a : kApproaches) {
        harness::RunCfg cfg = base;
        cfg.app_threads = t;
        runs_.push_back(counter_job(cfg, a));
      }
    }
    for (const std::uint32_t t : kThreads5) {
      for (const harness::QueueImpl q : kQueue) {
        harness::RunCfg cfg = base;
        cfg.app_threads = t;
        runs_.push_back({std::string(harness::queue_name(q)) + "/t" +
                             std::to_string(t),
                         "",
                         [cfg, q](const harness::RunObs& o) {
                           harness::RunCfg c = cfg;
                           c.obs = o;
                           return harness::run_queue(c, q);
                         }});
      }
    }
  }

  void check(const std::vector<RunResult>& r, Pass& p) override {
    // MP-SERVER leads the counter at every thread count, and the one-lock
    // MP-SERVER queue leads every queue at every client count.
    const std::size_t q0 = kRows * kCounters;
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t a = 1; a < kCounters; ++a) {
        const std::size_t j = i * kCounters + a;
        if (r[j].mops > r[i * kCounters].mops) {
          p.fail("fig3a: " + runs_[j].label + " beats mp-server");
        }
      }
      for (std::size_t q = 1; q < kQueues; ++q) {
        const std::size_t j = q0 + i * kQueues + q;
        if (r[j].mops > r[q0 + i * kQueues].mops) {
          p.fail("fig5a: " + runs_[j].label + " beats mp-server-1");
        }
      }
    }

    // Paper fidelity: each headline ratio as peak over thread count of
    // each side, against the paper's "up to" factor (PAPER.md).
    auto peak = [&](std::size_t first, std::size_t cols, std::size_t col) {
      double best = 0;
      for (std::size_t i = 0; i < kRows; ++i) {
        best = std::max(best, r[first + i * cols + col].mops);
      }
      return best;
    };
    const struct {
      const char* name;
      double sim, paper;
    } ratios[] = {
        {"ratio.fig3a_mp_shm", peak(0, kCounters, 0) / peak(0, kCounters, 2),
         4.3},
        {"ratio.fig3a_hyb_cc", peak(0, kCounters, 1) / peak(0, kCounters, 3),
         2.5},
        {"ratio.fig5a_mp_shm", peak(q0, kQueues, 0) / peak(q0, kQueues, 2),
         2.0},
        {"ratio.fig5a_hyb_cc", peak(q0, kQueues, 1) / peak(q0, kQueues, 3),
         1.5}};
    double err = 0;
    for (const auto& x : ratios) {
      p.extra[x.name] = {x.sim, "x"};
      err += std::fabs(x.sim - x.paper) / x.paper;
    }
    p.tally.fidelity_err_pct = err / 4 * 100;
    p.extra["fidelity_err_pct"] = {p.tally.fidelity_err_pct, "%"};
  }

  std::uint32_t scale_;
};

// ---- W2 svc_tile36 --------------------------------------------------------
// Open loop: Poisson arrivals onto a 4-object Zipf(0.9) counter farm behind
// 4 sessions, every construction at offered loads bracketing every knee.
class SvcTile36 final : public Sweep {
 public:
  explicit SvcTile36(std::uint32_t scale)
      : Sweep("benchmark/svc_tile36", 1, arch::MachineParams::tilegx36()),
        scale_(scale) {}

 private:
  static constexpr double kLoads[] = {4, 8, 12, 16, 24, 32, 48, 64, 96, 128};
  static constexpr std::size_t kN = kNumApproaches;

  void build(std::uint64_t seed) override {
    // bench/service_counter's window: 60k warmup, then 2 x 400k cycles.
    harness::ServiceCfg base;
    base.base.seed = seed;
    base.base.warmup = 60'000 / scale_;
    base.base.window = 400'000 / scale_;
    base.base.reps = 2;
    base.sessions = 4;
    base.objects = 4;
    base.zipf_s = 0.9;
    base.queue_cap = 64;
    base.shed = harness::ShedPolicy::kDropNewest;
    for (const double load : kLoads) {
      for (const Approach a : kApproaches) {
        harness::ServiceCfg cfg = base;
        cfg.offered_mops = load;
        runs_.push_back({std::string(harness::approach_name(a)) + "/o" +
                             std::to_string(static_cast<int>(load)),
                         harness::approach_name(a),
                         [cfg, a](const harness::RunObs& o) {
                           harness::ServiceCfg c = cfg;
                           c.base.obs = o;
                           return harness::run_service(c, a);
                         }});
      }
    }
  }

  void check(const std::vector<RunResult>& r, Pass& p) override {
    std::uint64_t shed = 0, admitted = 0;
    double qd = 0, soj = 0;
    for (std::size_t a = 0; a < kN; ++a) {
      double slo = 0;
      for (std::size_t i = 0; i < std::size(kLoads); ++i) {
        const RunResult& x = r[i * kN + a];
        // Below the knee p99 sojourn must not fall as offered load rises
        // (5% slack for reservoir sampling noise, as bench/service_counter
        // allows). Past it the full admission queues cap p99 at a plateau
        // and the excess must be shed instead, so shedding must not fall.
        const RunResult* prev = i ? &r[(i - 1) * kN + a] : nullptr;
        if (prev && prev->shed_ops == 0 && x.lat_p99 < prev->lat_p99 * 0.95) {
          p.fail("svc: p99 of " + runs_[i * kN + a].label +
                 " fell below the previous load's");
        }
        if (prev && x.shed_ops < prev->shed_ops) {
          p.fail("svc: " + runs_[i * kN + a].label +
                 " shed less than the previous load");
        }
        // SLO: p99 <= 1000 cycles, nothing shed, achieved >= 97% offered.
        if (x.lat_p99 <= 1000 && x.shed_ops == 0 &&
            x.mops >= 0.97 * x.offered_mops) {
          slo = kLoads[i];
        }
        shed += x.shed_ops;
        admitted += x.arrivals;
        qd += x.queue_delay_mean * static_cast<double>(x.total_ops);
        soj += x.lat_mean * static_cast<double>(x.total_ops);
      }
      if (a == 0) p.extra["slo_mops"] = {slo, "Mops/s"};
      p.tally.cons[kConstructions[a]].slo_mops = slo;
    }
    p.extra["shed_frac"] = {
        ratio(static_cast<double>(shed), static_cast<double>(shed + admitted)),
        "ratio"};
    p.tally.svc_shed = shed;
    p.tally.svc_offered = shed + admitted;
    p.tally.svc_queue_delay = qd;
    p.tally.svc_sojourn = soj;
  }

  std::uint32_t scale_;
};

// ---- W3 mesh256_noc -------------------------------------------------------
// Closed loop on a 16x16 mesh with the wormhole NoC model: 63 clients (plus
// a server where the construction has one), all on cores below 64, at the
// harness's default window.
class Mesh256Noc final : public Sweep {
 public:
  explicit Mesh256Noc(std::uint32_t scale)
      : Sweep("benchmark/mesh256_noc", 1, machine()), scale_(scale) {}

 private:
  static arch::MachineParams machine() {
    arch::MachineParams p = arch::MachineParams::tilegx36();
    p.name = "mesh256";
    p.mesh_w = 16;
    p.mesh_h = 16;
    p.model_link_contention = true;
    return p;
  }

  void build(std::uint64_t seed) override {
    harness::RunCfg base;
    base.machine = machine();
    base.app_threads = 63;
    base.seed = seed;
    base.warmup /= scale_;
    base.window /= scale_;
    for (const Approach a : kApproaches) runs_.push_back(counter_job(base, a));
  }

  // Every run must complete operations: run_sweep already fails one that
  // completed none.
  void check(const std::vector<RunResult>&, Pass&) override {}

  std::uint32_t scale_;
};

// ---- W4 explore_fuzz ------------------------------------------------------
// Thousands of short recorded runs, each checked for linearizability.

/// Counts fiber resumes through the engine's perturbation hook and forwards
/// every decision to the scenario's own perturber (or returns 0): the
/// simulation is unchanged, which the traced-vs-untraced digest check
/// confirms on every traced run.
class CountingPerturber final : public sim::Perturber {
 public:
  explicit CountingPerturber(sim::Perturber* inner) : inner_(inner) {}
  sim::Cycle resume_delay(std::uint32_t fiber, sim::Cycle t) override {
    ++resumes_;
    return inner_ ? inner_->resume_delay(fiber, t) : 0;
  }
  sim::Cycle point_delay(std::uint32_t tid, std::uint32_t core,
                         const char* where, sim::Cycle now) override {
    return inner_ ? inner_->point_delay(tid, core, where, now) : 0;
  }
  std::uint64_t resumes() const { return resumes_; }

 private:
  sim::Perturber* inner_;
  std::uint64_t resumes_ = 0;
};

/// Complete-check node budget. explore.cpp allows 400k nodes, but a search
/// that exhausts it costs about 0.3 s of host time, and how many of the 720
/// scenarios do so swings a pass by 30% from seed to seed; 20k nodes keeps
/// the complete search in every pass without that heavy tail.
constexpr std::uint64_t kNodeBudget = 20'000;

/// Mirrors src/check/explore.cpp's checking policy, but for the node budget:
/// fast sound checks per object, plus the complete Wing & Gong search on
/// histories of at most 48 operations. Returns "" or a violation.
std::string check_history(const harness::RecordCfg& cfg,
                          const harness::RecordResult& res) {
  using harness::Object;
  if (!res.completed) return "hang";
  harness::CheckResult (*fast)(const std::vector<harness::OpRecord>&) =
      harness::check_counter_fast;
  harness::SeqSpec spec = harness::counter_spec();
  if (cfg.object == Object::kQueue || cfg.object == Object::kLcrq) {
    fast = harness::check_queue_fast;
    spec = harness::queue_spec();
  } else if (cfg.object == Object::kStack ||
             cfg.object == Object::kElimStack) {
    fast = harness::check_stack_fast;
    spec = harness::stack_spec();
  }
  std::set<std::uint32_t> ids;
  for (const auto& op : res.history) ids.insert(op.obj);
  for (const std::uint32_t id : ids) {
    std::vector<harness::OpRecord> h;
    for (const auto& op : res.history) {
      if (op.obj == id) h.push_back(op);
    }
    const harness::CheckResult f = fast(h);
    if (!f.ok) return "obj " + std::to_string(id) + ": " + f.reason;
    if (h.size() <= 48) {
      const harness::CheckResult full =
          harness::linearizable(h, spec, kNodeBudget);
      if (!full.ok) return "lin obj " + std::to_string(id) + ": " + full.reason;
    }
  }
  return "";
}

/// The benchmark's own scenario generator, so a change to explore's cannot
/// move this workload: draw_scenario() of src/check/explore.cpp, except that
/// the caller fixes the construction and object, and the `k`-th scenario of
/// a cell fixes the discrete choices explore draws at random (machine kind,
/// async trains, fault plan), in explore's proportions: half the scenarios
/// on a random machine, a third with async trains, a quarter with a fault
/// plan. Fixing them keeps the mix, and so the work of a pass, the same
/// for every seed.
check::Scenario draw_scenario(sim::Xoshiro256& r, harness::Construction c,
                              harness::Object o, std::uint32_t k,
                              std::uint64_t seed, std::uint64_t iteration) {
  check::Scenario s;
  s.cfg.construction = c;
  s.cfg.object = o;
  s.cfg.seed = seed * 0x9E3779B97F4A7C15ULL + iteration;
  // k / 4 shifts the machine pattern so fault plans land on both kinds.
  if ((k + k / 4) % 2 == 1) {
    s.cfg.params = check::random_machine(s.cfg.seed ^ 0xFACADE);
  }
  s.cfg.threads = static_cast<std::uint32_t>(r.between(2, 6));
  s.cfg.ops_each = static_cast<std::uint32_t>(r.between(2, 8));
  s.cfg.max_ops = r.between(1, 16);
  s.cfg.produce_permille = static_cast<std::uint32_t>(r.between(300, 700));
  s.cfg.think_max = r.between(0, 80);
  s.cfg.horizon = 20'000'000;
  const std::uint64_t async_depth = r.between(2, 4);
  s.cfg.async_depth = k % 3 == 0 ? static_cast<std::uint32_t>(async_depth) : 0;
  s.cfg.shards = static_cast<std::uint32_t>(r.between(2, 4));
  if (k % 4 == 0) {
    s.cfg.faults.seed = s.cfg.seed ^ 0xFA0175;
    switch (k / 4 % 3) {
      case 0:
        s.cfg.faults.delay_permille =
            static_cast<std::uint32_t>(r.between(50, 300));
        s.cfg.faults.delay_min = 10;
        s.cfg.faults.delay_max = r.between(100, 4000);
        break;
      case 1:
        s.cfg.faults.jitter_permille =
            static_cast<std::uint32_t>(r.between(50, 400));
        s.cfg.faults.jitter_max = r.between(5, 200);
        break;
      case 2:
        s.cfg.faults.preempt_period = r.between(20'000, 200'000);
        s.cfg.faults.preempt_duration = r.between(1'000, 30'000);
        break;
    }
  }
  s.perturb.seed = s.cfg.seed ^ 0x5C4ED;
  s.perturb.nthreads =
      s.cfg.threads + harness::server_threads(s.cfg.construction, s.cfg.shards);
  s.perturb.change_points = static_cast<std::uint32_t>(r.between(0, 4));
  s.perturb.change_interval = r.between(10'000, 200'000);
  s.perturb.resume_permille = static_cast<std::uint32_t>(r.between(0, 250));
  s.perturb.delay_unit = r.between(10, 2'000);
  s.perturb.point_permille = static_cast<std::uint32_t>(r.between(0, 400));
  s.perturb.point_delay_max = r.between(100, 20'000);
  check::clamp_cfg(s.cfg);
  return s;
}

/// The per-construction metric name of a recorded construction, or "".
const char* construction_metric_name(harness::Construction c) {
  switch (c) {
    case harness::Construction::kMpServer: return "mp-server";
    case harness::Construction::kHybComb: return "HybComb";
    case harness::Construction::kShmServer: return "shm-server";
    case harness::Construction::kCcSynch: return "CC-Synch";
    case harness::Construction::kVlink: return "vlink-server";
    default: return "";
  }
}

class ExploreFuzz final : public Workload {
 public:
  /// `per_cell` scenarios for each (construction, object) cell.
  explicit ExploreFuzz(std::uint32_t per_cell) : per_cell_(per_cell) {}

  void setup(std::uint64_t seed) override {
    scenarios_.clear();
    sim::Xoshiro256 r(seed);
    std::uint64_t it = 0;
    for (std::uint32_t k = 0; k < per_cell_; ++k) {
      for (std::uint32_t c = 0; c < harness::kNumConstructions; ++c) {
        for (std::uint32_t o = 0; o < harness::kNumObjects; ++o) {
          scenarios_.push_back(draw_scenario(
              r, static_cast<harness::Construction>(c),
              static_cast<harness::Object>(o), k, seed, it++));
        }
      }
    }
    // One cold machine per distinct machine shape the scenarios use.
    std::set<std::string> seen;
    for (const auto& s : scenarios_) {
      const std::string key =
          obs::MetricsRegistry::params_json(s.cfg.params).dump(-2);
      if (seen.insert(key).second) arch::Machine cold(s.cfg.params);
    }
  }

  Pass run(const TraceSink* trace) override {
    Pass p;
    obs::MetricsRegistry reg;
    if (trace) reg.stamp("benchmark/explore_fuzz", 0, nullptr);
    const double t0 = now_s();
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      run_one(i, trace ? trace->spans : nullptr, trace ? &reg : nullptr, p);
    }
    if (trace) {
      p.tally.pool_wall_s = now_s() - t0;
      write_artifact(*trace, reg, p);
    }
    return p;
  }

 private:
  /// Records and verifies scenario `i`; `reg` is non-null in traced passes.
  void run_one(std::size_t i, SpanLog* log, obs::MetricsRegistry* reg,
               Pass& p) {
    const check::Scenario& s = scenarios_[i];
    Scope run(log, "harness.run", -1, i);
    const double r0 = now_s();
    check::PctPerturber pct(s.perturb);
    sim::Perturber* inner = s.perturb.enabled() ? &pct : nullptr;
    CountingPerturber counting(inner);
    harness::RecordResult res;
    {
      Scope rec(log, "check.record", run.id(), i);
      res = harness::record_history(s.cfg, reg ? &counting : inner);
    }
    const double r1 = now_s();
    std::string violation;
    {
      Scope ver(log, "check.verify", run.id(), i);
      violation = check_history(s.cfg, res);
    }
    const double r2 = now_s();

    ++p.attempted;
    p.digest.add(std::uint64_t{res.completed});
    p.digest.add(std::uint64_t{res.end_time});
    p.digest.add(violation);
    std::vector<double> lat;
    lat.reserve(res.history.size());
    for (const auto& op : res.history) {
      for (const std::uint64_t v :
           {std::uint64_t{op.thread}, static_cast<std::uint64_t>(op.kind),
            op.arg, op.ret, std::uint64_t{op.invoke},
            std::uint64_t{op.response}, std::uint64_t{op.obj}}) {
        p.digest.add(v);
      }
      lat.push_back(static_cast<double>(op.response - op.invoke));
    }
    if (!violation.empty()) {
      p.fail(std::string(harness::to_string(s.cfg.construction)) + "/" +
             harness::to_string(s.cfg.object) + " seed " +
             std::to_string(s.cfg.seed) + ": " + violation);
    }
    const double mops = ratio(static_cast<double>(res.history.size()) * 1200,
                              static_cast<double>(res.end_time));
    p.run_mops.push_back(mops);
    p.run_p99.push_back(quantile(lat, 0.99));
    if (!reg) return;

    Tally& t = p.tally;
    ++t.runs;
    t.run_ms.push_back((r2 - r0) * 1e3);
    t.pool_busy_s += r2 - r0;
    t.sim_run_s += r1 - r0;
    t.events += counting.resumes();
    t.record_ms.push_back((r1 - r0) * 1e3);
    t.verify_ms.push_back((r2 - r1) * 1e3);
    t.ops_checked += res.history.size();
    if (!res.completed) {
      ++t.hangs;
    } else if (!violation.empty()) {
      ++t.violations;
    }
    const char* name = construction_metric_name(s.cfg.construction);
    if (*name && s.cfg.object != harness::Object::kLcrq &&
        s.cfg.object != harness::Object::kElimStack) {
      Tally::Cons& c = t.cons[name];
      c.host_s += r1 - r0;
      c.ops += static_cast<double>(res.history.size());
      c.peak_mops = std::max(c.peak_mops, mops);
    }
    JsonValue& e = reg->add_run(std::string(harness::to_string(
                                    s.cfg.construction)) +
                                "/" + harness::to_string(s.cfg.object) + "/" +
                                std::to_string(i));
    e["seed"] = JsonValue(s.cfg.seed);
    e["ops"] = JsonValue(static_cast<std::uint64_t>(res.history.size()));
    e["end_time"] = JsonValue(std::uint64_t{res.end_time});
    e["violation"] = JsonValue(violation);
  }

  std::uint32_t per_cell_;
  std::vector<check::Scenario> scenarios_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint32_t scale) {
  if (name == "paper_tile36") return std::make_unique<PaperTile36>(scale);
  if (name == "svc_tile36") return std::make_unique<SvcTile36>(scale);
  if (name == "mesh256_noc") return std::make_unique<Mesh256Noc>(scale);
  if (name == "explore_fuzz") {
    return std::make_unique<ExploreFuzz>(
        std::max<std::uint32_t>(1, 48 / scale));
  }
  return nullptr;
}

}  // namespace hmps::bench
