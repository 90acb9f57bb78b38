// Open-loop service harness (docs/SERVICE.md): drives the universal
// constructions with an *offered* load the system does not control, and
// reports what the closed-loop benches cannot — sojourn time (arrival to
// completion) under that load, split into queueing delay and service time.
//
// The closed-loop drivers (harness/workload.hpp) let N clients re-issue as
// soon as the previous operation completes, so the measured latency is
// conditioned on the system keeping up. Here a deterministic arrival
// process (Poisson, or bursty via a two-state Markov-modulated Poisson
// process) generates operations on the simulation's event queue; client
// session fibers drain a bounded pending-arrivals queue and issue the
// operations through the PR 5 ticket API (sync::Ticket issue/completion
// stamps). When offered load exceeds capacity the pending queue fills and
// admission control sheds arrivals (SyncStats::shed_ops), so the reported
// percentiles describe the *admitted* traffic — the standard open-loop
// methodology.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "harness/workload.hpp"
#include "sim/rng.hpp"

namespace hmps::harness {

/// Arrival processes. Both are seeded from ServiceCfg::base.seed and fully
/// deterministic.
enum class ArrivalModel {
  kPoisson,  ///< exponential inter-arrival times at the offered rate
  kMmpp,     ///< two-state MMPP: a quiet state and a burst state whose rate
             ///< is `burst` times higher, exponentially distributed dwell
             ///< times; time-averaged rate equals the offered rate
};
const char* arrival_model_name(ArrivalModel m);

/// What to do with an arrival when the pending queue is full.
enum class ShedPolicy {
  kDropNewest,  ///< refuse the incoming arrival (tail drop)
  kDropOldest,  ///< evict the longest-waiting arrival, admit the new one
};
const char* shed_policy_name(ShedPolicy p);

struct ServiceCfg {
  /// Machine, warmup, window, seed, async_batch, max_inflight, max_ops,
  /// stall_timeout and observability sinks are taken from here. The
  /// measurement window is base.window * max(base.reps, 1) cycles (one
  /// continuous window: percentiles need the whole completion stream).
  RunCfg base{};

  std::uint32_t sessions = 4;  ///< client session fibers (one core each)
  std::uint32_t objects = 4;   ///< object instances behind one construction
  double zipf_s = 0.9;         ///< Zipf exponent for object popularity
                               ///< (0 = uniform)

  ArrivalModel arrival = ArrivalModel::kPoisson;
  double offered_mops = 2.0;   ///< offered load, Mops/s at 1.2 GHz
  double burst = 8.0;          ///< MMPP burst-state rate multiplier
  sim::Cycle dwell_quiet = 50'000;  ///< MMPP mean dwell, quiet state
  sim::Cycle dwell_burst = 12'500;  ///< MMPP mean dwell, burst state

  std::uint32_t queue_cap = 64;     ///< pending arrivals per session
  ShedPolicy shed = ShedPolicy::kDropNewest;

  bool queue_object = false;   ///< false: counter farm; true: MS-queue farm

  /// run_service_sharded() only: MP-SERVER fleet size (tids [0, shards)),
  /// objects partitioned across the fleet by rendezvous hashing
  /// (docs/SHARDING.md). Ignored by run_service().
  std::uint32_t shards = 1;
};

/// Zipf(s) sampler over {0, ..., n-1} by inverse CDF: p(rank k) ~ 1/k^s.
/// Deterministic given the caller's RNG stream; s = 0 is uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  /// Maps a uniform u in (0, 1] to an object rank (0 = most popular).
  std::uint32_t sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(
        it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin());
  }

  /// Cumulative probability of ranks 0..k (for sanity tests).
  double cdf(std::uint32_t k) const { return cdf_[k]; }

 private:
  std::vector<double> cdf_;
};

/// Arrival-time generator: Poisson, or a two-state MMPP whose quiet/burst
/// sojourns are exponential and whose time-averaged rate equals the
/// offered rate. All sampling comes from one private xoshiro stream, so
/// the arrival schedule is a pure function of (seed, config).
class ArrivalGen {
 public:
  ArrivalGen(const ServiceCfg& cfg, std::uint64_t seed)
      : rng_(seed), bursty_(cfg.arrival == ArrivalModel::kMmpp) {
    // Offered load in arrivals per cycle (Mops/s at the 1.2 GHz clock).
    const double rate = std::max(cfg.offered_mops, 1e-6) / 1200.0;
    if (!bursty_) {
      mean_quiet_ = 1.0 / rate;
      return;
    }
    const double dq = static_cast<double>(cfg.dwell_quiet);
    const double db = static_cast<double>(cfg.dwell_burst);
    const double burst = std::max(cfg.burst, 1.0);
    // rate_quiet * dq + rate_quiet * burst * db == rate * (dq + db)
    const double rate_quiet = rate * (dq + db) / (dq + burst * db);
    mean_quiet_ = 1.0 / rate_quiet;
    mean_burst_ = mean_quiet_ / burst;
    dwell_quiet_ = dq;
    dwell_burst_ = db;
    state_end_ = step(exp_sample(dwell_quiet_));
  }

  /// Next arrival strictly after `t`.
  sim::Cycle next(sim::Cycle t) {
    if (!bursty_) return t + step(exp_sample(mean_quiet_));
    for (;;) {
      const double mean = in_burst_ ? mean_burst_ : mean_quiet_;
      const sim::Cycle cand = t + step(exp_sample(mean));
      if (cand <= state_end_) return cand;
      // Crossed a modulation boundary: restart the (memoryless) arrival
      // clock in the next state.
      t = state_end_;
      in_burst_ = !in_burst_;
      state_end_ =
          t + step(exp_sample(in_burst_ ? dwell_burst_ : dwell_quiet_));
    }
  }

  /// Uniform double in (0, 1] from the same stream (for Zipf/session/mix
  /// draws, keeping the whole arrival record one stream).
  double uniform() { return u01(); }
  std::uint64_t below(std::uint64_t n) { return rng_.below(n); }

 private:
  double u01() { return ((rng_() >> 11) + 1) * 0x1.0p-53; }
  double exp_sample(double mean) { return -std::log(u01()) * mean; }
  static sim::Cycle step(double d) {
    return d < 1.0 ? 1 : static_cast<sim::Cycle>(d);
  }

  sim::Xoshiro256 rng_;
  bool bursty_;
  bool in_burst_ = false;
  double mean_quiet_ = 1.0;
  double mean_burst_ = 1.0;
  double dwell_quiet_ = 1.0;
  double dwell_burst_ = 1.0;
  sim::Cycle state_end_ = 0;
};

/// Runs the open-loop service workload under construction `a` (kMpServer,
/// kHybComb, kShmServer or kCcSynch) and returns the standard RunResult
/// with the service fields filled. With base.obs.metrics set, the run
/// entry additionally carries a "service" block (docs/SERVICE.md).
RunResult run_service(const ServiceCfg& cfg, Approach a);

/// run_service() over a sync::ShardedServer fleet of cfg.shards MP-SERVER
/// instances: each op is routed to its object's home shard client-side, and
/// an async train issues each op as it arrives, so one session keeps ops in
/// flight against several shards at once. Same RunResult and "service"
/// metrics block, plus the shard count (docs/SHARDING.md).
RunResult run_service_sharded(const ServiceCfg& cfg);

}  // namespace hmps::harness
