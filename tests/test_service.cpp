// Open-loop service harness tests (docs/SERVICE.md): deterministic arrival
// processes, Zipf popularity, admission control / shed accounting, exact
// tail-quantile reservoirs, svc-queue cycle attribution, and byte-identical
// artifacts between serial and pooled execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/run_pool.hpp"
#include "harness/service.hpp"
#include "obs/json.hpp"
#include "sim/stats.hpp"

namespace {

using namespace hmps;
using harness::Approach;
using harness::ArrivalGen;
using harness::ArrivalModel;
using harness::ServiceCfg;
using harness::ShedPolicy;
using harness::ZipfSampler;
using sim::Cycle;

ServiceCfg small_cfg() {
  ServiceCfg cfg;
  cfg.base.warmup = 10'000;
  cfg.base.window = 30'000;
  cfg.base.reps = 1;
  cfg.base.seed = 7;
  cfg.sessions = 3;
  cfg.objects = 4;
  return cfg;
}

// ---- arrival processes ----------------------------------------------------

TEST(ArrivalGen, SameSeedSameSchedule) {
  for (ArrivalModel m : {ArrivalModel::kPoisson, ArrivalModel::kMmpp}) {
    ServiceCfg cfg = small_cfg();
    cfg.arrival = m;
    cfg.offered_mops = 6.0;
    ArrivalGen a(cfg, 99), b(cfg, 99);
    Cycle ta = 0, tb = 0;
    for (int i = 0; i < 5'000; ++i) {
      ta = a.next(ta);
      tb = b.next(tb);
      ASSERT_EQ(ta, tb) << "arrival " << i;
      ASSERT_GT(ta, 0u);
    }
    // A different seed must give a different schedule.
    ArrivalGen c(cfg, 100);
    Cycle tc = 0;
    int same = 0;
    ta = 0;
    ArrivalGen a2(cfg, 99);
    for (int i = 0; i < 100; ++i) {
      ta = a2.next(ta);
      tc = c.next(tc);
      same += (ta == tc);
    }
    EXPECT_LT(same, 100);
  }
}

TEST(ArrivalGen, RealizedRateMatchesOfferedLoad) {
  // Long-run arrival rate must match the offered load for both models —
  // for the MMPP that checks the quiet/burst rate split against the
  // time-averaged target.
  for (ArrivalModel m : {ArrivalModel::kPoisson, ArrivalModel::kMmpp}) {
    ServiceCfg cfg = small_cfg();
    cfg.arrival = m;
    cfg.offered_mops = 4.0;  // 1 arrival per 300 cycles
    ArrivalGen g(cfg, 5);
    Cycle t = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i) t = g.next(t);
    const double mean_gap = static_cast<double>(t) / n;
    EXPECT_NEAR(mean_gap, 300.0, 15.0) << arrival_model_name(m);
  }
}

TEST(ArrivalGen, MmppActuallyBursts) {
  // Inter-arrival gaps under the MMPP must show both regimes: many gaps far
  // below the Poisson mean (bursts) and a heavier tail of long quiet gaps.
  ServiceCfg cfg = small_cfg();
  cfg.arrival = ArrivalModel::kMmpp;
  cfg.offered_mops = 4.0;
  cfg.burst = 8.0;
  ArrivalGen g(cfg, 11);
  Cycle t = 0;
  int below_eighth = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const Cycle nt = g.next(t);
    below_eighth += (nt - t) * 8 < 300;
    t = nt;
  }
  // Under plain Poisson at mean 300, P(gap < 37.5) ~ 12%; the MMPP spends
  // its burst state at 8x the quiet rate, pushing that well above 20%.
  EXPECT_GT(below_eighth, n / 5);
}

// ---- Zipf popularity ------------------------------------------------------

TEST(ZipfSampler, SkewsTowardLowRanks) {
  const std::uint32_t n = 8;
  ZipfSampler z(n, 0.9);
  sim::Xoshiro256 rng(3);
  std::vector<int> hits(n, 0);
  const int draws = 100'000;
  for (int i = 0; i < draws; ++i) {
    const double u = ((rng() >> 11) + 1) * 0x1.0p-53;
    const std::uint32_t k = z.sample(u);
    ASSERT_LT(k, n);
    ++hits[k];
  }
  // Monotone popularity and the right head mass: p(0) = (1/1^0.9) / H ~ 29%.
  for (std::uint32_t k = 1; k < n; ++k) EXPECT_LE(hits[k], hits[k - 1]);
  EXPECT_NEAR(static_cast<double>(hits[0]) / draws, z.cdf(0), 0.01);
  EXPECT_GT(hits[0], 3 * hits[n - 1]);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  const std::uint32_t n = 4;
  ZipfSampler z(n, 0.0);
  for (std::uint32_t k = 0; k < n; ++k) {
    EXPECT_NEAR(z.cdf(k), static_cast<double>(k + 1) / n, 1e-12);
  }
}

// ---- reservoir vs exact offline sort --------------------------------------

// Offline reference: linear interpolation between adjacent order
// statistics of a sorted vector (R type-7), same definition as
// Reservoir::quantile but computed from the full stream.
std::uint64_t offline_quantile(const std::vector<std::uint64_t>& sorted,
                               double q) {
  const double r = q * static_cast<double>(sorted.size() - 1);
  const std::size_t i = static_cast<std::size_t>(r);
  if (i >= sorted.size() - 1) return sorted.back();
  const double frac = r - static_cast<double>(i);
  const double lo = static_cast<double>(sorted[i]);
  const double hi = static_cast<double>(sorted[i + 1]);
  return static_cast<std::uint64_t>(lo + (hi - lo) * frac);
}

TEST(Reservoir, ExactQuantilesUnderCapacity) {
  // Below capacity the reservoir keeps every sample, so p50/p99/p999 must
  // equal the exact interpolated quantiles of an offline sort.
  sim::Reservoir res;
  std::vector<std::uint64_t> all;
  sim::Xoshiro256 rng(17);
  for (int i = 0; i < 20'000; ++i) {
    // Long-tailed synthetic sojourns.
    const std::uint64_t v = 50 + rng.below(200) + (rng.below(100) == 0
                                                       ? 10'000 + rng.below(5'000)
                                                       : 0);
    res.add(v);
    all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(res.count(), all.size());
  EXPECT_EQ(res.kept(), all.size());
  EXPECT_EQ(res.quantile(0.5), offline_quantile(all, 0.5));
  EXPECT_EQ(res.quantile(0.99), offline_quantile(all, 0.99));
  EXPECT_EQ(res.quantile(0.999), offline_quantile(all, 0.999));
  EXPECT_EQ(res.quantile(1.0), all.back());
}

TEST(Reservoir, DecimationBoundaryMatchesOfflineSort) {
  // The regression this pins: at 2^16 + 1 arrivals the default-capacity
  // reservoir halves for the first time (32769 kept samples), and the old
  // nearest-rank rounding was off by one sample against the offline sort
  // whenever frac(q * (n - 1)) landed in [0.25, 0.5) — e.g. p99 of the
  // monotone stream 0..65536 came back 64880 instead of 64881 (the exact
  // rank is 64880.64). Interpolated quantiles of the stride-2 thinning
  // reproduce the offline interpolated quantiles exactly, at the boundary
  // sizes 2^16 - 1 (exact, no decimation), 2^16 (exactly full) and
  // 2^16 + 1 (first halving).
  for (const std::uint64_t n :
       {(std::uint64_t{1} << 16) - 1, std::uint64_t{1} << 16,
        (std::uint64_t{1} << 16) + 1}) {
    sim::Reservoir res;  // default capacity 2^16
    std::vector<std::uint64_t> all;
    all.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      res.add(i);  // monotone: every value is its own rank
      all.push_back(i);
    }
    EXPECT_EQ(res.count(), n);
    EXPECT_EQ(res.kept(), n <= (std::uint64_t{1} << 16)
                              ? static_cast<std::size_t>(n)
                              : std::size_t{32769});
    for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(res.quantile(q), offline_quantile(all, q))
          << "n=" << n << " q=" << q;
    }
    // One sort for a set of quantiles gives each quantile() exactly.
    const auto [p50, p99, p999] = res.quantiles({0.5, 0.99, 0.999});
    EXPECT_EQ(p50, offline_quantile(all, 0.5)) << "n=" << n;
    EXPECT_EQ(p99, offline_quantile(all, 0.99)) << "n=" << n;
    EXPECT_EQ(p999, offline_quantile(all, 0.999)) << "n=" << n;
  }
}

TEST(Reservoir, DecimationStaysDeterministicAndClose) {
  // Past capacity the reservoir decimates systematically: still
  // deterministic (two identical streams agree exactly) and the p99 of the
  // kept subsequence tracks the exact p99 of the full stream.
  sim::Reservoir a(1 << 10), b(1 << 10);
  std::vector<std::uint64_t> all;
  sim::Xoshiro256 rng(23);
  for (int i = 0; i < 60'000; ++i) {
    const std::uint64_t v = 100 + rng.below(1'000);
    a.add(v);
    b.add(v);
    all.push_back(v);
  }
  EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
  EXPECT_LE(a.kept(), std::size_t{1} << 10);
  EXPECT_EQ(a.count(), all.size());
  std::sort(all.begin(), all.end());
  const std::uint64_t exact99 = all[static_cast<std::size_t>(
      0.99 * static_cast<double>(all.size() - 1) + 0.5)];
  EXPECT_NEAR(static_cast<double>(a.quantile(0.99)),
              static_cast<double>(exact99), 0.02 * exact99);
}

// ---- end-to-end service runs ----------------------------------------------

TEST(ServiceRun, SameSeedByteIdenticalResults) {
  ServiceCfg cfg = small_cfg();
  cfg.offered_mops = 6.0;
  for (Approach a : {Approach::kMpServer, Approach::kHybComb,
                     Approach::kShmServer, Approach::kCcSynch}) {
    const auto r1 = harness::run_service(cfg, a);
    const auto r2 = harness::run_service(cfg, a);
    EXPECT_EQ(r1.total_ops, r2.total_ops);
    EXPECT_EQ(r1.arrivals, r2.arrivals);
    EXPECT_EQ(r1.shed_ops, r2.shed_ops);
    EXPECT_EQ(r1.mops, r2.mops);
    EXPECT_EQ(r1.lat_p99, r2.lat_p99);
    EXPECT_EQ(r1.lat_p999, r2.lat_p999);
    EXPECT_EQ(r1.queue_delay_mean, r2.queue_delay_mean);
    EXPECT_EQ(r1.service_mean, r2.service_mean);
    EXPECT_GT(r1.total_ops, 0u) << harness::approach_name(a);
  }
}

TEST(ServiceRun, SojournSplitsIntoQueueDelayPlusService) {
  ServiceCfg cfg = small_cfg();
  cfg.offered_mops = 8.0;
  const auto r = harness::run_service(cfg, Approach::kMpServer);
  ASSERT_GT(r.total_ops, 0u);
  // Means are over the same completion population, so the split is exact
  // up to floating-point accumulation.
  EXPECT_NEAR(r.queue_delay_mean + r.service_mean, r.lat_mean,
              1e-6 * r.lat_mean + 1e-9);
  EXPECT_GE(r.lat_p999, r.lat_p99);
  EXPECT_GE(r.lat_p99, r.lat_p50);
  EXPECT_GE(r.lat_max, r.lat_p999);
}

TEST(ServiceRun, OverloadShedsAndDegradesTail) {
  // Push HybComb far past capacity with a small admission queue: arrivals
  // must be shed, and p99 must degrade versus a light load.
  ServiceCfg light = small_cfg();
  light.offered_mops = 2.0;
  ServiceCfg heavy = light;
  heavy.offered_mops = 40.0;
  heavy.queue_cap = 16;
  const auto rl = harness::run_service(light, Approach::kHybComb);
  const auto rh = harness::run_service(heavy, Approach::kHybComb);
  EXPECT_EQ(rl.shed_ops, 0u);
  EXPECT_GT(rh.shed_ops, 0u);
  EXPECT_GT(rh.lat_p99, rl.lat_p99);
  // Achieved throughput saturates below the offered load.
  EXPECT_LT(rh.mops, rh.offered_mops * 0.9);
}

TEST(ServiceRun, ShedPoliciesAccountEveryArrival) {
  ServiceCfg cfg = small_cfg();
  cfg.offered_mops = 40.0;
  cfg.queue_cap = 8;
  // Tail drop: every generated arrival is either admitted or shed.
  cfg.shed = ShedPolicy::kDropNewest;
  const auto rn = harness::run_service(cfg, Approach::kCcSynch);
  ASSERT_GT(rn.shed_ops, 0u);
  const double offered_n = rn.offered_mops * 30'000 / 1200.0;
  EXPECT_NEAR(static_cast<double>(rn.arrivals + rn.shed_ops), offered_n,
              1.0);
  // Drop-oldest admits everything (evicting backlog instead), so admitted
  // equals offered and the evictions show up in shed_ops.
  cfg.shed = ShedPolicy::kDropOldest;
  const auto ro = harness::run_service(cfg, Approach::kCcSynch);
  ASSERT_GT(ro.shed_ops, 0u);
  EXPECT_NEAR(static_cast<double>(ro.arrivals),
              ro.offered_mops * 30'000 / 1200.0, 1.0);
}

TEST(ServiceRun, SvcQueueBucketKeepsSumInvariant) {
  ServiceCfg cfg = small_cfg();
  cfg.offered_mops = 30.0;  // saturating: queueing delay must materialize
  obs::MetricsRegistry reg;
  ServiceCfg c = cfg;
  c.base.obs.metrics = &reg;
  c.base.obs.label = "svc";
  harness::run_service(c, Approach::kHybComb);
  const obs::JsonValue* runs = reg.root().find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items().size(), 1u);
  const obs::JsonValue& run = runs->items()[0];
  const obs::JsonValue* accts = run.find("cycle_accounts");
  ASSERT_NE(accts, nullptr);
  std::uint64_t svc_queue_total = 0;
  for (std::size_t i = 0; i < accts->items().size(); ++i) {
    const obs::JsonValue& acc = accts->items()[i];
    std::uint64_t sum = 0;
    for (const auto& [key, val] : acc.members()) {
      if (key != "total") sum += val.as_uint();
    }
    EXPECT_EQ(sum, acc.find("total")->as_uint()) << "core " << i;
    svc_queue_total += acc.find("svc-queue")->as_uint();
  }
  // At saturation the session cores spend real time on queued arrivals.
  EXPECT_GT(svc_queue_total, 0u);
}

// ---- serial vs pooled artifact identity -----------------------------------

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void run_service_sweep(const std::string& json, std::uint32_t jobs) {
  const char* argv[] = {const_cast<char*>("svc_sweep")};
  harness::BenchArgs args;
  args.json = json;
  harness::RunArtifacts art(args, "svc_sweep", 1, const_cast<char**>(argv));
  harness::RunPool pool(art, jobs);
  for (double load : {3.0, 9.0, 27.0}) {
    for (Approach a : {Approach::kMpServer, Approach::kHybComb}) {
      ServiceCfg cfg = small_cfg();
      cfg.offered_mops = load;
      pool.submit(std::string(harness::approach_name(a)) + "/o" +
                      std::to_string(static_cast<int>(load)),
                  [cfg, a](const harness::RunObs& obs) {
                    ServiceCfg c = cfg;
                    c.base.obs = obs;
                    return harness::run_service(c, a);
                  });
    }
  }
  pool.drain();
  art.finalize();
}

TEST(ServiceRun, PooledArtifactByteIdenticalToSerial) {
  const std::string sj = ::testing::TempDir() + "hmps_svc_serial.json";
  const std::string pj = ::testing::TempDir() + "hmps_svc_pool.json";
  run_service_sweep(sj, 1);
  run_service_sweep(pj, 4);
  const std::string serial = slurp(sj);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, slurp(pj));
}

}  // namespace
