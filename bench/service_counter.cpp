// Open-loop service bench (docs/SERVICE.md): counter-farm throughput vs
// tail latency under a Poisson offered load swept across saturation.
//
// Closed-loop benches (fig3a) measure capacity: clients re-issue on
// completion, so latency is conditioned on the system keeping up. Here the
// arrival process does not care whether the system keeps up — as offered
// load approaches each construction's capacity, the pending-arrival queues
// fill, sojourn time (arrival to completion) blows up, and past saturation
// admission control sheds the excess. The headline result is the
// throughput-vs-p99 curve: p99 sojourn degrades monotonically with offered
// load, gently below saturation and steeply across it.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/service.hpp"

using namespace hmps;
using harness::Approach;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "service_counter", argc, argv);

  // Offered loads in Mops/s at the 1.2 GHz clock. The serving core's
  // per-op cost puts capacity in the low tens of Mops/s for every
  // construction here, so the upper loads are firmly past saturation.
  std::vector<double> loads{2, 4, 8, 16, 24, 32};
  if (args.full) loads = {1, 2, 4, 8, 12, 16, 24, 32, 48};
  if (args.quick) loads = {4, 24};

  std::vector<Approach> apps{Approach::kMpServer, Approach::kHybComb,
                             Approach::kShmServer, Approach::kCcSynch,
                             Approach::kVlinkServer};
  if (args.quick) apps = {Approach::kMpServer, Approach::kHybComb};

  harness::ServiceCfg base;
  base.base.warmup = args.quick ? 20'000 : 60'000;
  base.base.window = args.quick ? 60'000 : 400'000;
  base.base.reps = args.quick ? 1 : 2;
  base.base = args.run_cfg(base.base);
  base.sessions = args.threads ? args.threads : 4;
  base.objects = 4;
  base.zipf_s = 0.9;

  harness::RunPool pool(art, args.jobs);
  for (double load : loads) {
    for (Approach a : apps) {
      harness::ServiceCfg cfg = base;
      cfg.offered_mops = load;
      pool.run(std::string(harness::approach_name(a)) + "/o" +
                   harness::fmt(load, 0),
               cfg, [a](const auto& c) { return harness::run_service(c, a); });
    }
  }
  const auto& results = pool.drain();

  std::vector<std::string> cols{"offered"};
  for (Approach a : apps) {
    cols.push_back(std::string(harness::approach_name(a)) + " ach");
    cols.push_back(std::string(harness::approach_name(a)) + " p99");
    cols.push_back(std::string(harness::approach_name(a)) + " shed");
  }
  harness::Table table(cols);
  std::size_t idx = 0;
  std::vector<double> prev_p99(apps.size(), 0);
  std::vector<bool> monotone(apps.size(), true);
  for (double load : loads) {
    std::vector<std::string> row{harness::fmt(load, 0)};
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
      const auto& r = results[idx++];
      row.push_back(harness::fmt(r.mops));
      row.push_back(harness::fmt(r.lat_p99, 0));
      row.push_back(std::to_string(r.shed_ops));
      // Monotone degradation with a 5% slack for sampling noise.
      if (r.lat_p99 + 1e-9 < prev_p99[ai] * 0.95) monotone[ai] = false;
      if (r.lat_p99 > prev_p99[ai]) prev_p99[ai] = r.lat_p99;
    }
    table.add_row(row);
  }
  table.print("Open-loop counter service: achieved Mops/s, p99 sojourn "
              "(cycles) and shed arrivals vs offered load (" +
              std::to_string(base.sessions) + " sessions, Poisson)");
  for (std::size_t ai = 0; ai < apps.size(); ++ai) {
    std::printf("p99 degrades monotonically for %s: %s\n",
                harness::approach_name(apps[ai]),
                monotone[ai] ? "yes" : "NO");
  }
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
