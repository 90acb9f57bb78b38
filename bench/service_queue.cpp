// Open-loop MS-queue service bench under bursty (MMPP) arrivals
// (docs/SERVICE.md): the queue farm absorbs Zipf-skewed enqueue/dequeue
// sessions whose offered load alternates between a quiet state and a burst
// state at `burst` times the quiet rate. Bursts are where open-loop and
// closed-loop measurements diverge hardest: a closed-loop driver slows down
// with the server, an MMPP keeps pushing, so p99/p999 sojourn reflects the
// backlog the burst leaves behind. Drop-oldest shedding keeps the pending
// queues bounded and biases completions toward fresh arrivals.
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
  harness::RunArtifacts art(args, "service_queue", argc, argv);

  std::vector<double> loads{2, 4, 8, 16, 24};
  if (args.full) loads = {1, 2, 4, 8, 12, 16, 24, 32};
  if (args.quick) loads = {4, 16};

  std::vector<Approach> apps{Approach::kMpServer, Approach::kHybComb,
                             Approach::kShmServer, Approach::kCcSynch};
  if (args.quick) apps = {Approach::kMpServer, Approach::kHybComb};

  harness::ServiceCfg base;
  base.base.warmup = args.quick ? 20'000 : 60'000;
  base.base.window = args.quick ? 60'000 : 400'000;
  base.base.reps = args.quick ? 1 : 2;
  base.base = args.run_cfg(base.base);
  base.sessions = args.threads ? args.threads : 4;
  base.objects = 4;
  base.zipf_s = 0.9;
  base.queue_object = true;
  base.arrival = harness::ArrivalModel::kMmpp;
  base.burst = 8.0;
  base.shed = harness::ShedPolicy::kDropOldest;

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
    cols.push_back(std::string(harness::approach_name(a)) + " p999");
  }
  harness::Table table(cols);
  std::size_t idx = 0;
  for (double load : loads) {
    std::vector<std::string> row{harness::fmt(load, 0)};
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
      const auto& r = results[idx++];
      row.push_back(harness::fmt(r.mops));
      row.push_back(harness::fmt(r.lat_p99, 0));
      row.push_back(harness::fmt(r.lat_p999, 0));
    }
    table.add_row(row);
  }
  table.print("Open-loop MS-queue service under MMPP bursts (x" +
              harness::fmt(base.burst, 0) + "): achieved Mops/s and "
              "p99/p999 sojourn (cycles) vs offered load");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
