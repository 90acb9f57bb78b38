// Sharded service bench (docs/SHARDING.md): aggregate throughput and p99
// sojourn of a sync::ShardedServer fleet vs shard count on a big mesh.
//
// One MP-SERVER saturates near 100 Mops/s on this farm — the serving core
// is the bottleneck, not the interconnect. Sharding the object farm across a
// fleet multiplies the serving capacity: with objects spread by rendezvous
// hashing and sessions routing each op to its home shard, aggregate
// throughput under a saturating offered load should scale with the fleet
// until sessions or the mesh run out. The headline check is >= 2.5x
// aggregate throughput at 8 shards vs 1 on a 16x16 mesh (counter farm,
// uniform object popularity; Zipf skew concentrates load on the hot
// object's home shard and flattens the curve — sweep zipf_s to see it).
#include <cstdio>
#include <string>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/service.hpp"

using namespace hmps;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "service_sharded", argc, argv);

  // Offered loads in Mops/s at the 1.2 GHz clock. The top loads sit far
  // past a single server's capacity, so the shard sweep measures capacity
  // scaling rather than arrival-limited throughput.
  std::vector<double> loads{32, 128, 384};
  if (args.full) loads = {16, 32, 64, 128, 256, 384, 512};
  if (args.quick) loads = {32, 384};

  std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};
  if (args.quick) shard_counts = {1, 8};

  harness::ServiceCfg base;
  base.base.warmup = args.quick ? 20'000 : 60'000;
  base.base.window = args.quick ? 80'000 : 400'000;
  base.base.reps = 1;
  // A big mesh by default: the fleet and its clients want room.
  base.base.machine.mesh_w = 16;
  base.base.machine.mesh_h = 16;
  base.base = args.run_cfg(base.base);
  base.sessions = args.threads ? args.threads : 40;
  base.objects = 64;
  base.zipf_s = 0.0;  // uniform popularity: the pure capacity-scaling case

  harness::RunPool pool(art, args.jobs);
  for (double load : loads) {
    for (std::uint32_t shards : shard_counts) {
      harness::ServiceCfg cfg = base;
      cfg.offered_mops = load;
      cfg.shards = shards;
      pool.run("s" + std::to_string(shards) + "/o" + harness::fmt(load, 0),
               cfg,
               [](const auto& c) { return harness::run_service_sharded(c); });
    }
  }
  const auto& results = pool.drain();

  std::vector<std::string> cols{"offered"};
  for (std::uint32_t shards : shard_counts) {
    cols.push_back("s" + std::to_string(shards) + " ach");
    cols.push_back("s" + std::to_string(shards) + " p99");
    cols.push_back("s" + std::to_string(shards) + " shed");
  }
  harness::Table table(cols);
  std::size_t idx = 0;
  double ach_first = 0, ach_last = 0;  // top load: fewest vs most shards
  for (double load : loads) {
    std::vector<std::string> row{harness::fmt(load, 0)};
    for (std::size_t si = 0; si < shard_counts.size(); ++si) {
      const auto& r = results[idx++];
      row.push_back(harness::fmt(r.mops));
      row.push_back(harness::fmt(r.lat_p99, 0));
      row.push_back(std::to_string(r.shed_ops));
      if (load == loads.back()) {
        if (si == 0) ach_first = r.mops;
        if (si == shard_counts.size() - 1) ach_last = r.mops;
      }
    }
    table.add_row(row);
  }
  table.print("Sharded counter service on " +
              std::to_string(base.base.machine.mesh_w) + "x" +
              std::to_string(base.base.machine.mesh_h) +
              ": aggregate Mops/s, p99 sojourn (cycles) and shed arrivals "
              "vs offered load (" +
              std::to_string(base.sessions) + " sessions, uniform objects)");
  const double scaling = ach_first > 0 ? ach_last / ach_first : 0;
  std::printf("aggregate scaling at offered %s Mops/s: %u shards / %u "
              "shard = %.2fx (>= 2.5x expected)\n",
              harness::fmt(loads.back(), 0).c_str(), shard_counts.back(),
              shard_counts.front(), scaling);
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return scaling >= 2.5 ? 0 : 1;
}
