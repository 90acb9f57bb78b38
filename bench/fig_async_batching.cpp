// Async delegation with client-side batching (docs/MODEL.md §9): counter
// and MS-queue throughput as a function of the request-train depth.
//
// Depth 1 is the classic synchronous apply() — one full request/response
// round trip per operation. Depth d >= 2 issues d tagged apply_async()
// requests back-to-back before reaping the tickets, so the round-trip
// latency is paid once per train instead of once per op and the server
// pipeline stays fed. Below server saturation the speedup approaches the
// ratio of round-trip time to service time; expect MP-SERVER to clear
// 1.5x its synchronous throughput by depth 4.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/workload.hpp"

using namespace hmps;
using harness::Approach;
using harness::QueueImpl;

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "fig_async_batching", argc, argv);

  // Sub-saturation client count: a single zero-think client is fully
  // round-trip bound, which is exactly the gap batching closes. Two or
  // more zero-think clients already saturate the MP-SERVER core (its
  // service time is below half the round trip), and at saturation the
  // depth sweep flattens at the server's line rate — visible by passing
  // --threads.
  const std::uint32_t nthreads = args.threads ? args.threads : 1;
  const std::vector<std::uint32_t> depths{1, 2, 4, 8, 16};

  harness::RunPool pool(art, args.jobs);
  for (std::uint32_t d : depths) {
    harness::RunCfg cfg = args.run_cfg();
    cfg.app_threads = nthreads;
    // No think time: the measurement isolates the round-trip pipelining
    // (think cycles are an additive constant on both sides of the
    // comparison; Fig. 3a's think-time sweep keeps them).
    cfg.think_iters_max = 0;
    // Depth 1 runs the untouched synchronous path as the baseline.
    cfg.async_batch = d >= 2 ? d : 0;

    const Approach order[] = {Approach::kMpServer, Approach::kHybComb,
                              Approach::kShmServer};
    for (Approach a : order) {
      pool.run(std::string(harness::approach_name(a)) + "/d" +
                   std::to_string(d),
               cfg, [a](const auto& c) { return harness::run_counter(c, a); });
    }
    pool.run("mp-server-1/d" + std::to_string(d), cfg, [](const auto& c) {
      return harness::run_queue(c, QueueImpl::kMp1);
    });
  }
  const auto& results = pool.drain();

  harness::Table table({"batch", "mp-server", "HybComb", "shm-server",
                        "mp-server-1 (queue)"});
  double mp_sync = 0;
  double mp_d4 = 0;
  std::size_t idx = 0;
  for (std::uint32_t d : depths) {
    std::vector<std::string> row{d >= 2 ? std::to_string(d) : "1 (sync)"};
    for (std::size_t a = 0; a < 4; ++a) {
      const auto& r = results[idx++];
      row.push_back(harness::fmt(r.mops));
      if (a == 0) {
        if (d == 1) mp_sync = r.mops;
        if (d == 4) mp_d4 = r.mops;
      }
    }
    table.add_row(row);
  }
  table.print("Async batching: counter / MS-queue throughput (Mops/s, " +
              std::to_string(nthreads) + " clients) vs train depth");
  if (mp_sync > 0) {
    std::printf("mp-server depth-4 speedup over sync: %.2fx\n",
                mp_d4 / mp_sync);
  }
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
