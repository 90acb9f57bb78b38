// Reproduces the Section 5.5 discussion: CC-SYNCH and SHM-SERVER (the two
// approaches that exist on pure shared-memory machines) on x86-like machine
// presets, compared with the TILE-Gx preset.
//
// Expected shape: peak throughput of both is significantly lower on the
// Xeon/Opteron presets than on the TILE-Gx, and the servicing thread shows
// proportionally more stall cycles per op — i.e. the headroom for hardware
// message passing is even larger on x86.
//
// A second table runs the same pair natively (real threads + std::atomic)
// on the host, mirroring the paper's actual x86 measurement. Note: this
// container exposes a single hardware thread, so native numbers measure
// correctness and order of magnitude, not scalability.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ds/counter.hpp"
#include "harness/artifact.hpp"
#include "harness/report.hpp"
#include "harness/run_pool.hpp"
#include "harness/workload.hpp"
#include "runtime/native_context.hpp"
#include "sync/ccsynch.hpp"
#include "sync/shm_server.hpp"

using namespace hmps;
using harness::Approach;

namespace {

// Native counter throughput with CC-SYNCH on real threads.
double native_ccsynch_mops(std::uint32_t nthreads, int millis) {
  rt::NativeEnv env(nthreads);
  ds::SeqCounter counter;
  sync::CcSynch<rt::NativeCtx> cc(&counter, 200);
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ops(nthreads, 0);
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    threads.emplace_back([&, i] {
      rt::NativeCtx ctx(env, i, 1000 + i);
      while (!stop.load(std::memory_order_relaxed)) {
        cc.apply(ctx, ds::counter_inc<rt::NativeCtx>, 0);
        ++ops[i];
        ctx.compute(ctx.rand_below(51));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  stop.store(true);
  for (auto& t : threads) t.join();
  std::uint64_t total = 0;
  for (auto o : ops) total += o;
  return static_cast<double>(total) / (millis * 1e3);  // Mops/s
}

// Native counter throughput with SHM-SERVER (thread 0 = server).
double native_shmserver_mops(std::uint32_t nclients, int millis) {
  rt::NativeEnv env(nclients + 1);
  ds::SeqCounter counter;
  sync::ShmServer<rt::NativeCtx> shm(0, &counter);
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ops(nclients, 0);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    rt::NativeCtx ctx(env, 0, 999);
    shm.serve(ctx);
  });
  for (std::uint32_t i = 0; i < nclients; ++i) {
    threads.emplace_back([&, i] {
      rt::NativeCtx ctx(env, 1 + i, 2000 + i);
      while (!stop.load(std::memory_order_relaxed)) {
        shm.apply(ctx, ds::counter_inc<rt::NativeCtx>, 0);
        ++ops[i];
        ctx.compute(ctx.rand_below(51));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  stop.store(true);
  // Clients quiesce between ops; then shut the server down.
  for (std::uint32_t i = 1; i <= nclients; ++i) threads[i].join();
  {
    rt::NativeCtx ctx(env, 1, 3000);
    shm.request_stop(ctx);
  }
  threads[0].join();
  std::uint64_t total = 0;
  for (auto o : ops) total += o;
  return static_cast<double>(total) / (millis * 1e3);  // Mops/s
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = harness::BenchArgs::parse(argc, argv);
  harness::RunArtifacts art(args, "sec55_discussion", argc, argv);

  struct Preset {
    const char* label;
    arch::MachineParams params;
    std::uint32_t threads;
  };
  const Preset presets[] = {
      {"TILE-Gx (36c)", arch::MachineParams::tilegx36(), 35},
      {"Xeon-like (10c)", arch::MachineParams::xeon10(), 9},
      {"Opteron-like (6c)", arch::MachineParams::opteron6(), 5},
  };
  const Approach order[] = {Approach::kShmServer, Approach::kCcSynch};
  harness::RunPool pool(art, args.jobs);
  for (const auto& p : presets) {
    for (Approach a : order) {
      harness::RunCfg base;
      base.machine = p.params;
      harness::RunCfg cfg = args.run_cfg(base);
      cfg.app_threads = args.threads ? args.threads : p.threads;
      // Per the paper's stall measurement, pin the servicing thread.
      cfg.fixed_combiner = (a == Approach::kCcSynch);
      pool.run(std::string(p.label) + "/" + harness::approach_name(a), cfg,
               [a](const auto& c) { return harness::run_counter(c, a); });
    }
  }
  const auto& results = pool.drain();

  harness::Table table({"machine", "approach", "peak Mops/s",
                        "serv stall/op", "serv total/op"});
  std::size_t idx = 0;
  for (const auto& p : presets) {
    for (Approach a : order) {
      const auto& r = results[idx++];
      table.add_row({p.label, harness::approach_name(a),
                     harness::fmt(r.mops), harness::fmt(r.serv_stall_per_op, 1),
                     harness::fmt(r.serv_total_per_op, 1)});
    }
  }
  table.print("Section 5.5: shared-memory approaches across machine models");

  harness::Table native({"impl", "app threads", "Mops/s (native host)"});
  const std::uint32_t hw = std::thread::hardware_concurrency();
  const std::uint32_t host_threads = std::min(4u, std::max(2u, hw));
  native.add_row({"CC-Synch", std::to_string(host_threads),
                  harness::fmt(native_ccsynch_mops(host_threads, 200))});
  if (hw >= 2) {
    // A dedicated-server approach needs real parallelism; on a single
    // hardware thread the server and its clients timeshare one core and
    // the number would only measure the OS scheduler.
    native.add_row({"shm-server", std::to_string(host_threads - 1),
                    harness::fmt(native_shmserver_mops(host_threads - 1,
                                                       200))});
  } else {
    native.add_row({"shm-server", "-", "skipped: 1 hardware thread"});
  }
  native.print("Section 5.5: native x86 spot check (host hardware)");
  if (!args.csv.empty()) table.write_csv(args.csv);
  art.finalize();
  return 0;
}
