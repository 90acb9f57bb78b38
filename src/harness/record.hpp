// Uniform history capture for the schedule-exploration harness
// (docs/TESTING.md): runs one bounded workload — any universal construction
// (or the concurrent LCRQ / elimination-stack structures) driving one
// concurrent object on the simulator — and returns the precise
// invoke/response history for the linearizability checkers in history.hpp.
// It stands on the harness's run frame (harness/driver.hpp) like the closed
// and open loops; its own are the op draw, the run to the horizon and the
// reverse-order reap of its async trains.
//
// The same RecordCfg + seed (+ optional sim::Perturber with the same plan)
// reproduces the same history bit for bit from the same heap state: the
// recording loop draws all of its randomness from the simulator's
// per-thread deterministic streams, and the coherence model virtualizes
// home assignment, but which simulated variables share a cache line still
// follows host addresses. A fresh process therefore always reproduces a
// repro file exactly, while the first run inside a long-lived process may
// differ from later ones by a few stall cycles (docs/TESTING.md).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "arch/params.hpp"
#include "harness/history.hpp"
#include "sim/fault.hpp"

namespace hmps::sim {
class Perturber;
}

namespace hmps::harness {

/// Every synchronization construction the repo implements (ROADMAP.md).
enum class Construction : std::uint8_t {
  kMpServer,
  kHybComb,
  kShmServer,
  kCcSynch,
  kDsmSynch,
  kFlatCombining,
  kHSynch,
  kOyama,
  kMcsLock,
  kMpServerHub,
  kSharded,  ///< multi-server object farm (docs/SHARDING.md)
  kVlink,    ///< delegation over the Virtual-Link MPMC channel (MODEL.md §12)
};
inline constexpr std::uint32_t kNumConstructions = 12;

/// Concurrent objects the harness can drive. Counter/queue/stack run their
/// sequential bodies under the chosen construction; LCRQ and the
/// elimination stack are concurrent structures in their own right, so for
/// them the construction field is ignored.
enum class Object : std::uint8_t {
  kCounter,
  kQueue,
  kStack,
  kLcrq,
  kElimStack,
};
inline constexpr std::uint32_t kNumObjects = 5;

const char* to_string(Construction c);
const char* to_string(Object o);
bool construction_from_string(std::string_view s, Construction* out);
bool object_from_string(std::string_view s, Object* out);

/// True for the client/server approaches, which dedicate one extra thread
/// (tid 0) to the server loop.
bool uses_server(Construction c);

/// Server threads a construction dedicates ahead of the clients: 0 for the
/// shared-memory approaches, 1 for the single-server ones, `shards` for the
/// sharded fleet (tids [0, shards)).
std::uint32_t server_threads(Construction c, std::uint32_t shards);

/// True for constructions exposing the async ticket API (docs/MODEL.md §9),
/// i.e. those RecordCfg::async_depth applies to.
bool supports_async(Construction c);

/// One recorded run, fully described (hmps-repro-v1 serializes exactly
/// these fields plus a PerturbPlan — src/check/repro.hpp).
struct RecordCfg {
  arch::MachineParams params = arch::MachineParams::tilegx36();
  std::uint64_t seed = 1;
  Construction construction = Construction::kHybComb;
  Object object = Object::kCounter;
  std::uint32_t threads = 4;          ///< client threads (a server adds one)
  std::uint32_t ops_each = 8;
  std::uint64_t max_ops = 8;          ///< combining MAX_OPS / FC passes
  std::uint32_t produce_permille = 500;  ///< enq/push share for queue/stack
  sim::Cycle think_max = 40;          ///< random compute between ops
  sim::Cycle horizon = 50'000'000;    ///< hard stop; shorter under explore
  sim::FaultPlan faults;              ///< installed iff faults.enabled()
  /// Test-only seeded defect (sync::HybComb::Options::bug_drop_every); used
  /// by the exploration selftest, 0 everywhere else.
  std::uint64_t hyb_bug_drop_every = 0;
  /// >= 2: clients issue trains of this many apply_async() tickets and reap
  /// them in reverse order (invocation recorded at issue, response at reap —
  /// docs/MODEL.md §9). Only meaningful for supports_async() constructions
  /// on counter/queue/stack; 0/1 = classic synchronous loop.
  std::uint32_t async_depth = 0;
  /// kSharded only: server fleet size (tids [0, shards)); clients drive a
  /// farm of 8 objects partitioned by rendezvous hashing, and queue runs
  /// mix in cross-shard queue_transfer ops (docs/SHARDING.md). Ignored —
  /// and clamped to 1 — for every other construction.
  std::uint32_t shards = 1;
};

struct RecordResult {
  std::vector<OpRecord> history;
  std::uint32_t total_client_threads = 0;
  std::uint32_t finished_threads = 0;
  bool completed = false;  ///< all client threads finished before horizon
  Cycle end_time = 0;
};

/// Runs the configured workload to completion (or cfg.horizon) and returns
/// its history. `perturber`, when non-null, is installed on the simulation
/// scheduler for the duration of the run.
RecordResult record_history(const RecordCfg& cfg,
                            sim::Perturber* perturber = nullptr);

}  // namespace hmps::harness
