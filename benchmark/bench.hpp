// Shared pieces of the repo benchmark (benchmark/README.md): host clocks,
// order statistics, the simulated-result digest, the host span log of a
// traced run, and the interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hmps::bench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Geometric mean of the positive entries; 0 when there are none.
double geomean(const std::vector<double>& v);

/// FNV-1a over every simulated result field a workload produces. Doubles
/// are hashed by bit pattern: a host-side change must leave them bit-equal.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t v = 0;
    std::memcpy(&v, &d, sizeof v);
    add(v);
  }
  void add(std::string_view s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    add(std::uint64_t{s.size()});
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// In-memory host spans, recorded by the benchmark around each call it
/// makes into a layer. Thread-safe: run-pool workers record their own runs.
/// Spans of one simulation run share its run id (the request id).
class SpanLog {
 public:
  struct Span {
    const char* name;  ///< static string
    double start = 0;
    double end = 0;
    int parent = -1;   ///< index of the enclosing span, -1 at the root
    std::uint64_t run = 0;
    int thread = 0;    ///< recording host thread, in order of first span
  };

  int begin(const char* name, int parent, std::uint64_t run);
  void end(int id);

  std::vector<Span> spans() const;
  /// Seconds per span name, each span's duration minus the part of it
  /// its child spans cover.
  std::map<std::string, double> self_seconds() const;
  /// Chrome trace-event JSON, one complete ("X") event per span.
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  double origin_ = now_s();
};

/// RAII span; a null log makes it a no-op (untraced passes).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent = -1, std::uint64_t run = 0)
      : log_(log), id_(log ? log->begin(name, parent, run) : -1) {}
  ~Scope() {
    if (log_) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// The five constructions the per-construction metrics cover, by the
/// harness's Approach names.
inline constexpr const char* kConstructions[] = {
    "mp-server", "HybComb", "shm-server", "CC-Synch", "vlink-server"};

/// Per-layer sums over one traced pass. Counts are simulated; seconds are
/// host time.
struct Tally {
  std::uint64_t runs = 0;
  std::vector<double> run_ms;  ///< host time of each simulation run
  double sim_run_s = 0;        ///< host seconds of runs whose events count
  std::uint64_t events = 0;
  std::uint64_t fast_forwards = 0;
  std::uint64_t coh_accesses = 0, coh_rmrs = 0, coh_invalidations = 0;
  std::uint64_t coh_atomics = 0, coh_ctrl_wait = 0;
  std::uint64_t udn_messages = 0, udn_sender_blocks = 0;
  std::uint64_t noc_messages = 0, noc_hops = 0, noc_link_wait = 0;
  std::uint64_t vlink_frames = 0, vlink_consumer_waits = 0;
  struct Cons {
    double host_s = 0;
    double ops = 0;
    double peak_mops = 0;
    double stall_share = 0;  ///< servicing core, at the peak run
    double slo_mops = 0;
  };
  std::map<std::string, Cons> cons;
  double pool_busy_s = 0, pool_wall_s = 0;
  std::uint32_t pool_jobs = 1;
  double svc_queue_delay = 0, svc_sojourn = 0;
  std::uint64_t svc_shed = 0, svc_offered = 0;
  double fidelity_err_pct = 0;
  std::uint64_t ops_checked = 0, violations = 0, hangs = 0;
  std::vector<double> record_ms, verify_ms;  ///< per recorded scenario
  double artifact_ms = 0;
};

/// What one pass over a workload's inputs produced.
struct Pass {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  Digest digest;
  std::vector<double> run_mops;  ///< simulated throughput per run
  std::vector<double> run_p99;   ///< simulated p99 latency per run, cycles
  /// Workload-specific simulated results (fidelity_err_pct, slo_mops, ...),
  /// reported beside the end-to-end metrics and judged by compare.py.
  struct Value {
    double value;
    const char* unit;
  };
  std::map<std::string, Value> extra;
  Tally tally;  ///< filled only when traced

  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

/// Where a traced pass records: host spans, and the path of the
/// hmps-metrics-v2 artifact its simulated counters are read from.
struct TraceSink {
  SpanLog* spans = nullptr;
  std::string artifact_path;
};

/// A benchmark workload: set-up builds the inputs from the seed (and one
/// cold machine per distinct machine shape); each pass runs them all.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual void setup(std::uint64_t seed) = 0;
  /// Runs every input once. `trace` is null for untraced passes; traced
  /// passes record spans and fill Pass::tally.
  virtual Pass run(const TraceSink* trace) = 0;
};

/// `scale` divides the work per pass (1 = full size, 20 = smoke).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint32_t scale);

/// Layer micro drivers of a traced run: metric name -> value.
std::map<std::string, double> run_probes(std::uint32_t scale);

}  // namespace hmps::bench
