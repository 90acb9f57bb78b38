// Concurrent-history recording and linearizability checking.
//
// The simulator gives exact invoke/response timestamps for every operation,
// so histories are precise. Two levels of checking are provided:
//
//  1. Fast partial checks (sound, not complete): value uniqueness,
//     no-loss/no-dup, and the FIFO/real-time-order axioms that catch the
//     common linearizability bugs in queues and counters at any scale.
//  2. A complete Wing & Gong-style search (`linearizable()`) against a
//     queue, stack or counter specification, with memoization on
//     (linearized-set, spec-state) — exponential in the worst case, and
//     node-bounded where it runs inside exploration loops.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace hmps::harness {

using sim::Cycle;

enum class OpKind : std::uint8_t {
  kEnq,
  kDeq,   ///< ret = value or kNothing (empty)
  kPush,
  kPop,   ///< ret = value or kNothing (empty)
  kInc,   ///< ret = pre-increment value
  kRead,
};

inline constexpr std::uint64_t kNothing = ~std::uint64_t{0};

struct OpRecord {
  std::uint32_t thread = 0;
  OpKind kind = OpKind::kEnq;
  std::uint64_t arg = 0;
  std::uint64_t ret = 0;
  Cycle invoke = 0;
  Cycle response = 0;
  /// Object id within a farm (sharded runs, docs/SHARDING.md); 0 for
  /// single-object histories. Checkers validate each object's sub-history
  /// independently — cross-object ops (queue_transfer) contribute one
  /// record per touched object sharing the same invoke/response bracket.
  /// Last field so pre-sharding aggregate initializers stay valid.
  std::uint32_t obj = 0;
};

/// Append-only history; one recorder is shared by all simulated threads
/// (single-host-thread simulator, so no synchronization needed).
class HistoryRecorder {
 public:
  void record(OpRecord op) { ops_.push_back(op); }
  const std::vector<OpRecord>& ops() const { return ops_; }
  void clear() { ops_.clear(); }

 private:
  std::vector<OpRecord> ops_;
};

/// Sequential specification of one of the three object kinds the
/// harness records. The complete checker runs a search specialised to the
/// kind; `apply()` is the same specification over an explicit state vector,
/// for callers that run the object sequentially (generators, reference
/// checkers).
struct SeqSpec {
  enum class Object : std::uint8_t { kQueue, kStack, kCounter };
  Object object = Object::kCounter;

  /// Applies `op` (kind/arg) to `state` and returns the result the
  /// sequential object produces; every op is total. A queue treats any op
  /// but kEnq as a dequeue, a stack any op but kPush as a pop, a counter
  /// any op but kRead as an increment; a consumer on an empty object
  /// returns kNothing.
  std::uint64_t apply(std::vector<std::uint64_t>& state,
                      const OpRecord& op) const;
};

SeqSpec queue_spec();
SeqSpec stack_spec();
SeqSpec counter_spec();

struct CheckResult {
  bool ok = true;
  std::string reason;
  /// Set when a bounded complete search ran out of budget before either
  /// finding a linearization or exhausting the orders: ok is true but the
  /// history was not fully validated.
  bool inconclusive = false;
};

/// Fast, sound FIFO-queue checks on a (possibly large) history:
///  * every dequeued value was enqueued exactly once, dequeued at most once;
///  * deq(v) does not respond before enq(v) was invoked;
///  * real-time FIFO: enq(a) finishing before enq(b) starts implies deq(a)
///    cannot start strictly after deq(b) finished... i.e. b must not be
///    dequeued "entirely before" a.
CheckResult check_queue_fast(const std::vector<OpRecord>& history);

/// Fast counter checks: the multiset of returned pre-increment values of N
/// completed increments is exactly {base..base+N-1} for some base, and a
/// value cannot be returned before an increment producing it could have
/// linearized.
CheckResult check_counter_fast(const std::vector<OpRecord>& history);

/// Fast, sound stack checks (value conservation + causality): every popped
/// value was pushed exactly once and popped at most once, and a pop cannot
/// respond before its push was invoked. LIFO-order violations need the
/// complete checker (small windows).
CheckResult check_stack_fast(const std::vector<OpRecord>& history);

/// Complete linearizability check against `spec` (Wing & Gong with
/// memoization), for histories of at most 63 ops. The search is
/// exponential in the number of mutually overlapping ops: a few thousand
/// nodes settle most recorded windows, but async trains whose ops share
/// one response can need millions. `max_nodes` bounds the DFS (0 =
/// unlimited); an exhausted budget returns ok with `inconclusive` set
/// rather than guessing either way. Every node the DFS enters counts
/// against the budget, memo hits included.
CheckResult linearizable(const std::vector<OpRecord>& history,
                         const SeqSpec& spec, std::uint64_t max_nodes = 0);

}  // namespace hmps::harness
