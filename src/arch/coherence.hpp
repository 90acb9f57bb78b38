// Functional-timing directory cache-coherence model.
//
// The model maintains, per 64-byte line, the single-writer/multiple-reader
// invariant of Sorin et al. (the system model of the paper, Section 2):
// at any time either one core owns the line read-write (M) or a set of cores
// shares it read-only (S), with the authoritative copy otherwise at the
// line's home tile (H).
//
// There are no transient states: each access atomically updates the line
// state and returns the latency the requesting core observes. Per-line
// occupancy serializes back-to-back transactions on a hot line, which is
// what bounds the throughput of ping-ponging flags and contended CAS words.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "arch/combining.hpp"
#include "arch/params.hpp"
#include "arch/profiler.hpp"
#include "arch/topology.hpp"
#include "sim/types.hpp"

namespace hmps::sim {
class Scheduler;
}  // namespace hmps::sim

namespace hmps::arch {

using sim::Cycle;
using sim::Tid;

/// Atomic operation class: unconditional RMWs (fetch-and-add, exchange)
/// stream through the controller's update pipeline; CAS holds a slot for
/// its read-compare-write and is far more expensive under contention (the
/// false serialization of paper Section 5.4).
enum class AtomicKind { kFaa, kCasSuccess, kCasFail };

/// Per-access classification, used for core stall accounting and event
/// counters (Fig. 4a reproduces the stall share from these).
struct AccessCost {
  Cycle latency = 0;   ///< total cycles until the value is usable
  bool remote = false; ///< true iff this access was an RMR
};

class CoherenceModel {
 public:
  /// Memory controllers with their own busy timeline. More would need a
  /// wider table; machines are rejected instead of folding two controllers
  /// onto one timeline.
  static constexpr std::uint32_t kMaxCtrls = 8;

  /// Supported line sizes: powers of two in [kMinLineBytes, kMaxLineBytes].
  /// A power of two makes line_of() a shift. The upper bound is the host
  /// alignment of simulated arenas (rt::kCacheLine): a larger line would
  /// pack words into lines by the host allocation base, which ASLR moves.
  static constexpr std::uint32_t kMinLineBytes = 8;
  static constexpr std::uint32_t kMaxLineBytes = 64;
  static constexpr bool valid_line_bytes(std::uint32_t b) {
    return std::has_single_bit(b) && b >= kMinLineBytes && b <= kMaxLineBytes;
  }

  CoherenceModel(const MachineParams& p, const MeshTopology& topo)
      : p_(p), topo_(topo), combining_(p, topo) {
    if (p.n_mem_ctrls < 1 || p.n_mem_ctrls > kMaxCtrls) [[unlikely]] {
      std::fprintf(stderr,
                   "hmps fatal: CoherenceModel: n_mem_ctrls = %u is outside "
                   "the supported range [1, %u]\n",
                   static_cast<unsigned>(p.n_mem_ctrls),
                   static_cast<unsigned>(kMaxCtrls));
      std::abort();
    }
    if (!valid_line_bytes(p.line_bytes)) [[unlikely]] {
      std::fprintf(stderr,
                   "hmps fatal: CoherenceModel: line_bytes = %u is not a "
                   "power of two in [%u, %u]\n",
                   static_cast<unsigned>(p.line_bytes),
                   static_cast<unsigned>(kMinLineBytes),
                   static_cast<unsigned>(kMaxLineBytes));
      std::abort();
    }
    line_shift_ = static_cast<std::uint32_t>(std::countr_zero(p.line_bytes));
    index_.assign(kInitialCap, Entry{});
    lines_.reserve(kInitialCap / 2);
    mask_ = kInitialCap - 1;
  }

  /// A line and its id, for a caller that tests the same line over and
  /// over (a parked spin's poller): it reaches the line's state without a
  /// lookup. Ids never change, so a hint stays valid for the model's life.
  struct LineHint {
    std::uint64_t line = 0;  ///< line_of() of the address
    std::uint32_t id = 0;    ///< the line's id (see id_of)
  };

  /// A hint for the line covering `addr` (creating the line if untouched).
  LineHint hint(std::uint64_t addr) {
    const std::uint64_t ln = line_of(addr);
    return {ln, id_of(ln)};
  }

  /// Core `c` reads the line at address `addr` at time `now`.
  AccessCost read(Tid c, std::uint64_t addr, Cycle now);

  /// The hit half of read(): if core `c` holds the line readable (M or S),
  /// counts a hit, as read() would, and returns true. Otherwise changes
  /// nothing and returns false. Costs l_hit when it hits.
  bool read_hit(Tid c, std::uint64_t addr) {
    const std::uint64_t ln = line_of(addr);
    return hit(c, lines_[id_of(ln)], ln);
  }

  /// read_hit() for the line of hint `h`, reached by its id instead of a
  /// lookup.
  bool read_hit(Tid c, const LineHint& h) {
    return hit(c, lines_[h.id], h.line);
  }

  /// Whether core `c` holds the line of hint `h` readable, counting
  /// nothing: the state a hit test would find.
  bool readable(Tid c, const LineHint& h) const {
    return readable(c, lines_[h.id]);
  }

  /// Marks the line of hint `h` watched: from now on every write, atomic,
  /// silent ownership and prefetch of it calls the attached scheduler's
  /// notify(line) (see attach_watchers), until one finds no watcher left.
  void watch(const LineHint& h) { lines_[h.id].watched = true; }

  /// The scheduler whose parked pollers watch lines (Scheduler::notify).
  void attach_watchers(sim::Scheduler* s) { watchers_ = s; }

  /// Counts `k` read hits that parked pollers took at once (a poll group's
  /// check step; see Scheduler::PollGroupOps).
  void count_hits(std::uint64_t k) { counters_.hits += k; }

  /// Core `c` writes the line (acquires read-write ownership).
  AccessCost write(Tid c, std::uint64_t addr, Cycle now);

  /// Core `c` executes an atomic RMW on the line. With atomics_at_ctrl the
  /// operation is shipped to the line's memory controller (TILE-Gx);
  /// otherwise it behaves as a write plus a local RMW penalty (x86-like).
  /// `ctrl_wait_out`, if non-null, receives the queueing delay spent waiting
  /// for the controller (false-serialization metric).
  AccessCost atomic(Tid c, std::uint64_t addr, Cycle now,
                    AtomicKind kind = AtomicKind::kCasSuccess,
                    Cycle* ctrl_wait_out = nullptr);

  /// Non-binding prefetch: performs the read transaction so a subsequent
  /// read hits, and reports when the data will have arrived.
  Cycle prefetch(Tid c, std::uint64_t addr, Cycle now) {
    // The prefetch slot is part of a parked spinner's hit test.
    notify(line_at(addr), line_of(addr));
    return now + read(c, addr, now).latency;
  }

  /// Re-asserts read-write ownership without a transaction. Models a store
  /// buffer coalescing a second store into a line whose ownership
  /// acquisition is still in flight: an interleaved remote read is ordered
  /// after the drain, so the writer keeps the line (the reader will simply
  /// miss again).
  void own_silently(Tid c, std::uint64_t addr) {
    Line& l = line_at(addr);
    notify(l, line_of(addr));
    l.state = State::kModified;
    l.owner = c;
    l.sharers = 0;
  }

  std::uint64_t line_of(std::uint64_t addr) const {
    return addr >> line_shift_;
  }

  /// Lines touched so far.
  std::size_t lines() const { return lines_.size(); }

  // --- event counters (global; reset per measurement window) ---
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t rmr_reads = 0;
    std::uint64_t rmr_writes = 0;
    std::uint64_t atomics = 0;
    std::uint64_t invalidations = 0;
    Cycle ctrl_wait_total = 0;
  };
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

  /// In-network combining fabric (active iff params.noc_combining; its
  /// counters stay zero otherwise). Exposed for metrics and tests.
  const CombiningFabric& combining() const { return combining_; }
  void reset_combining_counters() { combining_.reset_counters(); }

  /// Attaches a hot-line profiler (nullptr detaches). Not owned. The
  /// profiler's label() divisor is synced to this machine's line size so
  /// labels land on the same lines the model accounts to.
  void attach_profiler(CoherenceProfiler* p) {
    prof_ = p;
    if (p) p->set_line_bytes(p_.line_bytes);
  }
  CoherenceProfiler* profiler() { return prof_; }

 private:
  enum class State : std::uint8_t { kHome, kShared, kModified };

  struct Line {
    State state = State::kHome;
    bool watched = false;         ///< see watch(); fills padding
    Tid owner = sim::kNoTid;      ///< valid when kModified
    std::uint64_t sharers = 0;    ///< bitmask over cores (<= 64 cores)
    Cycle busy_until = 0;         ///< line-occupancy serialization point
    Tid home = 0;                 ///< home tile, fixed at first touch
    std::uint32_t ctrl = 0;       ///< memory controller, fixed at first touch
  };

  /// Looks up (or creates) the line covering `addr`.
  Line& line_at(std::uint64_t addr) { return lines_[id_of(line_of(addr))]; }

  /// Id of line `ln`, assigned on first touch: lines are numbered densely
  /// in first-touch order and never move, and the id indexes lines_. Home
  /// tile and memory controller are hashed from the id, not from the raw
  /// line address: simulated addresses are host pointer addresses, so
  /// hashing them directly would let ASLR move lines between homes and make
  /// simulated timings vary run to run. First-touch order is fixed by the
  /// (deterministic) simulation itself, so this keeps the TILE-Gx
  /// hash-for-home spread while making coherence timing reproducible across
  /// processes. The index is an insert-only open-addressing table (linear
  /// probing over flat {line, id} entries) — this runs once per simulated
  /// memory operation, and the std::unordered_map it replaced was one of
  /// the hottest functions of a full sweep. Lines are never erased, so
  /// probing needs no tombstones.
  std::uint32_t id_of(std::uint64_t ln) {
    std::size_t i = probe(ln);
    if (index_[i].key != ln) {  // first touch
      if ((lines_.size() + 1) * 2 > index_.size()) {
        grow();
        i = probe(ln);
      }
      const auto id = static_cast<std::uint32_t>(lines_.size());
      index_[i] = {ln, id};
      Line& l = lines_.emplace_back();
      l.home = topo_.home_tile(id);
      l.ctrl = topo_.home_ctrl(id);
    }
    return index_[i].id;
  }

  /// First entry holding `key`, or the empty entry where it would insert.
  std::size_t probe(std::uint64_t key) const {
    std::size_t i =
        static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask_;
    while (index_[i].key != key && index_[i].key != kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  /// Doubles the index (rehashing its entries; no line moves) and reserves
  /// lines_ up to the new load limit, so first touches between two growths
  /// allocate nothing.
  void grow() {
    std::vector<Entry> old = std::move(index_);
    index_.assign(old.size() * 2, Entry{});
    mask_ = index_.size() - 1;
    for (const Entry& e : old) {
      if (e.key != kEmptyKey) index_[probe(e.key)] = e;
    }
    lines_.reserve(index_.size() / 2);
  }

  static bool readable(Tid c, const Line& l) {
    return (l.state == State::kModified && l.owner == c) ||
           (l.state == State::kShared && (l.sharers & bit(c)));
  }

  /// The read-hit predicate, shared by both read_hit() forms: `l` is line
  /// `ln`'s state.
  bool hit(Tid c, const Line& l, std::uint64_t ln) {
    if (readable(c, l)) {
      ++counters_.hits;
      if (prof_) prof_->on_hit(ln);
      return true;
    }
    return false;
  }

  /// Tells the watchers of line `ln` (state `l`) that it changes, if it is
  /// watched; a line nobody watches any more drops its mark.
  void notify(Line& l, std::uint64_t ln) {
    if (l.watched) [[unlikely]] l.watched = notify_watchers(ln);
  }
  bool notify_watchers(std::uint64_t ln);

  static constexpr std::uint64_t bit(Tid c) {
    return std::uint64_t{1} << (c % 64);
  }

  /// Serializes on the line and returns the queueing delay.
  Cycle acquire_line(Line& l, Cycle now) {
    const Cycle wait = l.busy_until > now ? l.busy_until - now : 0;
    l.busy_until = now + wait + p_.line_occupancy;
    return wait;
  }

  Cycle inval_cost(std::uint64_t sharers, Tid except);

  static constexpr std::size_t kInitialCap = 1024;  ///< power of two
  /// Host pointers are never within a line of the address-space top, so no
  /// real line number collides with the empty-entry sentinel.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  struct Entry {
    std::uint64_t key = kEmptyKey;  ///< a line number, or kEmptyKey
    std::uint32_t id = 0;
  };

  static_assert(sizeof(Line) == 32);

  const MachineParams& p_;
  const MeshTopology& topo_;
  CoherenceProfiler* prof_ = nullptr;
  sim::Scheduler* watchers_ = nullptr;
  std::vector<Entry> index_;  ///< line number -> id (see id_of)
  std::vector<Line> lines_;   ///< by id, in first-touch order
  std::size_t mask_ = 0;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes)
  Cycle ctrl_busy_until_[kMaxCtrls] = {};
  CombiningFabric combining_;
  Counters counters_;
};

}  // namespace hmps::arch
