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

#include <array>
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

  /// Entries of the direct-mapped lookup memo in front of the line table
  /// (line number modulo kMemoLines picks the entry).
  static constexpr std::size_t kMemoLines = 64;

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
    keys_.assign(kInitialCap, kEmptyKey);
    slots_.resize(kInitialCap);
    mask_ = kInitialCap - 1;
  }

  /// A line's cached position in the line table, for a caller that tests
  /// the same line over and over (a parked spin's poller). It stays valid
  /// until the table grows; read_hit() checks that through `gen` and
  /// refreshes a stale hint in place.
  struct LineHint {
    std::uint64_t line = 0;  ///< line_of() of the address
    std::uint32_t slot = 0;  ///< table index of the line
    std::uint32_t gen = 0;   ///< table generation `slot` belongs to
  };

  /// A hint for the line covering `addr` (creating the line if untouched).
  LineHint hint(std::uint64_t addr) {
    const std::uint64_t ln = line_of(addr);
    const std::size_t i = slot_of(ln);
    return {ln, static_cast<std::uint32_t>(i), gen_};
  }

  /// Core `c` reads the line at address `addr` at time `now`.
  AccessCost read(Tid c, std::uint64_t addr, Cycle now);

  /// The hit half of read(): if core `c` holds the line readable (M or S),
  /// counts a hit, as read() would, and returns true. Otherwise changes
  /// nothing and returns false. Costs l_hit when it hits.
  bool read_hit(Tid c, std::uint64_t addr) {
    const std::uint64_t ln = line_of(addr);
    return hit(c, slots_[slot_of(ln)], ln);
  }

  /// read_hit() for the line of hint `h`, reached through its cached slot
  /// instead of a lookup; a hint from before the last table growth is
  /// refreshed first.
  bool read_hit(Tid c, LineHint& h) {
    if (h.gen != gen_) [[unlikely]] {
      h.slot = static_cast<std::uint32_t>(slot_of(h.line));
      h.gen = gen_;
    }
    return hit(c, slots_[h.slot], h.line);
  }

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
    return now + read(c, addr, now).latency;
  }

  /// Re-asserts read-write ownership without a transaction. Models a store
  /// buffer coalescing a second store into a line whose ownership
  /// acquisition is still in flight: an interleaved remote read is ordered
  /// after the drain, so the writer keeps the line (the reader will simply
  /// miss again).
  void own_silently(Tid c, std::uint64_t addr) {
    Line& l = line_at(addr);
    l.state = State::kModified;
    l.owner = c;
    l.sharers = 0;
  }

  std::uint64_t line_of(std::uint64_t addr) const {
    return addr >> line_shift_;
  }

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
    Tid owner = sim::kNoTid;      ///< valid when kModified
    std::uint64_t sharers = 0;    ///< bitmask over cores (<= 64 cores)
    Cycle busy_until = 0;         ///< line-occupancy serialization point
    Tid home = 0;                 ///< home tile, fixed at first touch
    std::uint32_t ctrl = 0;       ///< memory controller, fixed at first touch
  };

  /// Looks up (or creates) the line covering `addr`. Home tile and memory
  /// controller are hashed from a *dense first-touch id*, not from the raw
  /// line address: simulated addresses are host pointer addresses, so
  /// hashing them directly would let ASLR move lines between homes and make
  /// simulated timings vary run to run. First-touch order is fixed by the
  /// (deterministic) simulation itself, so this keeps the TILE-Gx
  /// hash-for-home spread while making coherence timing reproducible across
  /// processes.
  Line& line_at(std::uint64_t addr) { return slots_[slot_of(line_of(addr))]; }

  /// Table index of line `ln`, inserting it on first touch. Storage is an
  /// insert-only open-addressing table (linear probing over a flat key
  /// array, values in a parallel array) behind a direct-mapped memo of
  /// recent lookups — this runs once per simulated memory operation, and
  /// the std::unordered_map it replaced was one of the hottest functions
  /// of a full sweep. The memo holds one line per entry, so a scan over up
  /// to kMemoLines consecutive lines (a server polling its clients'
  /// channels) hits it on every access. Lines are never erased, so probing
  /// needs no tombstones; slot indices change only in grow(), which clears
  /// the memo and bumps the generation that LineHint checks.
  std::size_t slot_of(std::uint64_t ln) {
    Memo& m = memo_[ln & (kMemoLines - 1)];
    if (m.line == ln) return m.slot;
    std::size_t i = probe(ln);
    if (keys_[i] != ln) {  // first touch
      if ((count_ + 1) * 2 > keys_.size()) {
        grow();
        i = probe(ln);
      }
      keys_[i] = ln;
      slots_[i] = Line{};
      slots_[i].home = topo_.home_tile(next_line_id_);
      slots_[i].ctrl = topo_.home_ctrl(next_line_id_);
      ++next_line_id_;
      ++count_;
    }
    m = {ln, i};
    return i;
  }

  /// First slot holding `key`, or the empty slot where it would insert.
  std::size_t probe(std::uint64_t key) const {
    std::size_t i =
        static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask_;
    while (keys_[i] != key && keys_[i] != kEmptyKey) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Line> old_slots = std::move(slots_);
    const std::size_t cap = old_keys.size() * 2;
    keys_.assign(cap, kEmptyKey);
    slots_.assign(cap, Line{});
    mask_ = cap - 1;
    memo_.fill(Memo{});
    ++gen_;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmptyKey) continue;
      const std::size_t i = probe(old_keys[j]);
      keys_[i] = old_keys[j];
      slots_[i] = old_slots[j];
    }
  }

  /// The read-hit predicate, shared by both read_hit() forms: `l` is line
  /// `ln`'s state.
  bool hit(Tid c, const Line& l, std::uint64_t ln) {
    if ((l.state == State::kModified && l.owner == c) ||
        (l.state == State::kShared && (l.sharers & bit(c)))) {
      ++counters_.hits;
      if (prof_) prof_->on_hit(ln);
      return true;
    }
    return false;
  }

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
  /// real line number collides with the empty-slot sentinel.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  struct Memo {
    std::uint64_t line = kEmptyKey;  ///< kEmptyKey when unused
    std::size_t slot = 0;
  };

  const MachineParams& p_;
  const MeshTopology& topo_;
  CoherenceProfiler* prof_ = nullptr;
  std::vector<std::uint64_t> keys_;  ///< open-addressing key array
  std::vector<Line> slots_;          ///< values, parallel to keys_
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
  std::array<Memo, kMemoLines> memo_;
  std::uint32_t gen_ = 1;  ///< bumped by grow(); a LineHint's 0 is never current
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes)
  std::uint64_t next_line_id_ = 0;
  Cycle ctrl_busy_until_[kMaxCtrls] = {};
  CombiningFabric combining_;
  Counters counters_;
};

}  // namespace hmps::arch
