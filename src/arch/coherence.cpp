#include "arch/coherence.hpp"

#include <bit>

namespace hmps::arch {

Cycle CoherenceModel::inval_cost(std::uint64_t sharers, Tid except) {
  const int n = std::popcount(sharers & ~bit(except));
  if (n == 0) return 0;
  ++counters_.invalidations;
  // Invalidations fan out in parallel; cost grows sub-linearly, capped.
  const int charged = n > 8 ? 8 : n;
  return p_.inval_base + p_.inval_per_sharer * static_cast<Cycle>(charged);
}

AccessCost CoherenceModel::read(Tid c, std::uint64_t addr, Cycle now) {
  const std::uint64_t ln = line_of(addr);
  Line& l = slots_[slot_of(ln)];
  if (hit(c, l, ln)) return {p_.l_hit, false};
  ++counters_.rmr_reads;
  const Cycle wait = acquire_line(l, now);
  const Tid home = l.home;
  Cycle lat = topo_.wire(c, home) + p_.dir_lookup;
  if (l.state == State::kModified) {
    // Dirty elsewhere: forward to owner, owner supplies data and downgrades.
    lat += p_.fwd_cost + topo_.wire(home, l.owner) + topo_.wire(l.owner, c) +
           p_.xfer;
    l.sharers = bit(l.owner) | bit(c);
    l.owner = sim::kNoTid;
    l.state = State::kShared;
  } else {
    // Clean at home (possibly shared): data comes from the home tile.
    lat += p_.home_mem + topo_.wire(home, c) + p_.xfer;
    l.sharers |= bit(c);
    l.state = State::kShared;
  }
  if (prof_) prof_->on_read(ln, wait + lat);
  return {wait + lat, true};
}

AccessCost CoherenceModel::write(Tid c, std::uint64_t addr, Cycle now) {
  const std::uint64_t ln = line_of(addr);
  Line& l = slots_[slot_of(ln)];
  if (l.state == State::kModified && l.owner == c) {
    ++counters_.hits;
    if (prof_) prof_->on_hit(ln);
    return {p_.l_hit, false};
  }
  ++counters_.rmr_writes;
  const Cycle wait = acquire_line(l, now);
  const Tid home = l.home;
  Cycle lat = topo_.wire(c, home) + p_.dir_lookup;
  if (l.state == State::kModified) {
    // Recall from the current owner.
    lat += p_.fwd_cost + topo_.wire(home, l.owner) + topo_.wire(l.owner, c) +
           p_.xfer;
  } else {
    lat += inval_cost(l.sharers, c) + p_.home_mem + topo_.wire(home, c) +
           p_.xfer;
  }
  l.state = State::kModified;
  l.owner = c;
  l.sharers = 0;
  if (prof_) prof_->on_write(ln, wait + lat);
  return {wait + lat, true};
}

AccessCost CoherenceModel::atomic(Tid c, std::uint64_t addr, Cycle now,
                                  AtomicKind kind, Cycle* ctrl_wait_out) {
  ++counters_.atomics;
  if (!p_.atomics_at_ctrl) {
    // x86-like: acquire ownership locally, then a locked RMW in-cache.
    AccessCost ac = write(c, addr, now);
    ac.latency += p_.atomic_local_extra;
    if (ctrl_wait_out) *ctrl_wait_out = 0;
    return ac;
  }
  // TILE-Gx-like: the operation is shipped to the line's memory controller.
  // Cached copies must be flushed/invalidated first; afterwards the line's
  // authoritative copy lives at home again.
  if (p_.noc_combining && kind == AtomicKind::kFaa) {
    // Unconditional RMWs are combinable: if an earlier same-word request is
    // in flight past a router on our route, merge into it there — the
    // request never reaches the directory or the controller, and the reply
    // peels off at the merge router on its way back (docs/MODEL.md §11).
    const auto m = combining_.try_combine(c, addr, now);
    if (m.combined) {
      if (ctrl_wait_out) *ctrl_wait_out = 0;
      if (prof_) prof_->on_atomic(line_of(addr), m.done - now);
      return {m.done - now, true};
    }
  }
  Line& l = line_at(addr);
  const Cycle wait = acquire_line(l, now);
  const std::uint32_t ctrl = l.ctrl;

  Cycle recall = 0;
  if (l.state == State::kModified) {
    recall = p_.fwd_cost + p_.xfer;  // writeback of the dirty copy
  } else if (l.state == State::kShared) {
    recall = inval_cost(l.sharers, sim::kNoTid);
  }
  l.state = State::kHome;
  l.owner = sim::kNoTid;
  l.sharers = 0;

  const Cycle op_cost = kind == AtomicKind::kFaa      ? p_.ctrl_op_faa
                        : kind == AtomicKind::kCasFail ? p_.ctrl_op_cas_fail
                                                       : p_.ctrl_op_cas;
  const Cycle to_ctrl = topo_.wire_to_ctrl(c, ctrl);
  const Cycle arrive = now + wait + recall + to_ctrl;
  Cycle& busy = ctrl_busy_until_[ctrl];
  const Cycle start = busy > arrive ? busy : arrive;
  const Cycle ctrl_wait = start - arrive;
  busy = start + op_cost;
  counters_.ctrl_wait_total += ctrl_wait;
  if (ctrl_wait_out) *ctrl_wait_out = ctrl_wait;

  const Cycle done = start + op_cost + to_ctrl;  // response trip back
  if (p_.noc_combining && kind == AtomicKind::kFaa) {
    // This request went all the way to the controller; later same-word
    // requests may merge into it anywhere along its route while its reply
    // is still outbound. The request leaves the source once the line is
    // quiesced (after line wait + recall) and the reply leaves the
    // controller when the op retires.
    combining_.register_root(c, addr, ctrl, now + wait + recall,
                             start + op_cost, done);
  }
  if (prof_) prof_->on_atomic(line_of(addr), done - now);
  return {done - now, true};
}

}  // namespace hmps::arch
