// Elimination back-off stack (Shavit & Touitou; Hendler-Shavit-Yerushalmi
// style back-off). The paper's Section 5.4 notes elimination is orthogonal
// to its evaluation and that any non-elimination stack "can be used to back
// up an elimination-based stack" — this is that extension: a Treiber core
// whose contended operations divert to a collision array where concurrent
// push/pop pairs cancel out without touching the top pointer.
#pragma once

#include <cstdint>

#include "ds/stack.hpp"
#include "runtime/context.hpp"

namespace hmps::ds {

template <class Ctx>
class ElimStack {
 public:
  explicit ElimStack(std::uint32_t per_thread_nodes = 256,
                     std::uint32_t slots = 8, sim::Cycle wait = 64)
      : core_(per_thread_nodes), nslots_(slots), wait_(wait) {}

  /// Values are 32-bit (they share a slot word with protocol state).
  void push(Ctx& ctx, std::uint32_t v) {
    sync::check_tid(ctx.tid(), sync::kMaxThreads, "ElimStack::push");
    for (;;) {
      if (try_push_top(ctx, v)) return;
      if (eliminate_push(ctx, v)) {
        ++stats_[ctx.tid()].eliminations;
        return;
      }
      ctx.cpu_relax();
    }
  }

  /// Returns the popped value or kStackEmpty.
  std::uint64_t pop(Ctx& ctx) {
    sync::check_tid(ctx.tid(), sync::kMaxThreads, "ElimStack::pop");
    for (;;) {
      std::uint64_t v;
      if (try_pop_top(ctx, &v)) return v;  // value, or observed empty
      std::uint32_t got;
      if (eliminate_pop(ctx, &got)) {
        ++stats_[ctx.tid()].eliminations;
        return got;
      }
      ctx.cpu_relax();
    }
  }

  struct Stats {
    std::uint64_t eliminations = 0;
  };
  Stats& stats(std::uint32_t t) {
    sync::check_tid(t, sync::kMaxThreads, "ElimStack::stats");
    return stats_[t];
  }

 private:
  // Slot word: {state:2 | value:32}; states: empty, waiting push, taken.
  static constexpr std::uint64_t kEmptySlot = 0;
  static constexpr std::uint64_t kStatePush = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kStateTaken = std::uint64_t{2} << 62;

  static constexpr std::uint64_t pack_push(std::uint32_t v) {
    return kStatePush | v;
  }
  static constexpr bool is_push(std::uint64_t w) {
    return (w & (std::uint64_t{3} << 62)) == kStatePush;
  }
  static constexpr std::uint32_t slot_val(std::uint64_t w) {
    return static_cast<std::uint32_t>(w);
  }

  bool try_push_top(Ctx& ctx, std::uint32_t v) {
    // One attempt on the Treiber core; on CAS failure, divert.
    return core_.try_push(ctx, v);
  }

  /// On return false: if *out == kStackEmpty the stack was empty (give up),
  /// otherwise the CAS lost a race (try elimination).
  bool try_pop_top(Ctx& ctx, std::uint64_t* out) {
    return core_.try_pop(ctx, out);
  }

  bool eliminate_push(Ctx& ctx, std::uint32_t v) {
    rt::Word* slot = &slots_[ctx.rand_below(nslots_)].w;
    if (!ctx.cas(slot, kEmptySlot, pack_push(v))) return false;
    ctx.compute(wait_);  // linger for a partner
    const std::uint64_t cur = ctx.load(slot);
    if (cur == kStateTaken) {
      ctx.store(slot, kEmptySlot);  // hand the slot back
      return true;
    }
    // Cancel; if the cancel CAS fails a popper took it in the window.
    if (ctx.cas(slot, pack_push(v), kEmptySlot)) return false;
    ctx.store(slot, kEmptySlot);
    return true;
  }

  bool eliminate_pop(Ctx& ctx, std::uint32_t* out) {
    rt::Word* slot = &slots_[ctx.rand_below(nslots_)].w;
    const std::uint64_t cur = ctx.load(slot);
    if (!is_push(cur)) return false;
    if (!ctx.cas(slot, cur, kStateTaken)) return false;
    *out = slot_val(cur);
    return true;
  }

  // Treiber core with single-attempt entry points.
  class Core : public TreiberStack<Ctx> {
   public:
    using Base = TreiberStack<Ctx>;
    using Base::Base;

    bool try_push(Ctx& ctx, std::uint32_t v) {
      return Base::push_once(ctx, v);
    }
    bool try_pop(Ctx& ctx, std::uint64_t* out) {
      return Base::pop_once(ctx, out);
    }
  };

  struct alignas(rt::kCacheLine) Slot {
    rt::Word w{0};
  };
  struct alignas(rt::kCacheLine) PaddedStats : Stats {};

  Core core_;
  std::uint32_t nslots_;
  sim::Cycle wait_;
  Slot slots_[sync::kMaxThreads];
  PaddedStats stats_[sync::kMaxThreads];
};

}  // namespace hmps::ds
