// Uniform universal-construction surface.
//
// A universal construction (UC) executes arbitrary critical sections on a
// concurrent object in mutual exclusion: uc.apply(ctx, fn, arg) -> ret.
// MpServer, ShmServer, CcSynch and HybComb all provide this; LockUc wraps
// any of the classic locks into the same shape (executing the CS at the
// caller's core — no locality benefit, for the ablation benches).
#pragma once

#include <concepts>
#include <cstdint>

#include "sync/cs.hpp"

namespace hmps::sync {

template <class U, class Ctx>
concept UniversalConstruction = requires(U u, Ctx& ctx, CsFn<Ctx> fn,
                                         std::uint64_t arg) {
  { u.apply(ctx, fn, arg) } -> std::convertible_to<std::uint64_t>;
};

/// Lock-based universal construction: acquire, run the CS locally, release.
template <class Ctx, class Lock>
class LockUc {
 public:
  using Fn = CsFn<Ctx>;

  explicit LockUc(void* obj) : obj_(obj) {}

  /// A thread id past the per-thread pools dies in the lock's own check
  /// (MCS, CLH, ticket) or, for the pool-free TAS/TTAS, in stats().
  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    lock_.lock(ctx);
    const std::uint64_t ret = fn(ctx, obj_, arg);
    lock_.unlock(ctx);
    ++stats(ctx.tid()).ops;
    return ret;
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "LockUc::stats");
    return stats_[t].s;
  }

 private:
  void* obj_;
  Lock lock_;
  PaddedStats stats_[kMaxThreads];
};

}  // namespace hmps::sync
