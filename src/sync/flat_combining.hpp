// Flat combining (Hendler, Incze, Shavit, Tzafrir — the paper's reference
// [13]): the original combining construction. Threads publish requests in
// per-thread publication records; whoever acquires the (TTAS) lock scans
// the publication array and executes every pending request, then releases.
//
// Compared to CC-SYNCH, the combiner pays a full scan over all publication
// records per pass (including inactive ones), which is why CC-SYNCH
// superseded it; included here as an extension baseline.
#pragma once

#include <cstdint>

#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class FlatCombining {
 public:
  using Fn = CsFn<Ctx>;

  /// `max_passes`: combining passes per lock tenure.
  FlatCombining(void* obj, std::uint32_t max_threads = kMaxThreads,
                std::uint32_t max_passes = 4)
      : obj_(obj), nrecs_(max_threads), passes_(max_passes) {
    // The publication array is fixed; a larger max_threads would make the
    // combiner scan past it.
    check_tid(max_threads ? max_threads - 1 : 0, kMaxThreads,
              "FlatCombining (max_threads)");
  }

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "FlatCombining::apply");
    SyncStats& st = stats_[tid].s;
    Record& my = recs_[tid];
    const std::uint64_t seq = ++my_seq_[tid].v;
    ctx.store(&my.arg, arg);
    ctx.store(&my.fn, rt::to_word(fn));
    explore_point(ctx, "fc.publish");
    ctx.store(&my.req_seq, seq);  // publish

    for (;;) {
      if (ctx.load(&my.done_seq) == seq) {
        ++st.ops;
        return ctx.load(&my.ret);
      }
      // TTAS acquisition attempt.
      if (ctx.load(&lock_) == 0 &&
          ctx.exchange(&lock_, std::uint64_t{1}) == 0) {
        ++st.tenures;
        for (std::uint32_t pass = 0; pass < passes_; ++pass) {
          bool found = false;
          for (std::uint32_t i = 0; i < nrecs_; ++i) {
            Record& r = recs_[i];
            const std::uint64_t rs = ctx.load(&r.req_seq);
            if (rs != ctx.load(&r.done_seq)) {
              Fn f = rt::from_word<std::remove_pointer_t<Fn>>(
                  ctx.load(&r.fn));
              ctx.store(&r.ret, f(ctx, obj_, ctx.load(&r.arg)));
              ctx.store(&r.done_seq, rs);
              ++st.served;
              found = true;
            }
          }
          if (!found) break;
        }
        explore_point(ctx, "fc.release");
        ctx.store(&lock_, std::uint64_t{0});
        // Our own record was served during the pass.
        ++st.ops;
        return ctx.load(&my.ret);
      }
      ctx.cpu_relax();
    }
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "FlatCombining::stats");
    return stats_[t].s;
  }

 private:
  struct alignas(rt::kCacheLine) Record {
    Word fn{0};
    Word arg{0};
    Word ret{0};
    Word req_seq{0};
    Word done_seq{0};
  };
  struct alignas(rt::kCacheLine) PaddedSeq {
    std::uint64_t v = 0;
  };

  void* obj_;
  std::uint32_t nrecs_;
  std::uint32_t passes_;
  alignas(rt::kCacheLine) Word lock_{0};
  Record recs_[kMaxThreads];
  PaddedSeq my_seq_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
};

}  // namespace hmps::sync
