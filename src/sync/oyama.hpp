// Oyama, Taura & Yonezawa's lock-based combining (the paper's reference
// [24]; 1999): the earliest of the combining constructions. Threads that
// find the lock busy CAS-push their request onto a shared pending list; the
// lock owner repeatedly detaches the whole list with a SWAP and executes
// the requests before releasing.
//
// Compared to its successors it contends on a single list head with CAS
// (every blocked thread pushes there) — the weakness flat combining and
// CC-SYNCH later removed. Included as an extension baseline.
#pragma once

#include <cstdint>

#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class OyamaComb {
 public:
  using Fn = CsFn<Ctx>;

  explicit OyamaComb(void* obj) : obj_(obj) {}

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "OyamaComb::apply");
    SyncStats& st = stats_[tid].s;
    Node* my = &nodes_[tid];
    bool pushed = false;

    for (;;) {
      if (!pushed && ctx.load(&lock_) == 0 &&
          ctx.exchange(&lock_, std::uint64_t{1}) == 0) {
        // Owner: execute own request, then drain the pending list until it
        // stays empty, then release.
        ++st.tenures;
        const std::uint64_t ret = fn(ctx, obj_, arg);
        ++st.served;
        drain(ctx, st);
        explore_point(ctx, "oy.release");
        ctx.store(&lock_, std::uint64_t{0});
        ++st.ops;
        return ret;
      }
      if (!pushed) {
        // Publish the request on the pending list (CAS push).
        ctx.store(&my->fn, rt::to_word(fn));
        ctx.store(&my->arg, arg);
        ctx.store(&my->done, std::uint64_t{0});
        for (;;) {
          const std::uint64_t head = ctx.load(&head_);
          ctx.store(&my->next, head);
          ++st.cas_attempts;
          if (ctx.cas(&head_, head, rt::to_word(my))) break;
          ++st.cas_failures;
        }
        pushed = true;
        explore_point(ctx, "oy.pushed");
      }
      if (ctx.load(&my->done)) {
        ++st.ops;
        return ctx.load(&my->ret);
      }
      // The owner may have released without seeing our late push: if the
      // lock is free, try to become the owner and drain (our own node is
      // still in the list and will be served by ourselves).
      if (ctx.load(&lock_) == 0 &&
          ctx.exchange(&lock_, std::uint64_t{1}) == 0) {
        ++st.tenures;
        drain(ctx, st);
        ctx.store(&lock_, std::uint64_t{0});
        // Our node was in the list, so it is done now.
        ++st.ops;
        return ctx.load(&my->ret);
      }
      ctx.cpu_relax();
    }
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "OyamaComb::stats");
    return stats_[t].s;
  }

 private:
  struct alignas(rt::kCacheLine) Node {
    Word fn{0};
    Word arg{0};
    Word ret{0};
    Word done{0};
    Word next{0};  // Node*
  };

  void drain(Ctx& ctx, SyncStats& st) {
    for (;;) {
      Node* head = rt::from_word<Node>(ctx.exchange(&head_, std::uint64_t{0}));
      if (head == nullptr) return;
      // Serve the detached chain (reverse arrival order, as in the paper).
      while (head != nullptr) {
        Node* next = rt::from_word<Node>(ctx.load(&head->next));
        Fn f = rt::from_word<std::remove_pointer_t<Fn>>(ctx.load(&head->fn));
        ctx.store(&head->ret, f(ctx, obj_, ctx.load(&head->arg)));
        ctx.store(&head->done, std::uint64_t{1});
        ++st.served;
        head = next;
      }
    }
  }

  void* obj_;
  alignas(rt::kCacheLine) Word lock_{0};
  alignas(rt::kCacheLine) Word head_{0};
  Node nodes_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
};

}  // namespace hmps::sync
