// The list-combining constructions of Fatourou & Kallimanis (PPoPP'12) on
// one core:
//
// CC-SYNCH, the most efficient known pure-shared-memory combining
// construction and the paper's main baseline (Section 3). Threads append
// their request node to a logical list with a SWAP on the tail and spin
// locally on their predecessor node's `wait` flag. The thread at the head
// becomes the combiner: it walks the list executing up to MAX_OPS requests,
// then hands the combiner role to the next waiting thread by clearing its
// `wait` flag without setting `completed`. While combining, each served node
// costs the combiner one RMR to read the request (dirty in the requester's
// cache) and one to publish the response — the same two coherence stalls as
// SHM-SERVER (Fig. 1), which is why both plateau together in Fig. 3a.
//
// H-SYNCH, hierarchical combining for clustered machines: threads combine
// within their cluster exactly as in CC-SYNCH, and a cluster's combiner
// takes a global MCS lock around its walk, so request/response traffic stays
// cluster-local and only combiners cross clusters. A cluster is a block of 6
// thread ids, standing in for a NUMA node; it equals a mesh row only on the
// 6x6 TILE-Gx with thread i placed on core i % cores.
//
// DSM-SYNCH (the paper's reference [11], Algorithm 2), CC-SYNCH's sibling
// for machines without efficient remote spinning: each thread posts its
// request in its OWN node (two per thread, toggled) and spins on it, at the
// cost of one CAS on the tail when the combiner finds the list drained. On
// the simulated cache-coherent mesh it behaves like CC-SYNCH with slightly
// higher combiner costs, matching the original paper's findings on CC
// machines.
//
// H-SYNCH and DSM-SYNCH are extension baselines (ext_combiners) completing
// the combining-construction family.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"
#include "sync/locks.hpp"

namespace hmps::sync {

/// The outer lock of a list combiner that takes none.
template <class Ctx>
struct NoLock {
  void lock(Ctx&) {}
  void unlock(Ctx&) {}
};

/// A list combiner's names (static storage duration). A null exploration
/// point is not taken.
struct ListNames {
  const char* cls;                ///< class name for check_tid
  const char* enqueue;            ///< point before the tail SWAP
  const char* lock = nullptr;     ///< point before the outer lock
  const char* handoff = nullptr;  ///< point before the combiner's exit
  const char* acquire;            ///< span: enqueue to served or combining
  const char* combine;            ///< span: the combiner's walk
  const char* cs;                 ///< span: one critical section it serves
};

/// One combining list over `Policy`, which holds properties of the
/// algorithm only:
///   kOwnNode     a request lives in the thread's own node, which it spins
///                on; the combiner serves a node before advancing and
///                leaves with a CAS on the tail when the list is drained.
///                Otherwise a request lives in the predecessor's node,
///                taken over for the next call, and the combiner advances
///                before serving and always hands off.
///   Lock<Ctx>    taken around the combiner's walk.
///   kClusterSize thread ids per tail.
///   kNames       ListNames.
template <class Ctx, class Policy>
class ListCombiner {
  static constexpr bool kOwnNode = Policy::kOwnNode;
  static constexpr std::uint32_t kClusters =
      (kMaxThreads + Policy::kClusterSize - 1) / Policy::kClusterSize;
  static constexpr ListNames kNames = Policy::kNames;
  using Lock = typename Policy::template Lock<Ctx>;

 public:
  using Fn = CsFn<Ctx>;

  explicit ListCombiner(void* obj, std::uint32_t max_ops = 200)
      : obj_(obj), max_ops_(max_ops) {
    // Without own nodes each tail starts at a dummy node, neither waiting
    // nor completed: the first thread to enqueue behind it combines at once.
    if constexpr (!kOwnNode) {
      for (std::uint32_t cl = 0; cl < kClusters; ++cl) {
        tails_[cl].w.store(rt::to_word(&pool_[kMaxThreads + cl]),
                           std::memory_order_relaxed);
      }
    }
    for (std::uint32_t t = 0; t < kMaxThreads; ++t) {
      my_[t] = kOwnNode ? PerThread{&pool_[2 * t], &pool_[2 * t + 1]}
                        : PerThread{&pool_[t], nullptr};
    }
  }

  /// Fixed-combiner mode (Fig. 4a): the first combiner never hands off and
  /// waits for work instead. It needs a walk that can wait on the next
  /// node, one list for every thread and no outer lock.
  ListCombiner(void* obj, std::uint32_t max_ops, bool fixed_combiner)
    requires(!kOwnNode && kClusters == 1 && std::is_same_v<Lock, NoLock<Ctx>>)
      : ListCombiner(obj, max_ops) {
    fixed_ = fixed_combiner;
  }

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, kNames.cls, "apply");
    SyncStats& st = stats_[tid].s;
    PerThread& me = my_[tid];
    obs::Span<Ctx> acquire(ctx, kNames.acquire);
    Node* mine = me.node;
    ctx.store(&mine->next, std::uint64_t{0});
    ctx.store(&mine->wait, std::uint64_t{1});
    ctx.store(&mine->completed, std::uint64_t{0});
    if constexpr (kOwnNode) post(ctx, mine, fn, arg);

    point(ctx, kNames.enqueue);
    Word* tail = &tails_[tid / Policy::kClusterSize].w;
    Node* pred = rt::from_word<Node>(ctx.exchange(tail, rt::to_word(mine)));
    Node* req = kOwnNode ? mine : pred;  // the node holding our request
    me.node = kOwnNode ? std::exchange(me.spare, mine) : pred;
    if constexpr (!kOwnNode) post(ctx, pred, fn, arg);
    if (pred != nullptr) {  // null only for an own node on an empty list
      ctx.store(&pred->next, rt::to_word(mine));
      ctx.spin_until(&req->wait, [](std::uint64_t v) { return v == 0; });
    }
    acquire.finish();
    ++st.ops;
    if (pred != nullptr && ctx.load(&req->completed)) {
      return ctx.load(&req->ret);  // a combiner executed it for us
    }

    // We are the combiner. Serve the list starting from our own request.
    obs::Span<Ctx> combine(ctx, kNames.combine);
    ++st.tenures;
    point(ctx, kNames.lock);
    lock_.lock(ctx);
    std::uint32_t n = 0;  // requests served this tenure
    Node* tmp = req;
    for (;;) {
      if constexpr (kOwnNode) serve(ctx, tmp, st, n);
      Node* next = rt::from_word<Node>(ctx.load(&tmp->next));
      if (next == nullptr && fixed_) {
        ctx.cpu_relax();  // fixed-combiner mode: wait for work
        continue;
      }
      if (next == nullptr || (!fixed_ && n >= max_ops_)) break;
      ctx.prefetch(next);  // overlap the next node fetch with this CS
      if constexpr (!kOwnNode) serve(ctx, tmp, st, n);
      tmp = next;
    }
    lock_.unlock(ctx);
    point(ctx, kNames.handoff);
    Node* heir = tmp;  // without own nodes, the first unserved request
    if constexpr (kOwnNode) {
      if (ctx.load(&tmp->next) == 0) {
        ++st.cas_attempts;
        if (ctx.cas(tail, rt::to_word(tmp), std::uint64_t{0})) {
          return ctx.load(&req->ret);  // list drained and detached
        }
        ++st.cas_failures;
        // A successor is linking itself in; wait for the pointer.
        ctx.spin_until(&tmp->next, [](std::uint64_t v) { return v != 0; });
      }
      heir = rt::from_word<Node>(ctx.load(&tmp->next));
    }
    // Hand the combiner role over (completed stays 0).
    ctx.store(&heir->wait, std::uint64_t{0});
    return ctx.load(&req->ret);
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, kNames.cls, "stats");
    return stats_[t].s;
  }

 private:
  struct alignas(rt::kCacheLine) Node {
    Word fn{0};
    Word arg{0};
    Word ret{0};
    Word wait{0};
    Word completed{0};
    Word next{0};
  };
  static_assert(sizeof(Node) == rt::kCacheLine);

  struct alignas(rt::kCacheLine) PaddedWord {
    Word w{0};
  };
  struct alignas(rt::kCacheLine) PerThread {
    Node* node = nullptr;   ///< the node the next call enqueues
    Node* spare = nullptr;  ///< an own node's toggle partner
  };

  static void point(Ctx& ctx, const char* where) {
    if (where != nullptr) explore_point(ctx, where);
  }

  static void post(Ctx& ctx, Node* n, Fn fn, std::uint64_t arg) {
    ctx.store(&n->fn, rt::to_word(fn));
    ctx.store(&n->arg, arg);
  }

  /// Executes the request in `r`, releases its owner and counts it in the
  /// stats and in the tenure's `n`.
  void serve(Ctx& ctx, Node* r, SyncStats& st, std::uint32_t& n) {
    obs::Span<Ctx> cs(ctx, kNames.cs);
    Fn f = rt::from_word<std::remove_pointer_t<Fn>>(ctx.load(&r->fn));
    const std::uint64_t a = ctx.load(&r->arg);
    ctx.store(&r->ret, f(ctx, obj_, a));
    ctx.store(&r->completed, std::uint64_t{1});
    ctx.store(&r->wait, std::uint64_t{0});
    ++st.served;
    ++n;
  }

  void* obj_;
  std::uint32_t max_ops_;
  bool fixed_ = false;
  Lock lock_;
  // Own nodes: two per thread. Otherwise one per thread plus a dummy per
  // tail.
  Node pool_[kOwnNode ? 2 * kMaxThreads : kMaxThreads + kClusters];
  PaddedWord tails_[kClusters];
  PerThread my_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
};

struct CcSynchPolicy {
  static constexpr bool kOwnNode = false;
  template <class Ctx>
  using Lock = NoLock<Ctx>;
  static constexpr std::uint32_t kClusterSize = kMaxThreads;
  static constexpr ListNames kNames = {
      .cls = "CcSynch", .enqueue = "cc.enqueue", .handoff = "cc.handoff",
      .acquire = "cc.acquire", .combine = "cc.combine", .cs = "cc.cs"};
};

struct HSynchPolicy {
  static constexpr bool kOwnNode = false;
  template <class Ctx>
  using Lock = McsLock<Ctx>;
  static constexpr std::uint32_t kClusterSize = 6;
  static constexpr ListNames kNames = {
      .cls = "HSynch", .enqueue = "hs.enqueue", .lock = "hs.global_lock",
      .acquire = "hs.acquire", .combine = "hs.combine", .cs = "hs.cs"};
};

struct DsmSynchPolicy {
  static constexpr bool kOwnNode = true;
  template <class Ctx>
  using Lock = NoLock<Ctx>;
  static constexpr std::uint32_t kClusterSize = kMaxThreads;
  static constexpr ListNames kNames = {
      .cls = "DsmSynch", .enqueue = "dsm.enqueue", .handoff = "dsm.terminate",
      .acquire = "dsm.acquire", .combine = "dsm.combine", .cs = "dsm.cs"};
};

template <class Ctx>
using CcSynch = ListCombiner<Ctx, CcSynchPolicy>;
template <class Ctx>
using HSynch = ListCombiner<Ctx, HSynchPolicy>;
template <class Ctx>
using DsmSynch = ListCombiner<Ctx, DsmSynchPolicy>;

}  // namespace hmps::sync
