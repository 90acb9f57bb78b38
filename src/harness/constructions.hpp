// The harness's one construction registry (DESIGN.md S21).
//
// Every driver (closed loop, open-loop service, history recording) picks a
// construction by a public enum (Approach, QueueImpl, StackImpl,
// Construction) and maps it to a registry Kind; the run frame
// (harness/driver.hpp) calls with_construction(kind, params, ex, body): one
// switch builds only the selected construction and hands it to a generic
// body. Every entry exposes the same client call, uc.apply(ctx, fn, arg)
// with a CS body and a 64-bit argument, Synch-Framework's single ApplyOp
// seam. The few entries that are not universal constructions over one
// object get a small adapter: the two-server queue, the opcode hub, the
// sharded fleet, and the LCRQ / Treiber / elimination-stack structures
// (these map the CS body they are handed onto their own operations). What
// else an entry offers comes from its type through `requires`: a server
// loop (serve), async tickets (apply_async/wait), per-thread stats and a
// backlog gauge for telemetry.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <vector>

#include "ds/counter.hpp"
#include "ds/elim_stack.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "harness/record.hpp"
#include "harness/workload.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/flat_combining.hpp"
#include "sync/hybcomb.hpp"
#include "sync/locks.hpp"
#include "sync/oyama.hpp"
#include "sync/sharded.hpp"
#include "sync/shm_server.hpp"
#include "sync/universal.hpp"
#include "sync/vlink_server.hpp"

namespace hmps::harness::reg {

using rt::SimCtx;
using rt::SimExecutor;
using Fn = sync::CsFn<SimCtx>;

/// Every construction a driver can build: the union of the public enums.
enum class Kind : std::uint8_t {
  kMpServer,
  kHybComb,
  kHybCombSwap,     ///< HybComb registering combiners with SWAP, not CAS
  kHybCombNoDrain,  ///< HybComb without the eager drain before closing
  kShmServer,
  kCcSynch,
  kDsmSynch,
  kFlatCombining,
  kHSynch,
  kOyama,
  kMcsLock,
  kClhLock,
  kTicketLock,
  kTasLock,
  kTtasLock,
  kMpServerHub,
  kVlink,
  kSharded,       ///< ShardedServer fleet over an object farm
  kMpServerPair,  ///< Fig. 5a two-lock queue: enqueue and dequeue servers
  kLcrq,
  kTreiber,
  kElimStack,
};

Kind kind_of(Approach a);
Kind kind_of(Construction c);

/// A public enum value's row in a registry table: {value, name, kind}.
template <class E>
struct Row {
  E value;
  const char* name;
  Kind kind;
};

/// The row of `v`, or nullptr for a value outside the enum.
template <class E, std::size_t N>
const Row<E>* find_row(const Row<E> (&rows)[N], E v) {
  for (const Row<E>& r : rows) {
    if (r.value == v) return &r;
  }
  return nullptr;
}

/// Display name of `v` ("?" outside the enum).
template <class E, std::size_t N>
const char* name_of(const Row<E> (&rows)[N], E v) {
  const Row<E>* r = find_row(rows, v);
  return r != nullptr ? r->name : "?";
}

/// Registry kind of `v`; dies with a diagnosis on a value outside the enum
/// (a silently skipped enumerator once ran a bench with no server thread).
template <class E, std::size_t N>
Kind row_kind(const Row<E> (&rows)[N], E v, const char* where,
              const char* enum_name) {
  const Row<E>* r = find_row(rows, v);
  if (r == nullptr) [[unlikely]] {
    std::fprintf(stderr, "hmps fatal: %s: unhandled %s %d\n", where,
                 enum_name, static_cast<int>(v));
    std::abort();
  }
  return r->kind;
}

/// What a construction is built with. Each driver fills what its entries
/// read; the defaults build every entry in its plain configuration.
struct Params {
  void* obj = nullptr;          ///< CS object (kSharded: the farm array)
  std::uint64_t max_ops = 200;  ///< combining MAX_OPS (FC: passes x2)
  bool fixed_combiner = false;  ///< HybComb / CC-Synch Fig. 4a variant
  std::uint64_t max_inflight = 0;  ///< Section 6 overflow guard
  sim::Cycle stall_timeout = 0;    ///< HybComb combiner-stall knob
  std::uint64_t hyb_bug_drop_every = 0;  ///< exploration selftest defect
  std::uint32_t shm_depth = 0;   ///< ShmServer async slots per client
  std::uint32_t lcrq_order = 7;  ///< LCRQ ring size log2
  std::uint32_t lcrq_rings = 8192;
  std::uint32_t shards = 1;      ///< kSharded fleet size
  std::uint64_t objects = 1;     ///< kSharded farm size (dense ids)
  bool transfers = false;        ///< kSharded: queue farm, transfer hooks on
};

// ---- object farms (docs/SERVICE.md, docs/SHARDING.md) ----
//
// A farm is an array of one sequential object type, one object per cache
// line. Farm CS bodies follow sync::ShardedServer::pack_obj_arg: object
// index in the high half of the argument, the op's own 32-bit argument in
// the low half.

/// An owned farm, type-erased for Params::obj.
using FarmPtr = std::shared_ptr<void>;

/// `n` objects built in place, each from `args` (queue and stack nodes
/// self-reference, so farm objects never move).
template <class T, class... Args>
FarmPtr make_farm(std::uint64_t n, const Args&... args) {
  T* f = std::allocator<T>().allocate(n);
  for (std::uint64_t i = 0; i < n; ++i) new (f + i) T(args...);
  return FarmPtr(f, [n](void* p) {
    for (std::uint64_t i = n; i-- > 0;) static_cast<T*>(p)[i].~T();
    std::allocator<T>().deallocate(static_cast<T*>(p), n);
  });
}

template <class T>
T* farm_at(void* farm, std::uint64_t a) {
  return static_cast<T*>(farm) + (a >> 32);
}
inline std::uint64_t farm_inc(SimCtx& c, void* f, std::uint64_t a) {
  return ds::counter_inc<SimCtx>(c, farm_at<ds::SeqCounter>(f, a), 0);
}
inline std::uint64_t farm_get(SimCtx& c, void* f, std::uint64_t a) {
  return ds::counter_get<SimCtx>(c, farm_at<ds::SeqCounter>(f, a), 0);
}
inline std::uint64_t farm_enq(SimCtx& c, void* f, std::uint64_t a) {
  return ds::q_enqueue<SimCtx>(c, farm_at<ds::SeqQueue>(f, a),
                               a & 0xFFFFFFFFu);
}
inline std::uint64_t farm_deq(SimCtx& c, void* f, std::uint64_t a) {
  return ds::q_dequeue<SimCtx>(c, farm_at<ds::SeqQueue>(f, a), 0);
}
inline std::uint64_t farm_push(SimCtx& c, void* f, std::uint64_t a) {
  return ds::s_push<SimCtx>(c, farm_at<ds::SeqStack>(f, a), a & 0xFFFFFFFFu);
}
inline std::uint64_t farm_pop(SimCtx& c, void* f, std::uint64_t a) {
  return ds::s_pop<SimCtx>(c, farm_at<ds::SeqStack>(f, a), 0);
}
/// Names a fleet's queue_transfer(src = a >> 32, dst = low half); the fleet
/// routes it to its transfer path, so it never runs as a CS.
inline std::uint64_t farm_transfer(SimCtx&, void*, std::uint64_t) {
  std::fprintf(stderr,
               "hmps fatal: reg::farm_transfer: a transfer reached a "
               "critical section (only a sharded fleet routes transfers)\n");
  std::abort();
}

// ---- adapters onto the one call surface ----

/// Fig. 5a's two-lock queue: enqueues go to server 0 and dequeues to
/// server 1, each running the fenced body of its end of the queue.
class MpServerPair {
 public:
  MpServerPair(void* queue, std::uint64_t max_inflight)
      : enq_(0, queue, max_inflight), deq_(1, queue, max_inflight) {}

  std::uint32_t servers() const { return 2; }
  void serve(SimCtx& ctx, std::uint32_t s) {
    (s == 0 ? enq_ : deq_).serve(ctx);
  }
  void request_stop(SimCtx& ctx) {
    enq_.request_stop(ctx);
    deq_.request_stop(ctx);
  }
  std::uint64_t apply(SimCtx& ctx, Fn fn, std::uint64_t arg) {
    return fn == &ds::q_enqueue<SimCtx>
               ? enq_.apply(ctx, &ds::q_enqueue_fenced<SimCtx>, arg)
               : deq_.apply(ctx, &ds::q_dequeue_fenced<SimCtx>, arg);
  }
  sync::SyncStats stats(rt::Tid t) {
    sync::SyncStats s = enq_.stats(t);
    s.add(deq_.stats(t));
    return s;
  }

 private:
  sync::MpServer<SimCtx> enq_, deq_;
};

/// MP-SERVER-HUB: every CS body a driver issues is registered up front
/// (its Section 5.2 opcode interface requires registration before serve),
/// and each call maps its body to the opcode.
class HubUc : public sync::MpServerHub<SimCtx> {
 public:
  HubUc(void* obj, std::uint64_t max_inflight)
      : MpServerHub(0, max_inflight) {
    for (const Fn fn : kOps) add_op(fn, obj);
  }
  std::uint64_t apply(SimCtx& ctx, Fn fn, std::uint64_t arg) {
    return MpServerHub::apply(ctx, opcode(fn), arg);
  }
  sync::Ticket apply_async(SimCtx& ctx, Fn fn, std::uint64_t arg) {
    return MpServerHub::apply_async(ctx, opcode(fn), arg);
  }

 private:
  static constexpr Fn kOps[] = {&ds::counter_inc<SimCtx>,
                                &ds::q_enqueue<SimCtx>, &ds::q_dequeue<SimCtx>,
                                &ds::s_push<SimCtx>, &ds::s_pop<SimCtx>};
  /// Opcodes are 1-based registration order; an unknown body maps to the
  /// last one.
  static std::uint64_t opcode(Fn fn) {
    std::uint64_t i = 0;
    while (i + 1 < std::size(kOps) && kOps[i] != fn) ++i;
    return i + 1;
  }
};

/// A ShardedServer fleet (docs/SHARDING.md) behind the single-object call:
/// the object id rides in the argument's high half (farm convention), which
/// is what the fleet routes by, so one driver loop serves one server or a
/// fleet.
class Fleet : public sync::ShardedServer<SimCtx> {
 public:
  /// Async trains issue each op as it is added, so one train keeps ops in
  /// flight against several shards at once (sync::AsyncBatcher).
  static constexpr bool kIssueOnAdd = true;

  explicit Fleet(const Params& p)
      : ShardedServer(p.shards, p.obj, p.objects, p.max_inflight,
                      p.transfers ? TransferHooks{&farm_deq, &farm_enq}
                                  : TransferHooks{}) {}

  std::uint64_t apply(SimCtx& ctx, Fn fn, std::uint64_t a) {
    return fn == &farm_transfer ? queue_transfer(ctx, a >> 32, a)
                                : DelegationServer::apply(ctx, fn, a);
  }
  sync::Ticket apply_async(SimCtx& ctx, Fn fn, std::uint64_t a) {
    return fn == &farm_transfer ? transfer_async(ctx, a >> 32, a)
                                : DelegationServer::apply_async(ctx, fn, a);
  }
};

/// A concurrent structure (LCRQ, Treiber, elimination stack) in its own
/// right: the producing CS body (q_enqueue / s_push) maps onto its insert,
/// any other onto its remove. An empty remove returns ds::kQEmpty, which
/// equals ds::kStackEmpty.
template <class S>
class StructUc {
 public:
  template <class... A>
  explicit StructUc(A... a) : s_(a...) {}

  std::uint64_t apply(SimCtx& ctx, Fn fn, std::uint64_t v) {
    const auto v32 = static_cast<std::uint32_t>(v);
    if constexpr (requires { s_.dequeue(ctx); }) {
      if (fn == &ds::q_enqueue<SimCtx>) return s_.enqueue(ctx, v32), 0;
      const std::uint32_t r = s_.dequeue(ctx);
      return r == ds::kLcrqEmpty ? ds::kQEmpty : r;
    } else {
      if (fn == &ds::s_push<SimCtx>) return s_.push(ctx, v32), 0;
      return s_.pop(ctx);
    }
  }
  /// Fig. 5b reports the Treiber stack's failed CASes as its CAS count.
  sync::SyncStats stats(rt::Tid t)
    requires requires(S& s) { s.stats(0u).cas_failures; }
  {
    sync::SyncStats st;
    st.cas_attempts = s_.stats(t).cas_failures;
    return st;
  }

 private:
  S s_;
};

// ---- the registry ----

/// A deferred `std::make_unique<T>(args...)`.
template <class T, class... A>
auto make(A... args) {
  return [=] { return std::make_unique<T>(args...); };
}

template <class Lock>
using LockUc = sync::LockUc<SimCtx, Lock>;

/// Calls `f(build)` with kind `k`'s deferred constructor: build() returns a
/// std::unique_ptr to the construction made from `p` (and `ex`, which only
/// the Virtual-Link entry reads; it may be null if build() is never
/// called). The only switch over kinds.
template <class F>
decltype(auto) visit(Kind k, const Params& p, SimExecutor* ex, F&& f) {
  sync::HybComb<SimCtx>::Options hyb;
  hyb.stall_timeout = p.stall_timeout;
  hyb.max_inflight = p.max_inflight;
  hyb.bug_drop_every = p.hyb_bug_drop_every;
  hyb.swap_registration = k == Kind::kHybCombSwap;
  hyb.eager_drain = k != Kind::kHybCombNoDrain;
  // The 32-bit MAX_OPS of the combiners other than HybComb.
  const auto mo32 = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(p.max_ops, std::uint64_t{1} << 30));
  switch (k) {
    case Kind::kMpServer:
      return f(make<sync::MpServer<SimCtx>>(0, p.obj, p.max_inflight));
    case Kind::kHybComb:
    case Kind::kHybCombSwap:
    case Kind::kHybCombNoDrain:
      return f(make<sync::HybComb<SimCtx>>(p.obj, p.max_ops, p.fixed_combiner,
                                           hyb));
    case Kind::kShmServer:
      return f(make<sync::ShmServer<SimCtx>>(
          0, p.obj, sync::kMaxThreads, p.shm_depth));
    case Kind::kCcSynch:
      return f(make<sync::CcSynch<SimCtx>>(p.obj, mo32, p.fixed_combiner));
    case Kind::kDsmSynch:
      return f(make<sync::DsmSynch<SimCtx>>(p.obj, mo32));
    case Kind::kFlatCombining:
      return f(make<sync::FlatCombining<SimCtx>>(
          p.obj, sync::kMaxThreads, std::max<std::uint32_t>(1, mo32 / 2)));
    case Kind::kHSynch:
      return f(make<sync::HSynch<SimCtx>>(p.obj, mo32));
    case Kind::kOyama: return f(make<sync::OyamaComb<SimCtx>>(p.obj));
    case Kind::kMcsLock: return f(make<LockUc<sync::McsLock<SimCtx>>>(p.obj));
    case Kind::kClhLock: return f(make<LockUc<sync::ClhLock<SimCtx>>>(p.obj));
    case Kind::kTicketLock:
      return f(make<LockUc<sync::TicketLock<SimCtx>>>(p.obj));
    case Kind::kTasLock: return f(make<LockUc<sync::TasLock<SimCtx>>>(p.obj));
    case Kind::kTtasLock:
      return f(make<LockUc<sync::TtasLock<SimCtx>>>(p.obj));
    case Kind::kMpServerHub: return f(make<HubUc>(p.obj, p.max_inflight));
    case Kind::kVlink:
      return f([&p, ex] {
        return std::make_unique<sync::VlinkServer<SimCtx>>(
            ex->machine().vlink(), /*server_core=*/0, p.obj, p.max_inflight);
      });
    case Kind::kSharded: return f(make<Fleet>(p));
    case Kind::kMpServerPair:
      return f(make<MpServerPair>(p.obj, p.max_inflight));
    case Kind::kLcrq:
      return f(make<StructUc<ds::Lcrq<SimCtx>>>(p.lcrq_order, p.lcrq_rings));
    case Kind::kTreiber:
      return f(make<StructUc<ds::TreiberStack<SimCtx>>>(2048u));
    case Kind::kElimStack: return f(make<StructUc<ds::ElimStack<SimCtx>>>());
  }
  std::fprintf(stderr, "hmps fatal: reg::visit: unknown kind %d\n",
               static_cast<int>(k));
  std::abort();
}

/// Builds kind `k`'s construction (only that one) and returns body(uc).
template <class Body>
decltype(auto) with_construction(Kind k, const Params& p, SimExecutor& ex,
                                 Body&& body) {
  return visit(k, p, &ex, [&](auto build) -> decltype(auto) {
    const auto uc = build();
    return body(*uc);
  });
}

// ---- what a construction offers, from its type ----

template <class U, class... Ts>
concept OneOf = (std::same_as<U, Ts> || ...);
template <class U>
concept MultiServer = requires(const U& u) { u.servers(); };
template <class U>
concept Serves =
    MultiServer<U> || requires(U& u, SimCtx& c) { u.serve(c); };
template <class U>
concept Async = requires(U& u, SimCtx& c, sync::Ticket& t, Fn fn) {
  { u.apply_async(c, fn, 0) } -> std::same_as<sync::Ticket>;
  u.wait(c, t);
};

struct Traits {
  bool serves;
  bool async;
};

/// Kind `k`'s traits, without building it.
inline Traits traits(Kind k) {
  return visit(k, Params{}, nullptr, [](auto build) {
    using U = typename decltype(build())::element_type;
    return Traits{Serves<U>, Async<U>};
  });
}

/// Starts the construction's server loops on tids [0, n); returns n.
template <class U>
std::uint32_t add_servers(SimExecutor& ex, U& uc) {
  if constexpr (MultiServer<U>) {
    for (std::uint32_t s = 0; s < uc.servers(); ++s) {
      ex.add_thread([&uc, s](SimCtx& ctx) { uc.serve(ctx, s); });
    }
    return uc.servers();
  } else if constexpr (Serves<U>) {
    ex.add_thread([&uc](SimCtx& ctx) { uc.serve(ctx); });
    return 1;
  }
  return 0;
}

/// The construction's stats summed over every thread slot.
template <class U>
sync::SyncStats sum_stats(U& uc) {
  sync::SyncStats sum;
  if constexpr (requires { uc.stats(0); }) {
    std::uint32_t slots = sync::kMaxThreads;
    if constexpr (requires { uc.stat_slots(); }) slots = uc.stat_slots();
    for (std::uint32_t t = 0; t < slots; ++t) sum.add(uc.stats(t));
  }
  return sum;
}

/// Registers the construction's backlog gauge: fleet or server in-flight
/// credits, or the combiner's queue.
template <class U>
void add_backlog_gauge(obs::Telemetry& tel, U& uc) {
  if constexpr (requires { uc.combiner_inflight(); }) {
    tel.add_gauge("combiner_inflight",
                  [&uc] { return uc.combiner_inflight(); });
  } else if constexpr (requires { uc.inflight(); }) {
    tel.add_gauge(MultiServer<U> ? "fleet_inflight" : "server_inflight",
                  [&uc] { return uc.inflight(); });
  }
}

}  // namespace hmps::harness::reg
