#include "harness/record.hpp"

#include <algorithm>

#include "ds/counter.hpp"
#include "ds/elim_stack.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/perturb.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/dsm_synch.hpp"
#include "sync/flat_combining.hpp"
#include "sync/hsynch.hpp"
#include "sync/hybcomb.hpp"
#include "sync/locks.hpp"
#include "sync/oyama.hpp"
#include "sync/sharded.hpp"
#include "sync/shm_server.hpp"
#include "sync/vlink_server.hpp"

namespace hmps::harness {

namespace {

using rt::SimCtx;
using rt::SimExecutor;

constexpr const char* kConstructionNames[kNumConstructions] = {
    "mp_server", "hybcomb", "shm_server", "ccsynch", "dsm_synch",
    "flat_combining", "hsynch", "oyama", "mcs_lock", "mp_server_hub",
    "sharded", "vlink"};

constexpr const char* kObjectNames[kNumObjects] = {
    "counter", "queue", "stack", "lcrq", "elim_stack"};

/// MCS lock as a degenerate universal construction: lock, run the CS
/// inline, unlock (the Section 3 baseline shape).
struct McsUc {
  sync::McsLock<SimCtx> lock;
  void* obj;
  std::uint64_t apply(SimCtx& ctx, sync::CsFn<SimCtx> fn, std::uint64_t arg) {
    lock.lock(ctx);
    const std::uint64_t r = fn(ctx, obj, arg);
    lock.unlock(ctx);
    return r;
  }
};

// ---- sharded fleet workload (docs/SHARDING.md) ----

/// Object-farm size for the sharded construction: dense ids [0, 8),
/// rendezvous-hashed over the shard fleet.
constexpr std::uint32_t kFarmObjects = 8;

/// The farm every shard CS body runs against. Per-object state starts on
/// its own cache line (the ds objects are alignas(kCacheLine)), so each
/// object is only ever touched by its home shard's serve fiber.
struct ShardFarm {
  ds::SeqCounter counters[kFarmObjects];
  ds::SeqQueue queues[kFarmObjects];
  ds::SeqStack stacks[kFarmObjects];
};

// Farm CS bodies: the argument packs (obj << 32 | arg32) per
// sync::ShardedServer::pack_obj_arg.
std::uint64_t farm_inc(SimCtx& ctx, void* o, std::uint64_t a) {
  auto* f = static_cast<ShardFarm*>(o);
  return ds::counter_inc<SimCtx>(ctx, &f->counters[(a >> 32) % kFarmObjects],
                                 0);
}
std::uint64_t farm_enq(SimCtx& ctx, void* o, std::uint64_t a) {
  auto* f = static_cast<ShardFarm*>(o);
  return ds::q_enqueue<SimCtx>(ctx, &f->queues[(a >> 32) % kFarmObjects],
                               a & 0xFFFFFFFFu);
}
std::uint64_t farm_deq(SimCtx& ctx, void* o, std::uint64_t a) {
  auto* f = static_cast<ShardFarm*>(o);
  return ds::q_dequeue<SimCtx>(ctx, &f->queues[(a >> 32) % kFarmObjects], 0);
}
std::uint64_t farm_push(SimCtx& ctx, void* o, std::uint64_t a) {
  auto* f = static_cast<ShardFarm*>(o);
  return ds::s_push<SimCtx>(ctx, &f->stacks[(a >> 32) % kFarmObjects],
                            a & 0xFFFFFFFFu);
}
std::uint64_t farm_pop(SimCtx& ctx, void* o, std::uint64_t a) {
  auto* f = static_cast<ShardFarm*>(o);
  return ds::s_pop<SimCtx>(ctx, &f->stacks[(a >> 32) % kFarmObjects], 0);
}

/// record_history for the sharded construction: `shards` serve fibers on
/// tids [0, shards), clients driving random farm objects — queue runs mix
/// in cross-shard queue_transfer ops, recorded as one deq + one enq record
/// sharing the transfer's invoke/response bracket (per-object checking in
/// src/check/explore.cpp relies on exactly that shape).
RecordResult record_sharded(const RecordCfg& cfg, sim::Perturber* perturber) {
  SimExecutor ex(cfg.params, cfg.seed);
  if (cfg.faults.enabled()) ex.machine().install_faults(cfg.faults);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);

  const std::uint32_t shards = std::min<std::uint32_t>(
      std::max<std::uint32_t>(cfg.shards, 1),
      sync::ShardedServer<SimCtx>::kMaxShards);
  ShardFarm farm;
  sync::ShardedServer<SimCtx>::TransferHooks hooks{farm_deq, farm_enq};
  sync::ShardedServer<SimCtx> sh(shards, &farm, kFarmObjects, 0, hooks);

  RecordResult res;
  res.total_client_threads = cfg.threads;
  HistoryRecorder rec;

  for (std::uint32_t s = 0; s < shards; ++s) {
    ex.add_thread([&sh, s](SimCtx& ctx) { sh.serve(ctx, s); });
  }

  const std::uint32_t depth =
      cfg.async_depth >= 2 ? std::min<std::uint32_t>(cfg.async_depth, 16) : 0;

  // One drawn operation against the farm; returns up to two history
  // records (a moving transfer yields deq-on-src plus enq-on-dst).
  struct DrawnOp {
    bool transfer = false;
    std::uint32_t obj = 0;   ///< target (or transfer source)
    std::uint32_t dst = 0;   ///< transfer destination
    sync::CsFn<SimCtx> fn = nullptr;
    OpKind kind = OpKind::kInc;
    std::uint64_t arg = 0;
  };
  auto draw_op = [&](SimCtx& ctx, std::uint32_t i,
                     std::uint32_t k) -> DrawnOp {
    DrawnOp d;
    d.obj = static_cast<std::uint32_t>(ctx.rand_below(kFarmObjects));
    const bool produce = ctx.rand_below(1000) < cfg.produce_permille;
    const std::uint64_t val = ((static_cast<std::uint64_t>(i) & 0xFFFF) << 16) |
                              (k & 0xFFFF);
    switch (cfg.object) {
      case Object::kQueue:
        if (produce) {
          d.kind = OpKind::kEnq;
          d.fn = farm_enq;
          d.arg = val;
        } else if (ctx.rand_below(2) == 0 || d.obj + 1 >= kFarmObjects) {
          d.kind = OpKind::kDeq;
          d.fn = farm_deq;
        } else {
          // Transfers only move values to strictly higher-numbered
          // objects: a value's trajectory through the farm is acyclic, so
          // it enters each object's sub-history at most once — the queue
          // checker requires per-object unique enqueue values.
          d.transfer = true;
          d.kind = OpKind::kDeq;
          d.dst = d.obj + 1 +
                  static_cast<std::uint32_t>(
                      ctx.rand_below(kFarmObjects - d.obj - 1));
        }
        break;
      case Object::kStack:
        if (produce) {
          d.kind = OpKind::kPush;
          d.fn = farm_push;
          d.arg = val;
        } else {
          d.kind = OpKind::kPop;
          d.fn = farm_pop;
        }
        break;
      default:  // counter (clamp_cfg maps the direct structures away)
        d.kind = OpKind::kInc;
        d.fn = farm_inc;
        break;
    }
    return d;
  };
  // Completes the records of one drawn op from its result value.
  auto finish_op = [&](const DrawnOp& d, std::uint32_t i, Cycle invoke,
                       Cycle response, std::uint64_t ret) {
    OpRecord r;
    r.thread = i;
    r.obj = d.obj;
    r.kind = d.kind;
    r.arg = d.arg;
    r.invoke = invoke;
    r.response = response;
    if (d.transfer) {
      // deq half on the source object...
      r.ret = ret == sync::kTransferEmpty ? kNothing : ret;
      rec.record(r);
      if (ret == sync::kTransferEmpty) return;
      // ...and the delegated enq half on the destination.
      OpRecord e;
      e.thread = i;
      e.obj = d.dst;
      e.kind = OpKind::kEnq;
      e.arg = ret;
      e.ret = 0;
      e.invoke = invoke;
      e.response = response;
      rec.record(e);
      return;
    }
    switch (d.kind) {
      case OpKind::kEnq:
      case OpKind::kPush: r.ret = 0; break;
      case OpKind::kDeq:
        r.ret = ret == ds::kQEmpty ? kNothing : ret;
        break;
      case OpKind::kPop:
        r.ret = ret == ds::kStackEmpty ? kNothing : ret;
        break;
      default: r.ret = ret; break;
    }
    rec.record(r);
  };

  for (std::uint32_t i = 0; i < cfg.threads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      if (depth != 0) {
        // Async trains with reverse reaps, possibly spanning several
        // shards at once (the multi-shard ticket path under test).
        std::uint32_t k = 0;
        while (k < cfg.ops_each) {
          const std::uint32_t n = std::min(depth, cfg.ops_each - k);
          DrawnOp ops[16];
          sync::Ticket tickets[16];
          Cycle invokes[16];
          for (std::uint32_t j = 0; j < n; ++j, ++k) {
            ops[j] = draw_op(ctx, i, k);
            invokes[j] = ctx.now();
            tickets[j] = ops[j].transfer
                             ? sh.transfer_async(ctx, ops[j].obj, ops[j].dst)
                             : sh.apply_async(ctx, ops[j].fn, ops[j].obj,
                                              ops[j].arg);
          }
          for (std::uint32_t j = n; j-- > 0;) {
            const std::uint64_t ret = sh.wait(ctx, tickets[j]);
            finish_op(ops[j], i, invokes[j], ctx.now(), ret);
          }
          if (cfg.think_max > 0) {
            ctx.compute(ctx.rand_below(
                static_cast<std::uint32_t>(cfg.think_max) + 1));
          }
        }
      } else {
        for (std::uint32_t k = 0; k < cfg.ops_each; ++k) {
          const DrawnOp d = draw_op(ctx, i, k);
          const Cycle invoke = ctx.now();
          const std::uint64_t ret =
              d.transfer ? sh.queue_transfer(ctx, d.obj, d.dst)
                         : sh.apply(ctx, d.fn, d.obj, d.arg);
          finish_op(d, i, invoke, ctx.now(), ret);
          if (cfg.think_max > 0) {
            ctx.compute(ctx.rand_below(
                static_cast<std::uint32_t>(cfg.think_max) + 1));
          }
        }
      }
      ++res.finished_threads;
      if (res.finished_threads == cfg.threads) sh.request_stop(ctx);
    });
  }

  ex.run_until(cfg.horizon);
  if (perturber != nullptr) ex.sched().set_perturber(nullptr);

  res.completed = res.finished_threads == cfg.threads;
  res.end_time = ex.sched().now();
  res.history = rec.ops();
  return res;
}

}  // namespace

const char* to_string(Construction c) {
  return kConstructionNames[static_cast<std::uint8_t>(c)];
}

const char* to_string(Object o) {
  return kObjectNames[static_cast<std::uint8_t>(o)];
}

bool construction_from_string(std::string_view s, Construction* out) {
  for (std::uint32_t i = 0; i < kNumConstructions; ++i) {
    if (s == kConstructionNames[i]) {
      *out = static_cast<Construction>(i);
      return true;
    }
  }
  return false;
}

bool object_from_string(std::string_view s, Object* out) {
  for (std::uint32_t i = 0; i < kNumObjects; ++i) {
    if (s == kObjectNames[i]) {
      *out = static_cast<Object>(i);
      return true;
    }
  }
  return false;
}

bool uses_server(Construction c) {
  return c == Construction::kMpServer || c == Construction::kShmServer ||
         c == Construction::kMpServerHub || c == Construction::kSharded ||
         c == Construction::kVlink;
}

std::uint32_t server_threads(Construction c, std::uint32_t shards) {
  if (c == Construction::kSharded) return shards == 0 ? 1 : shards;
  return uses_server(c) ? 1 : 0;
}

bool supports_async(Construction c) {
  return c == Construction::kMpServer || c == Construction::kMpServerHub ||
         c == Construction::kShmServer || c == Construction::kHybComb ||
         c == Construction::kSharded || c == Construction::kVlink;
}

RecordResult record_history(const RecordCfg& cfg, sim::Perturber* perturber) {
  if (cfg.construction == Construction::kSharded) {
    return record_sharded(cfg, perturber);
  }
  SimExecutor ex(cfg.params, cfg.seed);
  if (cfg.faults.enabled()) ex.machine().install_faults(cfg.faults);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);

  // The objects. Constructed up front regardless of which one runs (cheap,
  // and it keeps this function free of dynamic dispatch gymnastics).
  ds::SeqCounter counter;
  ds::SeqQueue queue(8192);
  ds::SeqStack stack(8192);
  ds::Lcrq<SimCtx> lcrq(5, 4096);
  ds::ElimStack<SimCtx> elim(256, 8, 64);

  void* obj = nullptr;
  switch (cfg.object) {
    case Object::kCounter: obj = &counter; break;
    case Object::kQueue: obj = &queue; break;
    case Object::kStack: obj = &stack; break;
    case Object::kLcrq:
    case Object::kElimStack: break;  // concurrent structures, no CS object
  }

  // The constructions (the server approaches use tid 0 as the server).
  sync::HybComb<SimCtx>::Options hopts;
  hopts.bug_drop_every = cfg.hyb_bug_drop_every;
  const std::uint32_t mo32 =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(cfg.max_ops, 1u << 30));
  sync::MpServer<SimCtx> mp(0, obj);
  sync::ShmServer<SimCtx> shm(0, obj, sync::ShmServer<SimCtx>::kMaxThreads,
                              cfg.async_depth);
  sync::HybComb<SimCtx> hyb(obj, cfg.max_ops, /*fixed_combiner=*/false, hopts);
  // The hub registers every CS body the driver can issue up front (its
  // Section 5.2 opcode interface requires registration before serve()).
  sync::MpServerHub<SimCtx> hub(0);
  const std::uint64_t op_inc = hub.add_op(ds::counter_inc<SimCtx>, obj);
  const std::uint64_t op_enq = hub.add_op(ds::q_enqueue<SimCtx>, obj);
  const std::uint64_t op_deq = hub.add_op(ds::q_dequeue<SimCtx>, obj);
  const std::uint64_t op_push = hub.add_op(ds::s_push<SimCtx>, obj);
  const std::uint64_t op_pop = hub.add_op(ds::s_pop<SimCtx>, obj);
  auto hub_opcode = [&](sync::CsFn<SimCtx> fn) -> std::uint64_t {
    if (fn == ds::counter_inc<SimCtx>) return op_inc;
    if (fn == ds::q_enqueue<SimCtx>) return op_enq;
    if (fn == ds::q_dequeue<SimCtx>) return op_deq;
    if (fn == ds::s_push<SimCtx>) return op_push;
    return op_pop;
  };
  sync::CcSynch<SimCtx> cc(obj, mo32);
  sync::DsmSynch<SimCtx> dsm(obj, mo32);
  sync::FlatCombining<SimCtx> fc(obj, sync::FlatCombining<SimCtx>::kMaxThreads,
                                 std::max<std::uint32_t>(1, mo32 / 2));
  sync::HSynch<SimCtx> hs(obj, mo32);
  sync::OyamaComb<SimCtx> oy(obj);
  McsUc mcs{{}, obj};
  sync::VlinkServer<SimCtx> vl(ex.machine().vlink(), /*server_core=*/0, obj);

  auto apply = [&](SimCtx& ctx, sync::CsFn<SimCtx> fn,
                   std::uint64_t arg) -> std::uint64_t {
    switch (cfg.construction) {
      case Construction::kMpServer: return mp.apply(ctx, fn, arg);
      case Construction::kHybComb: return hyb.apply(ctx, fn, arg);
      case Construction::kShmServer: return shm.apply(ctx, fn, arg);
      case Construction::kCcSynch: return cc.apply(ctx, fn, arg);
      case Construction::kDsmSynch: return dsm.apply(ctx, fn, arg);
      case Construction::kFlatCombining: return fc.apply(ctx, fn, arg);
      case Construction::kHSynch: return hs.apply(ctx, fn, arg);
      case Construction::kOyama: return oy.apply(ctx, fn, arg);
      case Construction::kMcsLock: return mcs.apply(ctx, fn, arg);
      case Construction::kMpServerHub:
        return hub.apply(ctx, hub_opcode(fn), arg);
      case Construction::kVlink: return vl.apply(ctx, fn, arg);
      case Construction::kSharded: break;  // handled by record_sharded()
    }
    return 0;
  };

  // Async ticket dispatch (constructions without the API complete inline,
  // so a depth-configured run over e.g. ccsynch degrades to synchronous).
  auto issue_async = [&](SimCtx& ctx, sync::CsFn<SimCtx> fn,
                         std::uint64_t arg) -> sync::Ticket {
    switch (cfg.construction) {
      case Construction::kMpServer: return mp.apply_async(ctx, fn, arg);
      case Construction::kHybComb: return hyb.apply_async(ctx, fn, arg);
      case Construction::kShmServer: return shm.apply_async(ctx, fn, arg);
      case Construction::kMpServerHub:
        return hub.apply_async(ctx, hub_opcode(fn), arg);
      case Construction::kVlink: return vl.apply_async(ctx, fn, arg);
      default: return sync::Ticket{0, apply(ctx, fn, arg), 0};
    }
  };
  auto reap = [&](SimCtx& ctx, sync::Ticket& t) -> std::uint64_t {
    switch (cfg.construction) {
      case Construction::kMpServer: return mp.wait(ctx, t);
      case Construction::kHybComb: return hyb.wait(ctx, t);
      case Construction::kShmServer: return shm.wait(ctx, t);
      case Construction::kMpServerHub: return hub.wait(ctx, t);
      case Construction::kVlink: return vl.wait(ctx, t);
      default: return t.value;
    }
  };

  const bool direct =
      cfg.object == Object::kLcrq || cfg.object == Object::kElimStack;
  const bool server = !direct && uses_server(cfg.construction);

  RecordResult res;
  res.total_client_threads = cfg.threads;
  HistoryRecorder rec;

  if (server) {
    ex.add_thread([&](SimCtx& ctx) {
      if (cfg.construction == Construction::kMpServer) {
        mp.serve(ctx);
      } else if (cfg.construction == Construction::kMpServerHub) {
        hub.serve(ctx);
      } else if (cfg.construction == Construction::kVlink) {
        vl.serve(ctx);
      } else {
        shm.serve(ctx);
      }
    });
  }

  // Async recording mode: issue `depth`-sized trains of tickets, then reap
  // them in REVERSE order (deliberately exercising the out-of-order staging
  // path). Invocation is recorded at issue, response at reap, so the
  // interval brackets the linearization point: the CS runs after the send
  // and its reply arrives before the reap returns.
  const std::uint32_t depth =
      (!direct && supports_async(cfg.construction) && cfg.async_depth >= 2)
          ? std::min<std::uint32_t>(cfg.async_depth, 16)
          : 0;
  auto run_async_client = [&](SimCtx& ctx, std::uint32_t i) {
    std::uint32_t k = 0;
    while (k < cfg.ops_each) {
      const std::uint32_t n = std::min(depth, cfg.ops_each - k);
      OpRecord recs[16];
      sync::Ticket tickets[16];
      for (std::uint32_t j = 0; j < n; ++j, ++k) {
        OpRecord& r = recs[j];
        r.thread = i;
        const bool produce = ctx.rand_below(1000) < cfg.produce_permille;
        sync::CsFn<SimCtx> fn = nullptr;
        std::uint64_t arg = 0;
        switch (cfg.object) {
          case Object::kCounter:
            r.kind = OpKind::kInc;
            fn = ds::counter_inc<SimCtx>;
            break;
          case Object::kQueue:
            if (produce) {
              r.kind = OpKind::kEnq;
              r.arg = (static_cast<std::uint64_t>(i) << 32) | k;
              arg = r.arg;
              fn = ds::q_enqueue<SimCtx>;
            } else {
              r.kind = OpKind::kDeq;
              fn = ds::q_dequeue<SimCtx>;
            }
            break;
          case Object::kStack:
            if (produce) {
              r.kind = OpKind::kPush;
              r.arg = (static_cast<std::uint64_t>(i) << 32) | k;
              arg = r.arg;
              fn = ds::s_push<SimCtx>;
            } else {
              r.kind = OpKind::kPop;
              fn = ds::s_pop<SimCtx>;
            }
            break;
          case Object::kLcrq:
          case Object::kElimStack:
            break;  // unreachable: direct objects never run async
        }
        r.invoke = ctx.now();
        tickets[j] = issue_async(ctx, fn, arg);
      }
      for (std::uint32_t j = n; j-- > 0;) {
        OpRecord& r = recs[j];
        r.ret = reap(ctx, tickets[j]);
        if (r.kind == OpKind::kEnq || r.kind == OpKind::kPush) r.ret = 0;
        if (r.kind == OpKind::kDeq && r.ret == ds::kQEmpty) r.ret = kNothing;
        if (r.kind == OpKind::kPop && r.ret == ds::kStackEmpty) {
          r.ret = kNothing;
        }
        r.response = ctx.now();
        rec.record(r);
      }
      if (cfg.think_max > 0) {
        ctx.compute(ctx.rand_below(
            static_cast<std::uint32_t>(cfg.think_max) + 1));
      }
    }
  };

  for (std::uint32_t i = 0; i < cfg.threads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      if (depth != 0) {
        run_async_client(ctx, i);
        ++res.finished_threads;
        if (res.finished_threads == cfg.threads && server) {
          if (cfg.construction == Construction::kMpServer) {
            mp.request_stop(ctx);
          } else if (cfg.construction == Construction::kMpServerHub) {
            hub.request_stop(ctx);
          } else if (cfg.construction == Construction::kVlink) {
            vl.request_stop(ctx);
          } else {
            shm.request_stop(ctx);
          }
        }
        return;
      }
      for (std::uint32_t k = 0; k < cfg.ops_each; ++k) {
        OpRecord r;
        r.thread = i;
        r.invoke = ctx.now();
        const bool produce =
            ctx.rand_below(1000) < cfg.produce_permille;
        switch (cfg.object) {
          case Object::kCounter:
            r.kind = OpKind::kInc;
            r.ret = apply(ctx, ds::counter_inc<SimCtx>, 0);
            break;
          case Object::kQueue:
            if (produce) {
              r.kind = OpKind::kEnq;
              r.arg = (static_cast<std::uint64_t>(i) << 32) | k;
              r.ret = 0;
              apply(ctx, ds::q_enqueue<SimCtx>, r.arg);
            } else {
              r.kind = OpKind::kDeq;
              r.ret = apply(ctx, ds::q_dequeue<SimCtx>, 0);
              if (r.ret == ds::kQEmpty) r.ret = kNothing;
            }
            break;
          case Object::kStack:
            if (produce) {
              r.kind = OpKind::kPush;
              r.arg = (static_cast<std::uint64_t>(i) << 32) | k;
              r.ret = 0;
              apply(ctx, ds::s_push<SimCtx>, r.arg);
            } else {
              r.kind = OpKind::kPop;
              r.ret = apply(ctx, ds::s_pop<SimCtx>, 0);
              if (r.ret == ds::kStackEmpty) r.ret = kNothing;
            }
            break;
          case Object::kLcrq:
            if (produce) {
              r.kind = OpKind::kEnq;
              r.arg = ((static_cast<std::uint64_t>(i) & 0x7FFF) << 16) | k;
              r.ret = 0;
              lcrq.enqueue(ctx, static_cast<std::uint32_t>(r.arg));
            } else {
              r.kind = OpKind::kDeq;
              const std::uint32_t v = lcrq.dequeue(ctx);
              r.ret = v == ds::kLcrqEmpty ? kNothing : v;
            }
            break;
          case Object::kElimStack:
            if (produce) {
              r.kind = OpKind::kPush;
              r.arg = ((static_cast<std::uint64_t>(i) & 0x7FFF) << 16) | k;
              r.ret = 0;
              elim.push(ctx, static_cast<std::uint32_t>(r.arg));
            } else {
              r.kind = OpKind::kPop;
              r.ret = elim.pop(ctx);
              if (r.ret == ds::kStackEmpty) r.ret = kNothing;
            }
            break;
        }
        r.response = ctx.now();
        rec.record(r);
        if (cfg.think_max > 0) {
          ctx.compute(ctx.rand_below(
              static_cast<std::uint32_t>(cfg.think_max) + 1));
        }
      }
      ++res.finished_threads;
      if (res.finished_threads == cfg.threads && server) {
        if (cfg.construction == Construction::kMpServer) {
          mp.request_stop(ctx);
        } else if (cfg.construction == Construction::kMpServerHub) {
          hub.request_stop(ctx);
        } else if (cfg.construction == Construction::kVlink) {
          vl.request_stop(ctx);
        } else {
          shm.request_stop(ctx);
        }
      }
    });
  }

  ex.run_until(cfg.horizon);
  // Detach the perturber before teardown so no stale pointer survives the
  // scenario (the executor dies with this frame anyway; belt and braces).
  if (perturber != nullptr) ex.sched().set_perturber(nullptr);

  res.completed = res.finished_threads == cfg.threads;
  res.end_time = ex.sched().now();
  res.history = rec.ops();
  return res;
}

}  // namespace hmps::harness
