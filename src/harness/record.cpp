#include "harness/record.hpp"

#include <algorithm>

#include "harness/driver.hpp"
#include "sim/perturb.hpp"

namespace hmps::harness {

using reg::Kind;
using rt::SimCtx;

namespace {

constexpr reg::Row<Construction> kConstructions[] = {
    {Construction::kMpServer, "mp_server", Kind::kMpServer},
    {Construction::kHybComb, "hybcomb", Kind::kHybComb},
    {Construction::kShmServer, "shm_server", Kind::kShmServer},
    {Construction::kCcSynch, "ccsynch", Kind::kCcSynch},
    {Construction::kDsmSynch, "dsm_synch", Kind::kDsmSynch},
    {Construction::kFlatCombining, "flat_combining", Kind::kFlatCombining},
    {Construction::kHSynch, "hsynch", Kind::kHSynch},
    {Construction::kOyama, "oyama", Kind::kOyama},
    {Construction::kMcsLock, "mcs_lock", Kind::kMcsLock},
    {Construction::kMpServerHub, "mp_server_hub", Kind::kMpServerHub},
    {Construction::kSharded, "sharded", Kind::kSharded},
    {Construction::kVlink, "vlink", Kind::kVlink},
};
static_assert(std::size(kConstructions) == kNumConstructions);

constexpr const char* kObjectNames[kNumObjects] = {
    "counter", "queue", "stack", "lcrq", "elim_stack"};

/// Object-farm size for the sharded construction: dense ids [0, 8),
/// rendezvous-hashed over the shard fleet.
constexpr std::uint32_t kFarmObjects = 8;

/// One drawn operation: its history record (thread, object, kind and
/// argument as the history shows them) and the call that performs it.
struct Drawn {
  OpRecord rec;
  reg::Fn fn = nullptr;
  std::uint64_t arg = 0;  ///< wire argument (a fleet packs the object in)
};

/// The next operation of client `i` (its `k`-th) against a single object.
/// Draws the produce/consume choice even for counters, so every object
/// consumes the thread's RNG stream the same way.
Drawn draw_single(SimCtx& ctx, const RecordCfg& cfg, std::uint32_t i,
                  std::uint32_t k) {
  Drawn d;
  d.rec.thread = i;
  const bool produce = ctx.rand_below(1000) < cfg.produce_permille;
  const std::uint64_t val = (static_cast<std::uint64_t>(i) << 32) | k;
  const std::uint64_t small =
      ((static_cast<std::uint64_t>(i) & 0x7FFF) << 16) | k;
  switch (cfg.object) {
    case Object::kCounter:
      d.rec.kind = OpKind::kInc;
      d.fn = &ds::counter_inc<SimCtx>;
      return d;
    case Object::kQueue:
    case Object::kLcrq:
      d.rec.kind = produce ? OpKind::kEnq : OpKind::kDeq;
      d.fn = produce ? &ds::q_enqueue<SimCtx> : &ds::q_dequeue<SimCtx>;
      break;
    case Object::kStack:
    case Object::kElimStack:
      d.rec.kind = produce ? OpKind::kPush : OpKind::kPop;
      d.fn = produce ? &ds::s_push<SimCtx> : &ds::s_pop<SimCtx>;
      break;
  }
  if (produce) {
    // The concurrent structures store 32-bit values.
    const bool direct =
        cfg.object == Object::kLcrq || cfg.object == Object::kElimStack;
    d.rec.arg = d.arg = direct ? small : val;
  }
  return d;
}

/// The next operation of client `i` against a random object of the
/// sharded farm. Queue runs mix in cross-shard queue_transfer ops, which
/// only move values to strictly higher-numbered objects: a value's
/// trajectory through the farm is acyclic, so it enters each object's
/// sub-history at most once (the queue checker requires per-object unique
/// enqueue values).
Drawn draw_farm(SimCtx& ctx, const RecordCfg& cfg, std::uint32_t i,
                std::uint32_t k) {
  Drawn d;
  d.rec.thread = i;
  d.rec.obj = static_cast<std::uint32_t>(ctx.rand_below(kFarmObjects));
  const bool produce = ctx.rand_below(1000) < cfg.produce_permille;
  const std::uint64_t val =
      ((static_cast<std::uint64_t>(i) & 0xFFFF) << 16) | (k & 0xFFFF);
  std::uint64_t low = 0;
  switch (cfg.object) {
    case Object::kQueue:
      if (produce) {
        d.rec.kind = OpKind::kEnq;
        d.fn = &reg::farm_enq;
        d.rec.arg = low = val;
      } else if (ctx.rand_below(2) == 0 || d.rec.obj + 1 >= kFarmObjects) {
        d.rec.kind = OpKind::kDeq;
        d.fn = &reg::farm_deq;
      } else {
        d.rec.kind = OpKind::kDeq;
        d.fn = &reg::farm_transfer;
        low = d.rec.obj + 1 +
              ctx.rand_below(kFarmObjects - d.rec.obj - 1);  // destination
      }
      break;
    case Object::kStack:
      d.rec.kind = produce ? OpKind::kPush : OpKind::kPop;
      d.fn = produce ? &reg::farm_push : &reg::farm_pop;
      if (produce) d.rec.arg = low = val;
      break;
    default:  // counter (the direct structures run a counter farm too)
      d.rec.kind = OpKind::kInc;
      d.fn = &reg::farm_inc;
      break;
  }
  d.arg = sync::ShardedServer<SimCtx>::pack_obj_arg(d.rec.obj, low);
  return d;
}

/// Records drawn op `d` completed over [invoke, response] with result
/// `ret`. A moving transfer yields two records sharing the bracket: the
/// dequeue on its source and the delegated enqueue on its destination
/// (per-object checking in src/check/explore.cpp relies on that shape).
void finish(HistoryRecorder& rec, Drawn d, Cycle invoke, Cycle response,
            std::uint64_t ret) {
  OpRecord& r = d.rec;
  r.invoke = invoke;
  r.response = response;
  // Producers return nothing; an empty consumer returns kNothing.
  const bool produce = r.kind == OpKind::kEnq || r.kind == OpKind::kPush;
  const bool consume = r.kind == OpKind::kDeq || r.kind == OpKind::kPop;
  r.ret = produce ? 0 : (consume && ret == ds::kQEmpty ? kNothing : ret);
  rec.record(r);
  if (d.fn != &reg::farm_transfer || ret == sync::kTransferEmpty) return;
  r.obj = static_cast<std::uint32_t>(d.arg & 0xFFFFFFFFu);
  r.kind = OpKind::kEnq;
  r.arg = ret;
  r.ret = 0;
  rec.record(r);
}

static_assert(ds::kQEmpty == sync::kTransferEmpty &&
              ds::kQEmpty == ds::kStackEmpty);

}  // namespace

const char* to_string(Construction c) {
  return reg::name_of(kConstructions, c);
}

const char* to_string(Object o) {
  return kObjectNames[static_cast<std::uint8_t>(o)];
}

bool construction_from_string(std::string_view s, Construction* out) {
  for (const auto& r : kConstructions) {
    if (s == r.name) {
      *out = r.value;
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

Kind reg::kind_of(Construction c) {
  return row_kind(kConstructions, c, "record_history", "Construction");
}

bool uses_server(Construction c) {
  return reg::traits(reg::kind_of(c)).serves;
}

std::uint32_t server_threads(Construction c, std::uint32_t shards) {
  if (!uses_server(c)) return 0;
  return reg::kind_of(c) == Kind::kSharded ? std::max(shards, 1u) : 1;
}

bool supports_async(Construction c) {
  return reg::traits(reg::kind_of(c)).async;
}

RecordResult record_history(const RecordCfg& cfg, sim::Perturber* perturber) {
  RunCfg base;
  base.machine = cfg.params;
  base.seed = cfg.seed;
  base.max_ops = cfg.max_ops;
  base.faults = cfg.faults;

  // The construction: the fleet for kSharded (over a farm of the object's
  // type), the structure itself for LCRQ and the elimination stack (the
  // construction field is ignored for them), else the construction over
  // one sequential object (a counter for the structures, never touched).
  Kind kind = reg::kind_of(cfg.construction);
  const bool fleet = kind == Kind::kSharded;
  if (!fleet && cfg.object == Object::kLcrq) kind = Kind::kLcrq;
  if (!fleet && cfg.object == Object::kElimStack) kind = Kind::kElimStack;
  const std::uint32_t n_obj = fleet ? kFarmObjects : 1;
  // No object ever holds more values than the run has ops; a queue's ring
  // needs one node more, for its dummy, and at least two.
  const std::size_t nodes = std::max<std::size_t>(
      2, static_cast<std::size_t>(cfg.threads) * cfg.ops_each + 1);
  const reg::FarmPtr farm =
      cfg.object == Object::kQueue ? reg::make_farm<ds::SeqQueue>(n_obj, nodes)
      : cfg.object == Object::kStack
          ? reg::make_farm<ds::SeqStack>(n_obj, nodes)
          : reg::make_farm<ds::SeqCounter>(n_obj);
  reg::Params p;
  p.obj = farm.get();
  p.hyb_bug_drop_every = cfg.hyb_bug_drop_every;
  p.lcrq_order = 5;
  p.lcrq_rings = 4096;
  p.shards = cfg.shards;
  p.objects = kFarmObjects;
  p.transfers = true;
  const auto draw = fleet ? &draw_farm : &draw_single;

  RecordResult res;
  res.total_client_threads = cfg.threads;
  HistoryRecorder rec;

  auto body = [&](auto& run) {
    using U = std::remove_reference_t<decltype(run.uc)>;
    U& uc = run.uc;
    // Async recording mode: issue trains of `depth` tickets, then reap
    // them in REVERSE order (deliberately exercising the out-of-order
    // staging path). Invocation is recorded at issue, response at reap,
    // so the interval brackets the linearization point: the CS runs after
    // the send and its reply arrives before the reap returns. Only the
    // depth of the frame's trains is read; their in-order reap is not used.
    const std::uint32_t depth = run.depth();
    run.spawn([&](SimCtx& ctx, std::uint32_t i) {
      auto think = [&] {
        if (cfg.think_max > 0) {
          ctx.compute(ctx.rand_below(
              static_cast<std::uint32_t>(cfg.think_max) + 1));
        }
      };
      std::uint32_t k = 0;
      while (k < cfg.ops_each) {
        if constexpr (reg::Async<U>) {
          if (depth != 0) {
            const std::uint32_t n = std::min(depth, cfg.ops_each - k);
            Drawn ops[sync::AsyncBatcher<SimCtx, U, reg::Fn>::kMaxDepth];
            sync::Ticket tickets[std::size(ops)];
            Cycle invokes[std::size(ops)];
            for (std::uint32_t j = 0; j < n; ++j, ++k) {
              ops[j] = draw(ctx, cfg, i, k);
              invokes[j] = ctx.now();
              tickets[j] = uc.apply_async(ctx, ops[j].fn, ops[j].arg);
            }
            for (std::uint32_t j = n; j-- > 0;) {
              const std::uint64_t ret = uc.wait(ctx, tickets[j]);
              finish(rec, ops[j], invokes[j], ctx.now(), ret);
            }
            think();
            continue;
          }
        }
        const Drawn d = draw(ctx, cfg, i, k++);
        const Cycle invoke = ctx.now();
        std::uint64_t ret = 0;
        run.issue(ctx, d.fn, d.arg, &ret);
        finish(rec, d, invoke, ctx.now(), ret);
        think();
      }
      if (++res.finished_threads == cfg.threads) {
        if constexpr (reg::Serves<U>) uc.request_stop(ctx);
      }
    });
    run.ex.run_until(cfg.horizon);
    res.end_time = run.ex.sched().now();
  };
  reg::drive(base, kind, p, cfg.threads, cfg.async_depth, body, perturber);

  res.completed = res.finished_threads == cfg.threads;
  res.history = rec.ops();
  return res;
}

}  // namespace hmps::harness
