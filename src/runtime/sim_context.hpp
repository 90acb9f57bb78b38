// SimCtx: the ExecutionContext backend that runs algorithms on the
// discrete-event machine model.
//
// Functional effects apply at the instant the fiber executes the call
// (a legal linearization point inside the operation's latency interval,
// valid because the whole simulation runs on one host thread); the fiber
// then sleeps for the modeled latency, with cycles attributed to busy /
// stall / idle per the core model.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <vector>

#include "arch/machine.hpp"
#include "runtime/context.hpp"
#include "sim/rng.hpp"

namespace hmps::rt {

/// Where a simulated thread currently executes: its core and the hardware
/// message queue it has reserved there (paper Section 6: a thread's
/// identity for message passing is its current (core, queue) pair).
struct Placement {
  Tid core = 0;
  std::uint32_t queue = 0;
};

class SimCtx {
 public:
  /// `placements` maps thread id -> current placement for all threads of
  /// the executor (shared; updated by migrate()).
  SimCtx(arch::Machine& m, Tid tid, std::uint32_t nthreads,
         std::vector<Placement>* placements, std::uint64_t seed)
      : m_(m), tid_(tid), nthreads_(nthreads), placements_(placements),
        core_((*placements)[tid].core), queue_((*placements)[tid].queue),
        rng_(seed) {}

  using Bucket = obs::CycleAccount::Bucket;

  Tid tid() const { return tid_; }
  std::uint32_t nthreads() const { return nthreads_; }
  Tid core() const { return core_; }
  Cycle now() const { return m_.sched().now(); }
  arch::Machine& machine() { return m_; }
  sim::Xoshiro256& rng() { return rng_; }
  std::uint64_t rand_below(std::uint64_t bound) { return rng_.below(bound); }

  // ---- shared memory ----

  template <class T>
  T load(const std::atomic<T>* p) {
    static_assert(sizeof(T) <= 8);
    fault_stall();
    const T v = p->load(std::memory_order_relaxed);
    account_load(reinterpret_cast<std::uint64_t>(p));
    return v;
  }

  template <class T>
  void store(std::atomic<T>* p, T v) {
    static_assert(sizeof(T) <= 8);
    fault_stall();
    p->store(v, std::memory_order_relaxed);
    account_store(reinterpret_cast<std::uint64_t>(p));
  }

  std::uint64_t faa(std::atomic<std::uint64_t>* p, std::uint64_t d) {
    fault_stall();
    const std::uint64_t old = p->fetch_add(d, std::memory_order_relaxed);
    account_atomic(reinterpret_cast<std::uint64_t>(p),
                   arch::AtomicKind::kFaa);
    return old;
  }

  template <class T>
  T exchange(std::atomic<T>* p, T v) {
    static_assert(sizeof(T) <= 8);
    fault_stall();
    const T old = p->exchange(v, std::memory_order_relaxed);
    // Exchange is an unconditional RMW: controller cost class of FAA.
    account_atomic(reinterpret_cast<std::uint64_t>(p),
                   arch::AtomicKind::kFaa);
    return old;
  }

  template <class T>
  bool cas(std::atomic<T>* p, T expect, T desired) {
    static_assert(sizeof(T) <= 8);
    fault_stall();
    const bool ok = p->compare_exchange_strong(expect, desired,
                                               std::memory_order_relaxed);
    account_atomic(reinterpret_cast<std::uint64_t>(p),
                   ok ? arch::AtomicKind::kCasSuccess
                      : arch::AtomicKind::kCasFail);
    return ok;
  }

  void fence() {
    fault_stall();
    auto& c = m_.core(core_);
    const Cycle t = now();
    Cycle wait = 0;
    if (c.wb_ready > t) {
      wait = c.wb_ready - t;
      c.stall += wait;
      charge(Bucket::kCoherenceWrite, t, t + wait);  // write-buffer drain
      m_.sched().wait_until(c.wb_ready);
    }
    c.busy += m_.params().fence_cost;
    charge(Bucket::kCompute, t + wait, t + wait + m_.params().fence_cost);
    m_.sched().wait_for(m_.params().fence_cost);
  }

  void prefetch(const void* p) {
    if (!m_.params().allow_prefetch) return;
    fault_stall();
    auto& c = m_.core(core_);
    const std::uint64_t addr = reinterpret_cast<std::uint64_t>(p);
    c.prefetch_line = m_.coherence().line_of(addr);
    c.prefetch_ready = m_.coherence().prefetch(core_, addr, now());
    c.busy += 1;
    charge(Bucket::kCompute, now(), now() + 1);
    m_.sched().wait_for(1);
  }

  // ---- message passing ----

  void send(Tid dst_thread, const std::uint64_t* words, std::size_t n) {
    fault_stall();
    auto& c = m_.core(core_);
    ++c.msgs_sent;
    const Cycle t0 = now();
    m_.udn().send(core_, core_of_thread(dst_thread),
                  queue_of_thread(dst_thread), words, n);
    const Cycle dt = now() - t0;
    c.busy += dt;  // injection cost; backpressure counts as busy-wait
    // The injection tail is fixed; anything beyond it was credit
    // backpressure (the sender suspended before reserving space).
    const Cycle inject = m_.params().udn_inject +
                         m_.params().udn_per_word_wire * static_cast<Cycle>(n);
    const Cycle block = dt > inject ? dt - inject : 0;
    charge(Bucket::kUdnSendBlock, t0, t0 + block);
    charge(Bucket::kCompute, t0 + block, t0 + dt);
    m_.tracer().event(core_, "send", t0, dt);
  }

  void send(Tid dst_thread, std::initializer_list<std::uint64_t> words) {
    send(dst_thread, words.begin(), words.size());
  }

  void receive(std::uint64_t* out, std::size_t n) {
    receive_impl(out, n, Bucket::kUdnRecvWait, "receive-wait");
  }

  /// Identical timing to receive(); the empty-queue wait is attributed to
  /// the async-delegation bucket instead. Used by the constructions'
  /// wait()/wait_all() ticket-reaping paths (docs/MODEL.md §9) so Fig. 4a
  /// style breakdowns separate "blocked on a future" from the server's
  /// ordinary receive wait.
  void receive_async(std::uint64_t* out, std::size_t n) {
    receive_impl(out, n, Bucket::kUdnAsyncWait, "receive-async-wait");
  }

  std::uint64_t receive1() {
    std::uint64_t w;
    receive(&w, 1);
    return w;
  }

  // ---- async reply staging (tagged-receive demux, docs/MODEL.md §9) ----
  // Replies popped while waiting for a different tag park here until their
  // ticket is reaped. Pure register-file bookkeeping: no cycles are
  // charged, matching NativeCtx's staged-word queue.

  void stage_reply(std::uint64_t tag, std::uint64_t val) {
    staged_replies_.emplace_back(tag, val);
  }

  bool take_staged_reply(std::uint64_t tag, std::uint64_t* val) {
    for (std::size_t i = 0; i < staged_replies_.size(); ++i) {
      if (staged_replies_[i].first == tag) {
        *val = staged_replies_[i].second;
        staged_replies_[i] = staged_replies_.back();
        staged_replies_.pop_back();
        return true;
      }
    }
    return false;
  }

  bool take_any_staged_reply(std::uint64_t* tag, std::uint64_t* val) {
    if (staged_replies_.empty()) return false;
    *tag = staged_replies_.back().first;
    *val = staged_replies_.back().second;
    staged_replies_.pop_back();
    return true;
  }

  bool queue_empty() {
    fault_stall();
    auto& c = m_.core(core_);
    c.busy += 1;
    charge(Bucket::kCompute, now(), now() + 1);
    m_.sched().wait_for(1);
    return m_.udn().queue_empty(core_, queue_);
  }

  // ---- virtual-link channels (arch/vlink.hpp; sim-only transport) ----
  // Accounting reuses the UDN ops' buckets (push backpressure is
  // kUdnSendBlock, pop waits are kUdnRecvWait / kUdnAsyncWait), so Fig. 4a
  // style breakdowns compare the transports without new schema buckets.

  void vlink_push(std::uint32_t ch, const std::uint64_t* words,
                  std::size_t n) {
    fault_stall();
    auto& c = m_.core(core_);
    ++c.msgs_sent;
    const Cycle t0 = now();
    m_.vlink().push(core_, ch, words, n);
    const Cycle dt = now() - t0;
    c.busy += dt;  // injection cost; backpressure counts as busy-wait
    const Cycle inject = m_.params().udn_inject +
                         m_.params().udn_per_word_wire * static_cast<Cycle>(n);
    const Cycle block = dt > inject ? dt - inject : 0;
    charge(Bucket::kUdnSendBlock, t0, t0 + block);
    charge(Bucket::kCompute, t0 + block, t0 + dt);
    m_.tracer().event(core_, "vlink-push", t0, dt);
  }

  void vlink_push(std::uint32_t ch, std::initializer_list<std::uint64_t> w) {
    vlink_push(ch, w.begin(), w.size());
  }

  void vlink_pop(std::uint32_t ch, std::uint64_t* out, std::size_t n) {
    vlink_pop_impl(ch, out, n, Bucket::kUdnRecvWait, "vlink-pop");
  }

  /// Identical timing to vlink_pop(); the wait is attributed to the
  /// async-delegation bucket (ticket reaping, docs/MODEL.md §9).
  void vlink_pop_async(std::uint32_t ch, std::uint64_t* out, std::size_t n) {
    vlink_pop_impl(ch, out, n, Bucket::kUdnAsyncWait, "vlink-pop-async");
  }

  bool vlink_empty(std::uint32_t ch) {
    fault_stall();
    auto& c = m_.core(core_);
    c.busy += 1;
    charge(Bucket::kCompute, now(), now() + 1);
    m_.sched().wait_for(1);
    return m_.vlink().empty(ch);
  }

  // ---- execution ----

  void compute(Cycle cycles) { busy_wait(cycles, Bucket::kCompute, "compute"); }

  /// Backoff/poll iteration: same timing as compute(1), accounted as spin.
  void cpu_relax() { busy_wait(1, Bucket::kSpin, "spin"); }

  /// Spins on `*p` until `done(value)` holds and returns that value: exactly
  /// `for (;;) { v = load(p); if (done(v)) return v; cpu_relax(); }`, event
  /// for event. `done` must depend on the loaded value only. After a load
  /// returns a not-done value the fiber parks behind a poller that replays
  /// the loop's relax and cache-hit load steps from inside the scheduler,
  /// with no context switch, for as long as such a load would return the
  /// same value; the fiber itself does every other load (docs/ENGINE.md,
  /// "Parked spins"). With a perturber or a fault plan the plain loop runs.
  template <class T, class Done>
  T spin_until(const std::atomic<T>* p, Done done) {
    for (;;) {
      const T v = load(p);
      if (done(v)) return v;
      if (m_.sched().perturber() != nullptr || m_.faults().active()) {
        cpu_relax();
        continue;
      }
      const auto& par = m_.params();
      m_.sched().park_polling(
          &SimCtx::spin_poll<T>,
          SpinPoll<T>{&m_, &m_.core(core_), p, v,
                      m_.coherence().hint(reinterpret_cast<std::uint64_t>(p)),
                      par.issue_cost + par.l_hit, core_, false});
    }
  }

  /// Exploration yield point (sync-layer span boundaries, see
  /// sim/perturb.hpp): with a perturber installed the thread may be stalled
  /// here as if descheduled, accounted like an injected preemption. A
  /// single predicted branch when no perturber is active.
  void explore_point(const char* where) {
    sim::Perturber* p = m_.sched().perturber();
    if (p == nullptr) [[likely]] return;
    const Cycle d = p->point_delay(tid_, core_, where, now());
    if (d > 0) {
      auto& c = m_.core(core_);
      c.stall += d;
      c.preempt_stall += d;
      charge(Bucket::kPreempted, now(), now() + d);
      m_.tracer().event(core_, "explore-preempt", now(), d);
      m_.sched().wait_for(d);
    }
  }

  /// Current placement of any thread (dynamic: threads may migrate).
  Tid core_of_thread(Tid t) const {
    assert(t < placements_->size() && "message to unregistered thread id");
    return (*placements_)[t].core;
  }
  std::uint32_t queue_of_thread(Tid t) const {
    assert(t < placements_->size() && "message to unregistered thread id");
    return (*placements_)[t].queue;
  }

  /// Migrates this thread to another core/hardware queue, as Section 6
  /// allows "in between requests": the local message queue must be empty
  /// (no response pending) and no request may be in flight. Charges a
  /// migration penalty. The caller is responsible for not double-booking a
  /// (core, queue) pair.
  void migrate(Tid new_core, std::uint32_t new_queue, Cycle cost = 200) {
    assert(m_.udn().queue_empty(core_, queue_) &&
           "migrate with pending messages");
    compute(cost);
    core_ = new_core;
    queue_ = new_queue;
    (*placements_)[tid_] = Placement{new_core, new_queue};
  }

 private:
  void vlink_pop_impl(std::uint32_t ch, std::uint64_t* out, std::size_t n,
                      Bucket wait_bucket, const char* name) {
    fault_stall();
    auto& c = m_.core(core_);
    ++c.msgs_received;
    const Cycle t0 = now();
    m_.vlink().pop(core_, ch, out, n);
    const Cycle dt = now() - t0;
    m_.tracer().event(core_, name, t0, dt);
    // The register reads trail; everything before them — the home-ring
    // round trip plus any empty-channel block — is wait, not compute.
    const Cycle pop_cost = m_.params().udn_recv_word * static_cast<Cycle>(n);
    const Cycle wait = dt > pop_cost ? dt - pop_cost : 0;
    c.busy += pop_cost;
    c.idle += wait;
    charge(wait_bucket, t0, t0 + wait);
    charge(Bucket::kCompute, t0 + wait, t0 + dt);
  }

  void receive_impl(std::uint64_t* out, std::size_t n, Bucket wait_bucket,
                    const char* wait_name) {
    fault_stall();
    auto& c = m_.core(core_);
    ++c.msgs_received;
    const Cycle t0 = now();
    const bool had = m_.udn().words_pending(core_, queue_) >= n;
    m_.udn().receive(core_, queue_, out, n);
    const Cycle dt = now() - t0;
    m_.tracer().event(core_, had ? "receive" : wait_name, t0, dt);
    const Cycle pop_cost =
        m_.params().udn_recv_word * static_cast<Cycle>(n);
    if (had) {
      c.busy += dt;
      charge(Bucket::kCompute, t0, t0 + dt);
    } else {
      // Waiting for a message is idle time, not a pipeline stall. The pop
      // happens after the words arrive, so the wait leads and the register
      // reads trail.
      c.busy += pop_cost;
      c.idle += dt > pop_cost ? dt - pop_cost : 0;
      const Cycle wait = dt > pop_cost ? dt - pop_cost : 0;
      charge(wait_bucket, t0, t0 + wait);
      charge(Bucket::kCompute, t0 + wait, t0 + dt);
    }
  }

  /// Charges [start, end) on this core's cycle account (obs layer). Pure
  /// bookkeeping: never advances simulated time.
  void charge(Bucket b, Cycle start, Cycle end) {
    m_.core(core_).account.charge(b, start, end);
  }

  /// Occupies the core for `cycles`, attributed to `bucket`.
  void busy_wait(Cycle cycles, Bucket bucket, const char* name) {
    if (cycles == 0) return;
    fault_stall();
    m_.sched().wait_for(charge_busy(cycles, bucket, name));
  }

  /// busy_wait()'s bookkeeping, without the wait. Returns `cycles`.
  Cycle charge_busy(Cycle cycles, Bucket bucket, const char* name) {
    return charge_step(m_.tracer(), core_, m_.core(core_), name, now(), bucket,
                       cycles);
  }

  /// The bookkeeping of one operation that core `core` (state `c`) starts
  /// at `t`: `busy` cycles charged to `b`, then `stall` stalled cycles
  /// charged to `stall_b`, and a tracer event over both. Returns busy +
  /// stall. Shared by charge_busy(), charge_load() and the poller.
  static Cycle charge_step(sim::Tracer& tr, Tid core, arch::CoreState& c,
                           const char* name, Cycle t, Bucket b, Cycle busy,
                           Bucket stall_b = Bucket::kCompute,
                           Cycle stall = 0) {
    tr.event(core, name, t, busy + stall);
    c.busy += busy;
    c.account.charge(b, t, t + busy);
    if (stall != 0) {
      c.stall += stall;
      c.account.charge(stall_b, t + busy, t + busy + stall);
    }
    return busy + stall;
  }

  /// A spin_until() parked behind its poller. The scheduler keeps it in
  /// the fiber's slot (Scheduler::kPollRecordBytes), so a poll step reads
  /// this record, the core's state and the line's table slot, and nothing
  /// of the SimCtx.
  template <class T>
  struct SpinPoll {
    arch::Machine* m;
    arch::CoreState* c;   ///< state of `core`
    const std::atomic<T>* p;
    T last;               ///< value of the last real load (not done)
    arch::CoherenceModel::LineHint hint;  ///< the line holding *p
    Cycle load_cycles;    ///< a cache-hit load's occupancy: issue + l_hit
    Tid core;
    bool poll_next;       ///< next step: the load (true) or the relax
  };

  /// The poller (Scheduler::PollFn). Alternates the loop's two steps, each
  /// with its exact bookkeeping and wait, while the clock can move straight
  /// on; returns false once a wait had to schedule the fiber's resume.
  /// Hands back to the fiber (true) when the next load might differ from a
  /// plain cache hit returning `last`: the word changed, the line is no
  /// longer readable here, or a prefetch of it is outstanding.
  template <class T>
  static bool spin_poll(void* rec) {
    SpinPoll<T>& s = *std::launder(static_cast<SpinPoll<T>*>(rec));
    arch::Machine& m = *s.m;
    arch::CoreState& c = *s.c;
    sim::Scheduler& sched = m.sched();
    for (;;) {
      const Cycle t = sched.now();
      Cycle d;
      if (s.poll_next) {
        if (s.p->load(std::memory_order_relaxed) != s.last ||
            c.prefetch_line == s.hint.line ||
            !m.coherence().read_hit(s.core, s.hint)) {
          return true;
        }
        ++c.mem_ops;
        d = charge_step(m.tracer(), s.core, c, "load-hit", t,
                        Bucket::kCompute, s.load_cycles);
      } else {
        d = charge_step(m.tracer(), s.core, c, "spin", t, Bucket::kSpin, 1);
      }
      s.poll_next = !s.poll_next;
      if (!sched.poll_wait(t + d)) return false;
    }
  }

  /// Fault-injection hook at every operation boundary: while this core sits
  /// inside an injected preemption window, the fiber makes no progress (the
  /// thread is "descheduled"; Section 6's unlucky-scheduling scenario).
  /// A single predicted-false branch when no plan is active — the stall
  /// body lives in a separate function so this wrapper actually inlines
  /// into every memory-op (it did not as one function, and this is called
  /// before every simulated operation).
  void fault_stall() {
    if (!m_.faults().active()) [[likely]] return;
    fault_stall_slow();
  }

  __attribute__((noinline)) void fault_stall_slow() {
    const Cycle until = m_.faults().preempt_until(core_);
    const Cycle t = now();
    if (until > t) {
      auto& c = m_.core(core_);
      c.preempt_stall += until - t;
      c.stall += until - t;
      ++c.preemptions;
      charge(Bucket::kPreempted, t, until);
      m_.tracer().event(core_, "preempt", t, until - t);
      m_.sched().wait_until(until);
    }
  }

  void account_load(std::uint64_t addr) {
    auto& c = m_.core(core_);
    ++c.mem_ops;
    Cycle extra_wait = 0;
    const std::uint64_t line = m_.coherence().line_of(addr);
    if (c.prefetch_line == line) {
      // The prefetch already ran the coherence transaction; the load only
      // stalls for whatever latency is still outstanding.
      const Cycle t = now();
      extra_wait = c.prefetch_ready > t ? c.prefetch_ready - t : 0;
      c.prefetch_line = ~std::uint64_t{0};
    }
    const auto ac = m_.coherence().read(core_, addr, now() + extra_wait);
    if (ac.remote) ++c.rmr_loads;
    m_.sched().wait_for(charge_load(extra_wait + ac.latency, ac.remote));
  }

  /// account_load()'s bookkeeping for a load whose value is usable `lat`
  /// cycles after issue, without the wait. Returns the cycles it occupies.
  Cycle charge_load(Cycle lat, bool remote) {
    const auto& p = m_.params();
    auto& c = m_.core(core_);
    const Cycle busy_part = lat < p.l_hit ? lat : p.l_hit;
    c.load_stall += lat - busy_part;
    return charge_step(m_.tracer(), core_, c,
                       remote ? "load-miss" : "load-hit", now(),
                       Bucket::kCompute, p.issue_cost + busy_part,
                       Bucket::kCoherenceRead, lat - busy_part);
  }

  void account_store(std::uint64_t addr) {
    auto& c = m_.core(core_);
    ++c.mem_ops;
    const auto& p = m_.params();
    const std::uint64_t line = m_.coherence().line_of(addr);
    if (p.posted_writes && line == c.wb_line && now() < c.wb_ready) {
      // Store-buffer coalescing: this store merges into the same-line entry
      // still draining; ownership is re-asserted so an interleaved remote
      // read (e.g. a client polling the response word) is ordered after the
      // drain rather than splitting one upgrade into two.
      m_.coherence().own_silently(core_, addr);
      m_.tracer().event(core_, "store-coalesced", now(), p.issue_cost);
      c.busy += p.issue_cost;
      charge(Bucket::kCompute, now(), now() + p.issue_cost);
      m_.sched().wait_for(p.issue_cost);
      return;
    }
    const auto ac = m_.coherence().write(core_, addr, now());
    if (ac.remote) ++c.rmr_stores;
    if (ac.remote && p.posted_writes) {
      // Posted store: retires through the write buffer in the background.
      const Cycle t = now();
      Cycle wait = 0;
      if (c.wb_ready > t) {  // single-entry buffer still draining
        wait = c.wb_ready - t;
        c.stall += wait;
        c.wb_stall += wait;
      }
      c.wb_ready = t + wait + ac.latency;
      c.wb_line = line;
      m_.tracer().event(core_, "store-posted", now(), p.issue_cost + wait);
      c.busy += p.issue_cost;
      charge(Bucket::kCoherenceWrite, t, t + wait);  // buffer-full drain
      charge(Bucket::kCompute, t + wait, t + wait + p.issue_cost);
      m_.sched().wait_for(p.issue_cost + wait);
    } else {
      const Cycle busy_part = ac.latency < p.l_hit ? ac.latency : p.l_hit;
      c.busy += p.issue_cost + busy_part;
      c.stall += ac.latency - busy_part;
      const Cycle t = now();
      charge(Bucket::kCompute, t, t + p.issue_cost + busy_part);
      charge(Bucket::kCoherenceWrite, t + p.issue_cost + busy_part,
             t + p.issue_cost + ac.latency);
      m_.sched().wait_for(p.issue_cost + ac.latency);
    }
  }

  void account_atomic(std::uint64_t addr, arch::AtomicKind kind) {
    auto& c = m_.core(core_);
    ++c.mem_ops;
    ++c.atomics;
    const auto& p = m_.params();
    const auto ac = m_.coherence().atomic(core_, addr, now(), kind);
    m_.tracer().event(core_, "atomic", now(), p.issue_cost + ac.latency);
    // Atomics block the core for their full round trip.
    c.busy += p.issue_cost;
    c.stall += ac.latency;
    c.atomic_stall += ac.latency;
    const Cycle t = now();
    charge(Bucket::kCompute, t, t + p.issue_cost);
    charge(Bucket::kAtomic, t + p.issue_cost, t + p.issue_cost + ac.latency);
    m_.sched().wait_for(p.issue_cost + ac.latency);
  }

  arch::Machine& m_;
  Tid tid_;
  std::uint32_t nthreads_;
  std::vector<Placement>* placements_;
  Tid core_;
  std::uint32_t queue_;
  sim::Xoshiro256 rng_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> staged_replies_;
};

static_assert(ExecutionContext<SimCtx>);
// Simulated arenas align to kCacheLine (rt::AlignedArray), which must cover
// every line size the coherence model accepts.
static_assert(arch::CoherenceModel::kMaxLineBytes <= kCacheLine);

}  // namespace hmps::rt
