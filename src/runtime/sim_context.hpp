// SimCtx: the ExecutionContext backend that runs algorithms on the
// discrete-event machine model.
//
// Functional effects apply at the instant the fiber executes the call
// (a legal linearization point inside the operation's latency interval,
// valid because the whole simulation runs on one host thread); the fiber
// then sleeps for the modeled latency, its cycles booked on the core
// (arch::CoreState::book).
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
      c.book(Bucket::kCoherenceWrite, t, wait);  // write-buffer drain
      m_.sched().wait_until(c.wb_ready);
    }
    book(Bucket::kCompute, t + wait, m_.params().fence_cost);
    m_.sched().wait_for(m_.params().fence_cost);
  }

  void prefetch(const void* p) {
    if (!m_.params().allow_prefetch) return;
    fault_stall();
    auto& c = m_.core(core_);
    const std::uint64_t addr = reinterpret_cast<std::uint64_t>(p);
    c.prefetch_line = m_.coherence().line_of(addr);
    c.prefetch_ready = m_.coherence().prefetch(core_, addr, now());
    c.book(Bucket::kCompute, now(), 1);
    m_.sched().wait_for(1);
  }

  // ---- message passing ----

  void send(Tid dst_thread, const std::uint64_t* words, std::size_t n) {
    fault_stall();
    const Cycle t0 = now();
    m_.udn().send(core_, core_of_thread(dst_thread),
                  queue_of_thread(dst_thread), words, n);
    m_.tracer().event(core_, "send", t0, book_send(t0, n));
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

  /// Async replies popped while waiting for a different tag (ReplyStash).
  /// Register-file bookkeeping: no cycles are booked.
  ReplyStash& replies() { return replies_; }

  bool queue_empty() {
    probe();
    return m_.udn().queue_empty(core_, queue_);
  }

  // ---- virtual-link channels (arch/vlink.hpp; sim-only transport) ----
  // Accounting reuses the UDN ops' buckets (push backpressure is
  // kUdnSendBlock, pop waits are kUdnRecvWait / kUdnAsyncWait), so Fig. 4a
  // style breakdowns compare the transports without new schema buckets.

  void vlink_push(std::uint32_t ch, const std::uint64_t* words,
                  std::size_t n) {
    fault_stall();
    const Cycle t0 = now();
    m_.vlink().push(core_, ch, words, n);
    m_.tracer().event(core_, "vlink-push", t0, book_send(t0, n));
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
    probe();
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
      arch::CoreState& c = m_.core(core_);
      arch::CoherenceModel& coh = m_.coherence();
      arch::CoherenceModel::LineHint hint =
          coh.hint(reinterpret_cast<std::uint64_t>(p));
      // From here on every change to the line, the word or this core's
      // prefetch slot notifies the poller's group; `clean` says whether
      // its next load would be the hit returning `v` (the value may have
      // changed during the load's own latency).
      coh.watch(hint);
      const bool clean = p->load(std::memory_order_relaxed) == v &&
                         c.prefetch_line != hint.line &&
                         coh.readable(core_, hint);
      const sim::Scheduler::PollGroup group{
          &kSpinGroup, sim::Scheduler::kPhasePlain, clean, hint.line,
          &c.parked};
      m_.sched().park_polling(
          &SimCtx::spin_poll<T>,
          SpinPoll<T>{{&m_, &c, hint, par.issue_cost + par.l_hit, core_,
                       false},
                      p, v},
          &group);
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
      book(Bucket::kPreempted, now(), d);
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
    const Cycle t0 = now();
    m_.vlink().pop(core_, ch, out, n);
    m_.tracer().event(core_, name, t0, book_receive(t0, n, wait_bucket));
  }

  void receive_impl(std::uint64_t* out, std::size_t n, Bucket wait_bucket,
                    const char* wait_name) {
    fault_stall();
    const Cycle t0 = now();
    const bool had = m_.udn().words_pending(core_, queue_) >= n;
    m_.udn().receive(core_, queue_, out, n);
    m_.tracer().event(core_, had ? "receive" : wait_name, t0,
                      book_receive(t0, n, wait_bucket));
  }

  /// Books [t, t+n) to `b` on this core (arch::CoreState::book). Pure
  /// bookkeeping: never advances simulated time. Reads the core through
  /// Machine::core(), which first settles core-mates' parked spins, so it
  /// is what an operation books with after it waited; one that has not
  /// waited since it read its CoreState books on that directly.
  void book(Bucket b, Cycle t, Cycle n) { m_.core(core_).book(b, t, n); }

  /// Books a send or vlink push of `n` words that began at `t0` and
  /// returns its cycles. The injection tail is fixed; anything before it
  /// was credit backpressure (the sender suspended before reserving space).
  Cycle book_send(Cycle t0, std::size_t n) {
    const Cycle dt = now() - t0;
    const Cycle inject = m_.params().udn_inject +
                         m_.params().udn_per_word_wire * static_cast<Cycle>(n);
    const Cycle block = dt > inject ? dt - inject : 0;
    book(Bucket::kUdnSendBlock, t0, block);
    book(Bucket::kCompute, t0 + block, dt - block);
    return dt;
  }

  /// Books a receive or vlink pop of `n` words that began at `t0` and
  /// returns its cycles. The register reads trail; everything before them
  /// (an empty-queue wait, a vlink pop's home round trip) is a wait on
  /// `wait_bucket`, neither busy nor stalled.
  Cycle book_receive(Cycle t0, std::size_t n, Bucket wait_bucket) {
    const Cycle dt = now() - t0;
    const Cycle pop = m_.params().udn_recv_word * static_cast<Cycle>(n);
    assert(dt >= pop);
    book(wait_bucket, t0, dt - pop);
    book(Bucket::kCompute, t0 + dt - pop, pop);
    return dt;
  }

  /// A one-cycle queue probe (queue_empty, vlink_empty).
  void probe() {
    fault_stall();
    book(Bucket::kCompute, now(), 1);
    m_.sched().wait_for(1);
  }

  /// Occupies the core for `cycles`, attributed to `bucket`.
  void busy_wait(Cycle cycles, Bucket bucket, const char* name) {
    if (cycles == 0) return;
    fault_stall();
    m_.tracer().event(core_, name, now(), cycles);
    book(bucket, now(), cycles);
    m_.sched().wait_for(cycles);
  }

  /// A spin_until() parked behind its poller. The scheduler keeps it in
  /// the fiber's slot (Scheduler::kPollRecordBytes), so a poll step reads
  /// this record, the core's state and the line's state, and nothing
  /// of the SimCtx. The part that does not depend on T comes first: the
  /// poll group hooks read only that.
  struct SpinState {
    arch::Machine* m;
    arch::CoreState* c;   ///< state of `core`
    arch::CoherenceModel::LineHint hint;  ///< the line holding *p
    Cycle load_cycles;    ///< a cache-hit load's occupancy: issue + l_hit
    Tid core;
    bool poll_next;       ///< next step: the load (true) or the relax
  };
  template <class T>
  struct SpinPoll {
    SpinState s;
    const std::atomic<T>* p;
    T last;               ///< value of the last real load (not done)
  };

  static SpinState& spin_state(void* rec) {
    return *std::launder(static_cast<SpinState*>(rec));
  }

  /// Scheduler::PollGroupOps::move for parked spins: a load-phase group
  /// counts its k hits. Observers see every step (the tracer its events,
  /// the profiler its hits), so with one attached the members step.
  static Cycle spin_move(void* rec, std::uint8_t phase, std::uint32_t k) {
    const SpinState& s = spin_state(rec);
    arch::Machine& m = *s.m;
    if (m.tracer().enabled() || m.coherence().profiler() != nullptr ||
        s.load_cycles >= sim::EventQueue::kWheel) {
      return sim::Scheduler::kHandBack;
    }
    if (phase == sim::Scheduler::kPhasePlain) return 1;
    m.coherence().count_hits(k);
    return s.load_cycles;
  }

  /// Scheduler::PollGroupOps::settle for parked spins.
  static void spin_settle(void* rec, Cycle from, Cycle to) {
    SpinState& s = spin_state(rec);
    s.poll_next = s.c->book_spin(from, to, s.poll_next, s.load_cycles);
  }

  static constexpr sim::Scheduler::PollGroupOps kSpinGroup{&spin_move,
                                                           &spin_settle};

  /// The poller (Scheduler::PollFn): one of the loop's two steps, which
  /// alternate, with its exact bookkeeping (CoreState::spin_step, the one
  /// spin_settle books a moved group's steps with, and the tracer event);
  /// returns the step's cycles.
  /// Hands back to the fiber (Scheduler::kHandBack) when the next load
  /// might differ from a plain cache hit returning `last`: the word
  /// changed, the line is no longer readable here, or a prefetch of it is
  /// outstanding.
  template <class T>
  static Cycle spin_poll(void* rec) {
    SpinPoll<T>& r = *std::launder(static_cast<SpinPoll<T>*>(rec));
    SpinState& s = r.s;
    arch::Machine& m = *s.m;
    arch::CoreState& c = *s.c;
    if (s.poll_next && (r.p->load(std::memory_order_relaxed) != r.last ||
                        c.prefetch_line == s.hint.line ||
                        !m.coherence().read_hit(s.core, s.hint))) {
      return sim::Scheduler::kHandBack;
    }
    const Cycle t = m.sched().now();
    const Cycle d = c.spin_step(t, s.poll_next, s.load_cycles);
    m.tracer().event(s.core, s.poll_next ? "load-hit" : "spin", t, d);
    s.poll_next = !s.poll_next;
    return d;
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
      ++m_.core(core_).preemptions;
      book(Bucket::kPreempted, t, until - t);
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
    // The value is usable `lat` cycles after issue; up to l_hit of them
    // are the pipeline's, the rest wait for remote data.
    const auto& p = m_.params();
    const Cycle lat = extra_wait + ac.latency;
    const Cycle busy = p.issue_cost + (lat < p.l_hit ? lat : p.l_hit);
    const Cycle t = now();
    m_.tracer().event(core_, ac.remote ? "load-miss" : "load-hit", t,
                      p.issue_cost + lat);
    c.book(Bucket::kCompute, t, busy);
    c.book(Bucket::kCoherenceRead, t + busy, p.issue_cost + lat - busy);
    m_.sched().wait_for(p.issue_cost + lat);
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
      c.book(Bucket::kCompute, now(), p.issue_cost);
      m_.sched().wait_for(p.issue_cost);
      return;
    }
    const auto ac = m_.coherence().write(core_, addr, now());
    const Cycle t = now();
    if (ac.remote && p.posted_writes) {
      // Posted store: retires through the write buffer in the background;
      // it waits only while the single-entry buffer is still draining.
      const Cycle wait = c.wb_ready > t ? c.wb_ready - t : 0;
      c.wb_ready = t + wait + ac.latency;
      c.wb_line = line;
      m_.tracer().event(core_, "store-posted", t, p.issue_cost + wait);
      c.book(Bucket::kCoherenceWrite, t, wait);  // buffer-full drain
      c.book(Bucket::kCompute, t + wait, p.issue_cost);
      m_.sched().wait_for(p.issue_cost + wait);
    } else {
      const Cycle busy_part = ac.latency < p.l_hit ? ac.latency : p.l_hit;
      c.book(Bucket::kCompute, t, p.issue_cost + busy_part);
      c.book(Bucket::kCoherenceWrite, t + p.issue_cost + busy_part,
             ac.latency - busy_part);
      m_.sched().wait_for(p.issue_cost + ac.latency);
    }
  }

  void account_atomic(std::uint64_t addr, arch::AtomicKind kind) {
    auto& c = m_.core(core_);
    ++c.mem_ops;
    const auto& p = m_.params();
    const auto ac = m_.coherence().atomic(core_, addr, now(), kind);
    m_.tracer().event(core_, "atomic", now(), p.issue_cost + ac.latency);
    // Atomics block the core for their full round trip.
    const Cycle t = now();
    c.book(Bucket::kCompute, t, p.issue_cost);
    c.book(Bucket::kAtomic, t + p.issue_cost, ac.latency);
    m_.sched().wait_for(p.issue_cost + ac.latency);
  }

  arch::Machine& m_;
  Tid tid_;
  std::uint32_t nthreads_;
  std::vector<Placement>* placements_;
  Tid core_;
  std::uint32_t queue_;
  sim::Xoshiro256 rng_;
  ReplyStash replies_;
};

static_assert(ExecutionContext<SimCtx>);
// Simulated arenas align to kCacheLine (rt::AlignedArray), which must cover
// every line size the coherence model accepts.
static_assert(arch::CoherenceModel::kMaxLineBytes <= kCacheLine);

}  // namespace hmps::rt
