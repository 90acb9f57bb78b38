// NativeCtx: the ExecutionContext backend for real hardware threads.
//
// Shared-memory operations map onto std::atomic with acquire/release
// ordering (fence() is a full seq_cst fence); message passing maps onto one
// MpscChannel per thread — i.e. message passing emulated over coherent
// shared memory, the configuration the paper identifies as inherently
// paying coherence RMRs per message. Used for correctness tests under real
// concurrency and for the Section 5.5 native comparison.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/mpsc_channel.hpp"
#include "sim/rng.hpp"

namespace hmps::rt {

/// Shared environment for a set of native threads: one inbound channel per
/// thread id.
class NativeEnv {
 public:
  explicit NativeEnv(std::uint32_t nthreads, std::size_t chan_slots = 1024) {
    chans_.reserve(nthreads);
    for (std::uint32_t i = 0; i < nthreads; ++i) {
      chans_.push_back(std::make_unique<MpscChannel>(chan_slots));
    }
  }

  std::uint32_t nthreads() const {
    return static_cast<std::uint32_t>(chans_.size());
  }
  MpscChannel& chan(Tid t) { return *chans_[t]; }

 private:
  std::vector<std::unique_ptr<MpscChannel>> chans_;
};

class NativeCtx {
 public:
  NativeCtx(NativeEnv& env, Tid tid, std::uint64_t seed)
      : env_(env), tid_(tid), rng_(seed) {}

  Tid tid() const { return tid_; }
  std::uint32_t nthreads() const { return env_.nthreads(); }
  std::uint64_t rand_below(std::uint64_t bound) { return rng_.below(bound); }

  // ---- shared memory ----

  template <class T>
  T load(const std::atomic<T>* p) {
    return p->load(std::memory_order_acquire);
  }
  template <class T>
  void store(std::atomic<T>* p, T v) {
    p->store(v, std::memory_order_release);
  }
  std::uint64_t faa(std::atomic<std::uint64_t>* p, std::uint64_t d) {
    return p->fetch_add(d, std::memory_order_acq_rel);
  }
  template <class T>
  T exchange(std::atomic<T>* p, T v) {
    return p->exchange(v, std::memory_order_acq_rel);
  }
  template <class T>
  bool cas(std::atomic<T>* p, T expect, T desired) {
    return p->compare_exchange_strong(expect, desired,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire);
  }
  void fence() { std::atomic_thread_fence(std::memory_order_seq_cst); }
  void prefetch(const void* p) { __builtin_prefetch(p); }

  // ---- message passing ----

  void send(Tid dst, const std::uint64_t* words, std::size_t n) {
    env_.chan(dst).send(words, n);
  }
  void send(Tid dst, std::initializer_list<std::uint64_t> words) {
    send(dst, words.begin(), words.size());
  }

  void receive(std::uint64_t* out, std::size_t n) {
    std::uint32_t spins = 0;
    while (staged_.size() < n) {
      std::uint64_t msg[MpscChannel::kMaxWords];
      const std::size_t got = env_.chan(tid_).try_recv(msg);
      if (got == 0) {
        backoff(&spins);
        continue;
      }
      spins = 0;
      for (std::size_t i = 0; i < got; ++i) staged_.push_back(msg[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = staged_.front();
      staged_.pop_front();
    }
  }

  std::uint64_t receive1() {
    std::uint64_t w;
    receive(&w, 1);
    return w;
  }

  /// Same as receive(); the SimCtx counterpart attributes the wait to a
  /// dedicated cycle-account bucket, natively there is nothing to account.
  void receive_async(std::uint64_t* out, std::size_t n) { receive(out, n); }

  bool queue_empty() { return staged_.empty() && env_.chan(tid_).empty(); }

  /// Async replies popped while waiting for a different tag (ReplyStash);
  /// the staged-word queue above keeps whole frames in arrival order.
  ReplyStash& replies() { return replies_; }

  // ---- execution ----

  void compute(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      asm volatile("" ::: "memory");  // empty-loop local work
    }
  }

  /// Spin hint. Mostly `pause`, but periodically yields to the OS so spin
  /// loops stay live on oversubscribed hosts (e.g. single-CPU CI boxes,
  /// where a pure pause-spin would burn a whole scheduling quantum per
  /// lock handoff).
  void cpu_relax() { backoff(&relax_spins_); }

  /// Spins on `*p` until `done(value)` holds and returns that value.
  template <class T, class Done>
  T spin_until(const std::atomic<T>* p, Done done) {
    for (;;) {
      const T v = load(p);
      if (done(v)) return v;
      cpu_relax();
    }
  }

  Cycle now() const {
#if defined(__x86_64__)
    // rdtscp waits for all preceding instructions to retire, and the
    // trailing lfence keeps later loads from hoisting above the read —
    // an unserialized rdtsc can float across the measured region and
    // skew native_micro / sec55_discussion latencies.
    std::uint32_t lo, hi, aux;
    asm volatile("rdtscp" : "=a"(lo), "=d"(hi), "=c"(aux));
    asm volatile("lfence" ::: "memory");
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
#else
    return static_cast<Cycle>(std::chrono::steady_clock::now()
                                  .time_since_epoch()
                                  .count());
#endif
  }

 private:
  static void backoff(std::uint32_t* spins) {
    if (++*spins % 64 == 0) {
      std::this_thread::yield();
    } else {
      MpscChannel::cpu_pause();
    }
  }

  NativeEnv& env_;
  Tid tid_;
  sim::Xoshiro256 rng_;
  std::deque<std::uint64_t> staged_;  // words popped but not yet consumed
  ReplyStash replies_;
  std::uint32_t relax_spins_ = 0;
};

static_assert(ExecutionContext<NativeCtx>);

}  // namespace hmps::rt
