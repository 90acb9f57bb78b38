#include "harness/history.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

namespace hmps::harness {

namespace {

std::string describe(const OpRecord& op) {
  static const char* names[] = {"enq", "deq", "push", "pop", "inc", "read"};
  return std::string(names[static_cast<int>(op.kind)]) + "(arg=" +
         std::to_string(op.arg) + ", ret=" + std::to_string(op.ret) +
         ", t" + std::to_string(op.thread) + ", [" +
         std::to_string(op.invoke) + "," + std::to_string(op.response) + "])";
}

}  // namespace

SeqSpec queue_spec() { return {SeqSpec::Object::kQueue}; }
SeqSpec stack_spec() { return {SeqSpec::Object::kStack}; }
SeqSpec counter_spec() { return {SeqSpec::Object::kCounter}; }

std::uint64_t SeqSpec::apply(std::vector<std::uint64_t>& state,
                             const OpRecord& op) const {
  switch (object) {
    case Object::kQueue: {
      if (op.kind == OpKind::kEnq) {
        state.push_back(op.arg);
        return 0;
      }
      if (state.empty()) return kNothing;
      const std::uint64_t v = state.front();
      state.erase(state.begin());
      return v;
    }
    case Object::kStack: {
      if (op.kind == OpKind::kPush) {
        state.push_back(op.arg);
        return 0;
      }
      if (state.empty()) return kNothing;
      const std::uint64_t v = state.back();
      state.pop_back();
      return v;
    }
    case Object::kCounter:
      if (state.empty()) state.push_back(0);
      if (op.kind == OpKind::kRead) return state[0];
      return state[0]++;
  }
  return kNothing;
}

CheckResult check_queue_fast(const std::vector<OpRecord>& history) {
  CheckResult r;
  std::unordered_map<std::uint64_t, const OpRecord*> enqs, deqs;
  for (const auto& op : history) {
    if (op.kind == OpKind::kEnq) {
      if (!enqs.emplace(op.arg, &op).second) {
        return {false, "duplicate enqueue of value " + std::to_string(op.arg) +
                           " (values must be unique for this checker)"};
      }
    } else if (op.kind == OpKind::kDeq && op.ret != kNothing) {
      if (!deqs.emplace(op.ret, &op).second) {
        return {false, "value dequeued twice: " + describe(op)};
      }
    }
  }
  for (const auto& [v, d] : deqs) {
    auto it = enqs.find(v);
    if (it == enqs.end()) {
      return {false, "dequeued a value never enqueued: " + describe(*d)};
    }
    if (d->response <= it->second->invoke) {
      return {false, "dequeue completed before its enqueue began: " +
                         describe(*d) + " vs " + describe(*it->second)};
    }
  }
  // Real-time FIFO: enq(a) wholly before enq(b) => deq(b) not wholly before
  // deq(a).
  std::vector<std::pair<const OpRecord*, const OpRecord*>> pairs;
  pairs.reserve(deqs.size());
  for (const auto& [v, d] : deqs) pairs.push_back({enqs.at(v), d});
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      if (i == j) continue;
      const auto& [ea, da] = pairs[i];
      const auto& [eb, db] = pairs[j];
      if (ea->response < eb->invoke && db->response < da->invoke) {
        return {false, "FIFO violation: " + describe(*ea) + " precedes " +
                           describe(*eb) + " but " + describe(*db) +
                           " precedes " + describe(*da)};
      }
    }
  }
  return r;
}

CheckResult check_stack_fast(const std::vector<OpRecord>& history) {
  std::unordered_map<std::uint64_t, const OpRecord*> pushes, pops;
  for (const auto& op : history) {
    if (op.kind == OpKind::kPush) {
      if (!pushes.emplace(op.arg, &op).second) {
        return {false, "duplicate push of value " + std::to_string(op.arg) +
                           " (values must be unique for this checker)"};
      }
    } else if (op.kind == OpKind::kPop && op.ret != kNothing) {
      if (!pops.emplace(op.ret, &op).second) {
        return {false, "value popped twice: " + describe(op)};
      }
    }
  }
  for (const auto& [v, p] : pops) {
    auto it = pushes.find(v);
    if (it == pushes.end()) {
      return {false, "popped a value never pushed: " + describe(*p)};
    }
    if (p->response <= it->second->invoke) {
      return {false, "pop completed before its push began: " + describe(*p) +
                         " vs " + describe(*it->second)};
    }
  }
  return {};
}

CheckResult check_counter_fast(const std::vector<OpRecord>& history) {
  std::vector<const OpRecord*> incs;
  for (const auto& op : history) {
    if (op.kind == OpKind::kInc) incs.push_back(&op);
  }
  if (incs.empty()) return {};
  std::vector<std::uint64_t> rets;
  rets.reserve(incs.size());
  for (auto* op : incs) rets.push_back(op->ret);
  std::sort(rets.begin(), rets.end());
  for (std::size_t i = 0; i + 1 < rets.size(); ++i) {
    if (rets[i] == rets[i + 1]) {
      return {false,
              "two increments returned the same value " +
                  std::to_string(rets[i]) + " (lost update)"};
    }
    if (rets[i] + 1 != rets[i + 1]) {
      return {false, "increment results not consecutive around " +
                         std::to_string(rets[i])};
    }
  }
  // Real-time monotonicity: an increment wholly before another must return
  // the smaller value.
  for (const auto* a : incs) {
    for (const auto* b : incs) {
      if (a->response < b->invoke && a->ret >= b->ret) {
        return {false, "non-monotonic increments: " + describe(*a) +
                           " wholly precedes " + describe(*b)};
      }
    }
  }
  return {};
}

namespace {

std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Memo-key share of `value` held at position `pos` of the object. A
/// configuration's key is fmix64(mask) plus the sum of these over the
/// object's contents. The mask fixes how many values the object holds and
/// at which positions (a queue's head and tail, a stack's size, a counter's
/// count), so two configurations with one mask get one key exactly when
/// their contents are equal, up to 64-bit collisions. The multipliers keep
/// the value hash apart from the mask hash: were held(v, 0) = fmix64(v),
/// mask 2 holding 1 would get the key of mask 1 holding 2.
std::uint64_t held(std::uint64_t value, std::uint32_t pos) {
  return fmix64(value * 0x9e3779b97f4a7c15ULL +
                (pos + 1) * 0xd6e8feb86659fd93ULL);
}

/// Failed-configuration keys: open addressing with linear probing. One
/// table per host thread serves every search on it; a slot belongs to the
/// current search iff it carries the search's epoch, so starting a search
/// clears nothing and the table keeps the size the largest search needed.
class Memo {
 public:
  void begin() {
    if (++epoch_ == 0) {  // the stamps wrapped: forget them all once
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
    size_ = 0;
  }

  bool contains(std::uint64_t k) const {
    for (std::size_t i = slot(k);; i = (i + 1) & mask_) {
      if (slots_[i].epoch != epoch_) return false;
      if (slots_[i].key == k) return true;
    }
  }

  void insert(std::uint64_t k) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = slot(k);
    for (; slots_[i].epoch == epoch_; i = (i + 1) & mask_) {
      if (slots_[i].key == k) return;
    }
    slots_[i] = {k, epoch_};
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t epoch = 0;
  };

  std::size_t slot(std::uint64_t k) const {
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ULL) >> 32) &
           mask_;
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.epoch == epoch_) insert(s.key);
    }
  }

  static constexpr std::size_t kInitialSlots = 4096;

  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  std::size_t mask_ = kInitialSlots - 1;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 0;
};

/// A history as the search reads it, for at most 63 ops.
struct Plan {
  struct Op {
    std::uint64_t arg;
    std::uint64_t ret;
    bool produce;  ///< enqueue, push, or a counter increment
  };
  Op ops[64];
  /// Op i's bit in response-rank order (ties broken by index).
  std::uint64_t rank_bit[64];
  /// Ops invoked no later than the response of the op of rank r.
  std::uint64_t invoked_by[64];
  std::uint64_t full;

  Plan(const std::vector<OpRecord>& h, SeqSpec::Object object) {
    const std::size_t n = h.size();
    full = (std::uint64_t{1} << n) - 1;
    std::uint8_t order[64];
    for (std::size_t i = 0; i < n; ++i) {
      const OpKind k = h[i].kind;
      ops[i] = {h[i].arg, h[i].ret,
                object == SeqSpec::Object::kQueue   ? k == OpKind::kEnq
                : object == SeqSpec::Object::kStack ? k == OpKind::kPush
                                                    : k != OpKind::kRead};
      order[i] = static_cast<std::uint8_t>(i);
    }
    std::sort(order, order + n, [&](std::uint8_t a, std::uint8_t b) {
      return h[a].response != h[b].response ? h[a].response < h[b].response
                                            : a < b;
    });
    for (std::size_t r = 0; r < n; ++r) {
      rank_bit[order[r]] = std::uint64_t{1} << r;
      std::uint64_t by = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (h[j].invoke <= h[order[r]].response) by |= std::uint64_t{1} << j;
      }
      invoked_by[r] = by;
    }
  }
};

/// What applying an op did: its recorded result differs from the
/// object's (the op may not go next), or it matched and left the object
/// as it was, or it matched and changed it (undo() reverts that).
enum class Step : std::uint8_t { kRefused, kKept, kMoved };

/// The queue's values sit at [head, tail) of `buf`, indexed by enqueue
/// order along the current DFS path.
struct QueueState {
  std::uint64_t buf[64];
  std::uint32_t head = 0, tail = 0;

  Step apply(const Plan::Op& op, std::uint64_t* key) {
    if (op.produce) {
      if (op.ret != 0) return Step::kRefused;
      buf[tail] = op.arg;
      *key += held(op.arg, tail++);
      return Step::kMoved;
    }
    if (head == tail) return op.ret == kNothing ? Step::kKept : Step::kRefused;
    if (buf[head] != op.ret) return Step::kRefused;
    *key -= held(op.ret, head++);
    return Step::kMoved;
  }
  // A dequeue writes nothing and the path's later enqueues write at or past
  // `tail`, so the dequeued word is still in place.
  void undo(const Plan::Op& op) { op.produce ? --tail : --head; }
};

/// The stack's values sit at [0, size) of `buf`.
struct StackState {
  std::uint64_t buf[64];
  std::uint32_t size = 0;

  Step apply(const Plan::Op& op, std::uint64_t* key) {
    if (op.produce) {
      if (op.ret != 0) return Step::kRefused;
      buf[size] = op.arg;
      *key += held(op.arg, size++);
      return Step::kMoved;
    }
    if (size == 0) return op.ret == kNothing ? Step::kKept : Step::kRefused;
    if (buf[size - 1] != op.ret) return Step::kRefused;
    *key -= held(op.ret, --size);
    return Step::kMoved;
  }
  // A push below this pop reused the popped slot: write the word back.
  void undo(const Plan::Op& op) {
    if (op.produce) {
      --size;
    } else {
      buf[size++] = op.ret;
    }
  }
};

/// The counter's value is the number of increments in the mask, so the
/// mask alone is the memo key.
struct CounterState {
  std::uint64_t count = 0;

  Step apply(const Plan::Op& op, std::uint64_t* /*key*/) {
    if (op.ret != count) return Step::kRefused;
    if (!op.produce) return Step::kKept;
    ++count;
    return Step::kMoved;
  }
  void undo(const Plan::Op& /*op*/) { --count; }
};

thread_local Memo tl_memo;

/// Wing & Gong DFS over (linearized-mask, object state). Candidates are the
/// unlinearized ops invoked no later than the earliest unlinearized
/// response, tried in index order; each is applied in place and undone
/// after its subtree fails. Every node entered counts against `max_nodes`,
/// memo hits included, and failed configurations are memoized by key.
template <class State>
class Search {
 public:
  Search(const Plan& plan, std::uint64_t max_nodes)
      : plan_(plan), max_nodes_(max_nodes) {
    tl_memo.begin();
  }

  /// `pending` holds the unlinearized ops by response rank; `sum` is the
  /// object's share of the memo key.
  bool dfs(std::uint64_t mask, std::uint64_t pending, std::uint64_t sum) {
    if (mask == plan_.full) return true;
    if (max_nodes_ > 0 && ++nodes_ > max_nodes_) {
      exhausted_ = true;
      return false;
    }
    if (exhausted_) return false;
    const std::uint64_t key = fmix64(mask) + sum;
    if (tl_memo.contains(key)) return false;
    const std::uint64_t candidates =
        ~mask & plan_.invoked_by[std::countr_zero(pending)];
    for (std::uint64_t c = candidates; c != 0; c &= c - 1) {
      const int i = std::countr_zero(c);
      const Plan::Op& op = plan_.ops[i];
      std::uint64_t child = sum;
      const Step step = state_.apply(op, &child);
      if (step == Step::kRefused) continue;
      if (dfs(mask | (std::uint64_t{1} << i), pending & ~plan_.rank_bit[i],
              child)) {
        return true;
      }
      if (step == Step::kMoved) state_.undo(op);
    }
    tl_memo.insert(key);
    return false;
  }

  bool exhausted() const { return exhausted_; }

 private:
  const Plan& plan_;
  const std::uint64_t max_nodes_;
  State state_;
  std::uint64_t nodes_ = 0;
  bool exhausted_ = false;
};

/// Runs the search for `State`; true iff a linearization was found.
template <class State>
bool search(const Plan& plan, std::uint64_t max_nodes, bool* exhausted) {
  Search<State> s(plan, max_nodes);
  const bool found = s.dfs(0, plan.full, 0);
  *exhausted = s.exhausted();
  return found;
}

}  // namespace

CheckResult linearizable(const std::vector<OpRecord>& history,
                         const SeqSpec& spec, std::uint64_t max_nodes) {
  const std::size_t n = history.size();
  if (n == 0) return {};
  if (n > 63) {
    return {false, "history too large for the complete checker (max 63 ops)"};
  }

  const Plan plan(history, spec.object);
  bool exhausted = false;
  const bool found =
      spec.object == SeqSpec::Object::kQueue
          ? search<QueueState>(plan, max_nodes, &exhausted)
      : spec.object == SeqSpec::Object::kStack
          ? search<StackState>(plan, max_nodes, &exhausted)
          : search<CounterState>(plan, max_nodes, &exhausted);
  if (found) return {};
  if (exhausted) {
    CheckResult r;
    r.reason = "complete search exceeded " + std::to_string(max_nodes) +
               " nodes (inconclusive)";
    r.inconclusive = true;
    return r;
  }
  return {false, "no linearization exists for this history of " +
                     std::to_string(n) + " ops"};
}

}  // namespace hmps::harness
