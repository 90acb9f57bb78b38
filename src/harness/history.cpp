#include "harness/history.hpp"

#include <algorithm>
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

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

SeqSpec queue_spec() {
  SeqSpec s;
  s.apply = [](std::vector<std::uint64_t>& state, const OpRecord& op) {
    if (op.kind == OpKind::kEnq) {
      state.push_back(op.arg);
      return std::uint64_t{0};
    }
    // dequeue
    if (state.empty()) return kNothing;
    const std::uint64_t v = state.front();
    state.erase(state.begin());
    return v;
  };
  return s;
}

SeqSpec stack_spec() {
  SeqSpec s;
  s.apply = [](std::vector<std::uint64_t>& state, const OpRecord& op) {
    if (op.kind == OpKind::kPush) {
      state.push_back(op.arg);
      return std::uint64_t{0};
    }
    if (state.empty()) return kNothing;
    const std::uint64_t v = state.back();
    state.pop_back();
    return v;
  };
  return s;
}

SeqSpec counter_spec() {
  SeqSpec s;
  s.apply = [](std::vector<std::uint64_t>& state, const OpRecord& op) {
    if (state.empty()) state.push_back(0);
    if (op.kind == OpKind::kRead) return state[0];
    return state[0]++;
  };
  return s;
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

/// Set of 64-bit memo keys: open addressing with linear probing, key 0
/// stored out of line. Sized for 2,048 keys before its first growth, so a
/// search allocates the same few blocks whether it visits ten nodes or a
/// thousand.
class KeySet {
 public:
  bool contains(std::uint64_t k) const {
    if (k == 0) return has_zero_;
    for (std::size_t i = slot(k);; i = (i + 1) & mask_) {
      if (keys_[i] == k) return true;
      if (keys_[i] == 0) return false;
    }
  }

  void insert(std::uint64_t k) {
    if (k == 0) {
      has_zero_ = true;
      return;
    }
    if (2 * (size_ + 1) > keys_.size()) rehash(2 * keys_.size());
    std::size_t i = slot(k);
    for (; keys_[i] != 0; i = (i + 1) & mask_) {
      if (keys_[i] == k) return;
    }
    keys_[i] = k;
    ++size_;
  }

 private:
  std::size_t slot(std::uint64_t k) const {
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ULL) >> 32) &
           mask_;
  }

  void rehash(std::size_t cap) {
    std::vector<std::uint64_t> old(cap, 0);
    old.swap(keys_);
    mask_ = cap - 1;
    size_ = 0;
    for (std::uint64_t k : old) {
      if (k != 0) insert(k);
    }
  }

  static constexpr std::size_t kInitialSlots = 4096;

  std::vector<std::uint64_t> keys_ =
      std::vector<std::uint64_t>(kInitialSlots, 0);
  std::size_t mask_ = kInitialSlots - 1;
  std::size_t size_ = 0;
  bool has_zero_ = false;
};

/// Wing & Gong DFS over (linearized-mask, spec state). Each node pushes the
/// state it entered with onto one stack of saved words and restores it
/// after every candidate; failed configurations are memoized by the hash of
/// (mask, state).
class Search {
 public:
  Search(const std::vector<OpRecord>& history, const SeqSpec& spec,
         std::uint64_t max_nodes)
      : h_(history), spec_(spec), n_(history.size()), max_nodes_(max_nodes) {
    // The built-in specs hold at most one word per op applied so far.
    state_.reserve(n_ + 1);
    saved_.reserve((n_ + 1) * (n_ + 1));
  }

  bool dfs(std::uint64_t mask) {
    if (mask == (std::uint64_t{1} << n_) - 1) return true;
    if (max_nodes_ > 0 && ++nodes_ > max_nodes_) {
      exhausted_ = true;
      return false;
    }
    if (exhausted_) return false;
    std::uint64_t key = mask;
    for (std::uint64_t v : state_) key = mix(key, v);
    if (failed_.contains(key)) return false;

    // Minimal-response bound among unlinearized ops: an op may linearize
    // next only if no unlinearized op responded before it was invoked.
    Cycle min_resp = sim::kCycleMax;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!(mask & (std::uint64_t{1} << i))) {
        min_resp = std::min(min_resp, h_[i].response);
      }
    }
    const std::size_t saved_at = saved_.size();
    saved_.insert(saved_.end(), state_.begin(), state_.end());
    for (std::size_t i = 0; i < n_; ++i) {
      if (mask & (std::uint64_t{1} << i)) continue;
      if (h_[i].invoke > min_resp) continue;  // someone must go first
      const std::uint64_t expect = spec_.apply(state_, h_[i]);
      if (expect == h_[i].ret && dfs(mask | (std::uint64_t{1} << i))) {
        return true;
      }
      state_.assign(saved_.begin() + saved_at, saved_.end());
    }
    saved_.resize(saved_at);
    failed_.insert(key);
    return false;
  }

  bool exhausted() const { return exhausted_; }

 private:
  const std::vector<OpRecord>& h_;
  const SeqSpec& spec_;
  const std::size_t n_;
  const std::uint64_t max_nodes_;
  std::vector<std::uint64_t> state_;
  std::vector<std::uint64_t> saved_;  ///< entry states along the DFS path
  KeySet failed_;
  std::uint64_t nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

CheckResult linearizable(const std::vector<OpRecord>& history,
                         const SeqSpec& spec, std::uint64_t max_nodes) {
  const std::size_t n = history.size();
  if (n == 0) return {};
  if (n > 63) {
    return {false, "history too large for the complete checker (max 63 ops)"};
  }

  Search search(history, spec, max_nodes);
  if (search.dfs(0)) return {};
  if (search.exhausted()) {
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
