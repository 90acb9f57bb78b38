// Lightweight statistics containers used throughout the simulator and the
// benchmark harness: streaming summaries and fixed-bucket histograms.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace hmps::sim {

/// Self-counters of the discrete-event engine (see docs/ENGINE.md). The
/// event queue updates these on every schedule/pop; they are cheap enough to
/// keep on unconditionally and let tests assert the zero-allocation contract
/// instead of taking it on faith.
struct EngineCounters {
  std::uint64_t scheduled = 0;      ///< events ever pushed
  std::uint64_t executed = 0;       ///< events ever popped
  std::uint64_t spill_allocs = 0;   ///< callbacks too big for inline storage
  /// Reallocations of the event queue's own vectors (callable pool, free
  /// slots, wheel links, overflow heap) as they grow to a run's high-water
  /// mark; none once they have reached it.
  std::uint64_t heap_grows = 0;
  std::uint64_t peak_depth = 0;     ///< max simultaneous pending events
  std::uint64_t fast_forwards = 0;  ///< waits satisfied without an event
  std::uint64_t polled = 0;  ///< resumes a poller consumed without a switch
  /// Pops of poll blocks that ran two or more members, and the members
  /// those pops ran (docs/ENGINE.md, "Poll blocks"). Kept out of the
  /// hmps-metrics-v2 engine block.
  std::uint64_t poll_blocks = 0;
  std::uint64_t block_members = 0;
  /// Poll groups moved whole without stepping a member, and the members
  /// they held (docs/ENGINE.md, "Poll groups"). Kept out of hmps-metrics-v2.
  std::uint64_t group_moves = 0;
  std::uint64_t moved_members = 0;
};

/// Streaming min/max/mean/variance accumulator (Welford's algorithm).
class Summary {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::uint64_t count() const { return n_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  /// Exact running sum (not reconstructed from the mean, which loses bits
  /// once n * mean exceeds the significand).
  double sum() const { return sum_; }

  void merge(const Summary& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double n1 = static_cast<double>(n_), n2 = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    mean_ = (n1 * mean_ + n2 * o.mean_) / (n1 + n2);
    m2_ += o.m2_ + delta * delta * n1 * n2 / (n1 + n2);
    n_ += o.n_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Histogram over [0, bucket_width * nbuckets) with an overflow bucket;
/// supports approximate quantiles, good enough for latency reporting.
class Histogram {
 public:
  Histogram(std::uint64_t bucket_width, std::size_t nbuckets)
      : width_(bucket_width ? bucket_width : 1), buckets_(nbuckets + 1, 0) {}

  void add(std::uint64_t x) {
    std::size_t b = static_cast<std::size_t>(x / width_);
    if (b >= buckets_.size() - 1) b = buckets_.size() - 1;
    ++buckets_[b];
    ++total_;
    summary_.add(static_cast<double>(x));
  }

  std::uint64_t count() const { return total_; }
  const Summary& summary() const { return summary_; }

  /// Approximate quantile (bucket upper bound). q in [0,1].
  std::uint64_t quantile(double q) const {
    if (total_ == 0) return 0;
    const std::uint64_t target = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (seen > target) return (b + 1) * width_;
    }
    return buckets_.size() * width_;
  }

 private:
  std::uint64_t width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  Summary summary_;
};

/// Deterministic sample reservoir for tail quantiles (p99/p999): exact as
/// long as the sample count stays within capacity, and deterministic —
/// never randomized — beyond it, so two runs with the same seed produce
/// byte-identical quantiles (the property every artifact test in this repo
/// leans on; a classic randomized reservoir would need its own RNG stream
/// threaded everywhere).
///
/// Overflow policy: when full, the reservoir halves itself by keeping every
/// other sample (in arrival order) and from then on accepts every 2^k-th
/// arrival. This is systematic decimation: the kept subsequence is an
/// unbiased arrival-ordered thinning, which preserves quantiles of
/// stationary streams and keeps periodic structure visible. Capacity
/// defaults high enough that service benches stay exact.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 1 << 16)
      : cap_(capacity < 2 ? 2 : capacity) {}

  void add(std::uint64_t x) {
    summary_.add(static_cast<double>(x));
    ++seen_;
    if (stride_ > 1 && (seen_ - 1) % stride_ != 0) return;
    if (v_.size() == cap_) {
      // Halve: keep arrivals 0, 2stride, 4stride, ... (every other kept one).
      std::size_t w = 0;
      for (std::size_t i = 0; i < v_.size(); i += 2) v_[w++] = v_[i];
      v_.resize(w);
      stride_ *= 2;
      if ((seen_ - 1) % stride_ != 0) return;
    }
    v_.push_back(x);
  }

  std::uint64_t count() const { return seen_; }
  std::size_t kept() const { return v_.size(); }
  const Summary& summary() const { return summary_; }

  /// Exact quantile over the kept samples: sorted copy, linear
  /// interpolation between adjacent order statistics (the R type-7 /
  /// NumPy default definition). q in [0,1]; q=0.999 is the p999 the
  /// service harness reports.
  ///
  /// Interpolation, not nearest-rank rounding: rounding the rank q*(n-1)
  /// and rounding the decimated rank q*(n/2^k - 1) disagree whenever the
  /// fractional rank falls in [0.25, 0.5) — an off-by-one-sample error
  /// that appears the moment the reservoir first halves, i.e. at exactly
  /// 2^16 + 1 arrivals with the default capacity. Interpolated quantiles
  /// of a stride-decimated stream match the interpolated quantiles of the
  /// full offline sort (tests/test_service.cpp pins the boundary).
  std::uint64_t quantile(double q) const { return quantiles({q})[0]; }

  /// quantile() at each of `qs`, from one sorted copy: a run's p50, p99
  /// and p999 pay for one sort, not three.
  template <std::size_t N>
  std::array<std::uint64_t, N> quantiles(const double (&qs)[N]) const {
    std::array<std::uint64_t, N> out{};
    if (v_.empty()) return out;
    std::vector<std::uint64_t> s(v_);
    std::sort(s.begin(), s.end());
    for (std::size_t k = 0; k < N; ++k) out[k] = sorted_quantile(s, qs[k]);
    return out;
  }

  void merge(const Reservoir& o) {
    // Merge keeps it simple: append o's kept samples (callers merge
    // same-stride per-thread reservoirs well under capacity).
    summary_.merge(o.summary_);
    seen_ += o.seen_;
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }

 private:
  static std::uint64_t sorted_quantile(const std::vector<std::uint64_t>& s,
                                       double q) {
    double r = q * static_cast<double>(s.size() - 1);
    if (r < 0) r = 0;
    const std::size_t i = static_cast<std::size_t>(r);
    if (i >= s.size() - 1) return s.back();
    const double frac = r - static_cast<double>(i);
    const double lo = static_cast<double>(s[i]);
    const double hi = static_cast<double>(s[i + 1]);
    return static_cast<std::uint64_t>(lo + (hi - lo) * frac);
  }

  std::size_t cap_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<std::uint64_t> v_;
  Summary summary_;
};

}  // namespace hmps::sim
