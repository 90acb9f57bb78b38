#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace hmps::bench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  double logs = 0;
  std::size_t n = 0;
  for (const double x : v) {
    if (x > 0) {
      logs += std::log(x);
      ++n;
    }
  }
  return n ? std::exp(logs / static_cast<double>(n)) : 0;
}

int SpanLog::begin(const char* name, int parent, std::uint64_t run) {
  static std::atomic<int> next_thread{0};
  thread_local const int thread = next_thread++;
  const double t = now_s();
  std::lock_guard<std::mutex> l(mu_);
  spans_.push_back({name, t, t, parent, run, thread});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> l(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> l(mu_);
  return spans_;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  const std::vector<Span> s = spans();
  // Child intervals per parent, merged so overlapping children (run-pool
  // workers) are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> kids(s.size());
  for (const Span& x : s) {
    if (x.parent >= 0) {
      kids[static_cast<std::size_t>(x.parent)].push_back({x.start, x.end});
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < s.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0, from = s[i].start;
    for (const auto& [a, b] : k) {
      const double lo = std::max(a, from), hi = std::min(b, s[i].end);
      if (hi > lo) covered += hi - lo;
      from = std::max(from, hi);
    }
    self[s[i].name] += (s[i].end - s[i].start) - covered;
  }
  return self;
}

bool SpanLog::write_chrome(const std::string& path) const {
  const std::vector<Span> s = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":%llu}}%s\n",
                 s[i].name, s[i].thread,
                 (s[i].start - origin_) * 1e6,
                 (s[i].end - s[i].start) * 1e6, i, s[i].parent,
                 static_cast<unsigned long long>(s[i].run),
                 i + 1 < s.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hmps::bench
