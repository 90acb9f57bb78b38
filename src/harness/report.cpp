#include "harness/report.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <utility>

namespace hmps::harness {

void Table::print(const std::string& title) const {
  std::vector<std::size_t> w(cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) w[c] = cols_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size() && c < w.size(); ++c) {
      if (r[c].size() > w[c]) w[c] = r[c].size();
    }
  }
  std::cout << "== " << title << " ==\n";
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      const std::string& s = c < cells.size() ? cells[c] : std::string();
      std::cout << "  " << s;
      for (std::size_t k = s.size(); k < w[c]; ++k) std::cout << ' ';
    }
    std::cout << '\n';
  };
  line(cols_);
  std::vector<std::string> dashes;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    dashes.push_back(std::string(w[c], '-'));
  }
  line(dashes);
  for (const auto& r : rows_) line(r);
  std::cout.flush();
}

void Table::write_csv(const std::string& path) const {
  std::ofstream f(path);
  auto row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) f << ',';
      f << cells[c];
    }
    f << '\n';
  };
  row(cols_);
  for (const auto& r : rows_) row(r);
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

namespace {

constexpr const char* kUsage =
    "flags: [--full] [--quick] [--csv FILE] [--json FILE] [--trace FILE] "
    "[--threads N] [--window CYCLES] [--reps N] [--seed N] [--jobs N] "
    "[--mesh WxH] [--telemetry-window CYCLES] [--noc] [--noc-combining]";

using Flags = std::initializer_list<std::string_view>;

/// The usage line: every common flag, or only those in `reads`.
std::string usage(const Flags* reads) {
  if (reads == nullptr) return kUsage;
  const std::string_view all = kUsage;
  std::string u = "flags:";
  for (std::size_t b = all.find('['); b != all.npos;
       b = all.find('[', b + 1)) {
    const std::string_view group = all.substr(b, all.find(']', b) + 1 - b);
    const std::string_view flag =
        group.substr(1, group.find_first_of(" ]") - 1);
    if (std::find(reads->begin(), reads->end(), flag) != reads->end()) {
      u += " " + std::string(group);
    }
  }
  return u;
}

[[noreturn]] void usage_error(const std::string& what,
                              const Flags* reads = nullptr) {
  std::cerr << what << "\n" << usage(reads) << "\n";
  std::exit(2);
}

/// `s` as a whole decimal number no larger than `max`.
std::uint64_t number(std::string_view flag, const std::string& s,
                     std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])) ||
      *end != '\0' || errno != 0 || v > max) {
    usage_error("bad " + std::string(flag) + " value '" + s +
                "' (want a whole number)");
  }
  return v;
}

/// The field a flag table names for `flag`, or nullptr.
template <class T, std::size_t N>
T* field(const std::pair<std::string_view, T*> (&table)[N],
         std::string_view flag) {
  for (const auto& [name, f] : table) {
    if (name == flag) return f;
  }
  return nullptr;
}

}  // namespace

BenchArgs BenchArgs::parse(int argc, char** argv, Flags bench_flags,
                           Flags own_loop_reads) {
  const Flags* reads = own_loop_reads.size() > 0 ? &own_loop_reads : nullptr;
  BenchArgs a;
  const std::pair<std::string_view, bool*> switches[] = {
      {"--full", &a.full},
      {"--quick", &a.quick},
      {"--noc", &a.noc},
      {"--noc-combining", &a.noc_combining}};
  const std::pair<std::string_view, std::string*> paths[] = {
      {"--csv", &a.csv}, {"--json", &a.json}, {"--trace", &a.trace}};
  const std::pair<std::string_view, std::uint64_t*> wide[] = {
      {"--window", &a.window},
      {"--seed", &a.seed},
      {"--telemetry-window", &a.telemetry_window}};
  const std::pair<std::string_view, std::uint32_t*> narrow[] = {
      {"--threads", &a.threads}, {"--reps", &a.reps}, {"--jobs", &a.jobs}};
  for (int i = 1; i < argc; ++i) {
    const std::string_view f = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + std::string(f));
      return argv[++i];
    };
    if (f == "--help") {
      std::cout << usage(reads) << "\n";
      std::exit(0);
    }
    if (std::find(bench_flags.begin(), bench_flags.end(), f) !=
        bench_flags.end()) {
      continue;
    }
    if (reads != nullptr &&
        std::find(reads->begin(), reads->end(), f) == reads->end()) {
      usage_error("flag '" + std::string(f) + "' is not read by this bench",
                  reads);
    }
    if (bool* b = field(switches, f)) {
      *b = true;
    } else if (std::string* path = field(paths, f)) {
      *path = value();
    } else if (std::uint64_t* n = field(wide, f)) {
      *n = number(f, value(), UINT64_MAX);
    } else if (std::uint32_t* n32 = field(narrow, f)) {
      *n32 = static_cast<std::uint32_t>(number(f, value(), UINT32_MAX));
    } else if (f == "--mesh") {
      const std::string v = value();
      const std::size_t x = v.find('x');
      if (x == std::string::npos) {
        usage_error("bad --mesh value '" + v + "' (want WxH, e.g. 16x16)");
      }
      a.mesh_w = static_cast<std::uint32_t>(
          number(f, v.substr(0, x), UINT32_MAX));
      a.mesh_h = static_cast<std::uint32_t>(
          number(f, v.substr(x + 1), UINT32_MAX));
      if (a.mesh_w == 0 || a.mesh_h == 0) {
        usage_error("bad --mesh value '" + v + "' (want WxH, e.g. 16x16)");
      }
    } else {
      usage_error("unknown flag '" + std::string(f) + "'");
    }
  }
  return a;
}

RunCfg BenchArgs::run_cfg(RunCfg base) const {
  base.seed = seed;
  if (window != 0) base.window = window;
  if (reps != 0) base.reps = reps;
  if (mesh_w != 0) {
    base.machine.mesh_w = mesh_w;
    base.machine.mesh_h = mesh_h;
  }
  base.machine.model_link_contention |= noc;
  base.machine.noc_combining |= noc_combining;
  if (telemetry_window != 0) base.telemetry_window = telemetry_window;
  return base;
}

}  // namespace hmps::harness
