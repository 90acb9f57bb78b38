// check_explore: schedule-exploration driver (docs/TESTING.md).
//
//   check_explore --budget 30s                    # fuzz all constructions
//   check_explore --schedules 500 --seed 7        # fixed schedule count
//   check_explore --construction hybcomb --object counter
//   check_explore --selftest --budget 60s         # seeded-bug end-to-end
//   check_explore --replay repro.json             # re-run an hmps-repro-v1
//
// Exit codes: 0 = clean (or replay/selftest passed), 1 = violation found
// (or replay/selftest mismatch), 2 = usage / I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/explore.hpp"
#include "check/repro.hpp"
#include "harness/run_pool.hpp"

namespace {

using namespace hmps;

void usage() {
  std::fprintf(
      stderr,
      "usage: check_explore [options]\n"
      "  --budget S[s]         wall-clock budget in seconds (default 30)\n"
      "  --schedules N         stop after N schedules (0 = budget-bound)\n"
      "  --seed N              exploration seed (default 1)\n"
      "  --construction LIST   comma-separated subset (default: all):\n"
      "                        mp_server,hybcomb,shm_server,ccsynch,\n"
      "                        dsm_synch,flat_combining,hsynch,oyama,\n"
      "                        mcs_lock,mp_server_hub,sharded\n"
      "  --object LIST         counter,queue,stack,lcrq,elim_stack\n"
      "  --fuzz-machines       also draw random machine parameters\n"
      "  --inject-bug N        seed the test-only HybComb defect (drop every\n"
      "                        Nth combined request)\n"
      "  --jobs N              scenario-execution workers (default: \n"
      "                        $HMPS_JOBS, then hardware concurrency); the\n"
      "                        failing scenario and shrunk repro are\n"
      "                        identical for every N\n"
      "  --out FILE            write the shrunk repro as hmps-repro-v1\n"
      "  --replay FILE         re-run a repro and compare its violation\n"
      "  --selftest            seeded-bug find+shrink+replay end-to-end\n"
      "  --verbose             progress to stderr\n");
}

bool parse_budget(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || v < 0) return false;
  if (*end != '\0' && std::strcmp(end, "s") != 0) return false;
  *out = v;
  return true;
}

bool split_list(const std::string& arg, std::vector<std::string>* out) {
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::string tok =
        arg.substr(start, comma == std::string::npos ? comma : comma - start);
    if (tok.empty()) return false;
    out->push_back(tok);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out->empty();
}

void print_scenario(const char* tag, const check::Scenario& s) {
  std::printf(
      "%s: %s on %s, %u threads x %u ops, max_ops %llu, shards %u, "
      "machine %s, seed %llu\n",
      tag, harness::to_string(s.cfg.construction),
      harness::to_string(s.cfg.object), s.cfg.threads, s.cfg.ops_each,
      static_cast<unsigned long long>(s.cfg.max_ops), s.cfg.shards,
      s.cfg.params.name.c_str(),
      static_cast<unsigned long long>(s.cfg.seed));
  std::printf(
      "%s: perturb{seed %llu, change_points %u, resume %u%%o x %llu, "
      "point %u%%o <= %llu}%s\n",
      tag, static_cast<unsigned long long>(s.perturb.seed),
      s.perturb.change_points, s.perturb.resume_permille,
      static_cast<unsigned long long>(s.perturb.delay_unit),
      s.perturb.point_permille,
      static_cast<unsigned long long>(s.perturb.point_delay_max),
      s.cfg.faults.enabled() ? " + faults" : "");
}

int do_replay(const std::string& path) {
  check::Scenario s;
  check::Violation expect;
  std::string err;
  if (!check::read_repro_file(path, &s, &expect, &err)) {
    std::fprintf(stderr, "check_explore: %s\n", err.c_str());
    return 2;
  }
  print_scenario("replay", s);
  const check::Violation got = check::run_scenario(s);
  if (got.found) {
    std::printf("replay: violation [%s] %s\n", got.kind.c_str(),
                got.detail.c_str());
  } else {
    std::printf("replay: no violation\n");
  }
  if (expect.found != got.found ||
      (expect.found && expect.kind != got.kind)) {
    std::printf("replay: MISMATCH with recorded violation [%s] %s\n",
                expect.kind.c_str(), expect.detail.c_str());
    return 1;
  }
  std::printf("replay: matches the recorded outcome\n");
  return 0;
}

int do_selftest(double budget, std::uint64_t seed, bool verbose) {
  // Seed the test-only HybComb defect (a combiner dropping every 3rd
  // combined request) and require the harness to find it, shrink it to a
  // small repro, and replay it deterministically.
  check::ExploreCfg cfg;
  cfg.seed = seed;
  cfg.budget_seconds = budget;
  cfg.constructions = {harness::Construction::kHybComb};
  cfg.objects = {harness::Object::kCounter};
  cfg.hyb_bug_drop_every = 3;
  cfg.verbose = verbose;
  const check::ExploreResult r = check::explore(cfg);
  std::printf("selftest: %llu schedules run\n",
              static_cast<unsigned long long>(r.schedules_run));
  if (!r.violation_found) {
    std::printf("selftest: FAILED - seeded bug not found within budget\n");
    return 1;
  }
  print_scenario("selftest found", r.failing);
  std::printf("selftest: violation [%s] %s\n", r.violation.kind.c_str(),
              r.violation.detail.c_str());
  print_scenario("selftest shrunk", r.shrunk);
  std::printf("selftest: shrink used %llu candidate runs\n",
              static_cast<unsigned long long>(r.shrink_runs));
  if (r.shrunk.cfg.threads > 4 || r.shrunk.cfg.ops_each > 8) {
    std::printf("selftest: FAILED - shrunk repro too large (%u threads, %u "
                "ops)\n",
                r.shrunk.cfg.threads, r.shrunk.cfg.ops_each);
    return 1;
  }
  // Round-trip through hmps-repro-v1 and replay twice: the violation must
  // reproduce identically from the serialized form.
  const std::string json = check::repro_to_json(r.shrunk, r.shrunk_violation);
  check::Scenario replayed;
  check::Violation expect;
  std::string err;
  if (!check::repro_from_json(json, &replayed, &expect, &err)) {
    std::printf("selftest: FAILED - repro round-trip: %s\n", err.c_str());
    return 1;
  }
  const check::Violation v1 = check::run_scenario(replayed);
  const check::Violation v2 = check::run_scenario(replayed);
  if (!v1.found || v1.kind != expect.kind || v1.detail != v2.detail) {
    std::printf("selftest: FAILED - replay not deterministic\n");
    return 1;
  }
  std::printf("selftest: PASSED (shrunk to %u threads x %u ops, "
              "deterministic replay)\n",
              r.shrunk.cfg.threads, r.shrunk.cfg.ops_each);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  check::ExploreCfg cfg;
  cfg.jobs = harness::resolve_jobs(0);  // $HMPS_JOBS, then h/w concurrency
  std::string out_path;
  std::string replay_path;
  bool selftest = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "check_explore: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--budget") {
      if (!parse_budget(next(), &cfg.budget_seconds)) {
        std::fprintf(stderr, "check_explore: bad --budget value\n");
        return 2;
      }
    } else if (a == "--schedules") {
      cfg.max_schedules = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--construction") {
      std::vector<std::string> toks;
      if (!split_list(next(), &toks)) return 2;
      for (const auto& t : toks) {
        harness::Construction c;
        if (!harness::construction_from_string(t, &c)) {
          std::fprintf(stderr, "check_explore: unknown construction '%s'\n",
                       t.c_str());
          return 2;
        }
        cfg.constructions.push_back(c);
      }
    } else if (a == "--object") {
      std::vector<std::string> toks;
      if (!split_list(next(), &toks)) return 2;
      for (const auto& t : toks) {
        harness::Object o;
        if (!harness::object_from_string(t, &o)) {
          std::fprintf(stderr, "check_explore: unknown object '%s'\n",
                       t.c_str());
          return 2;
        }
        cfg.objects.push_back(o);
      }
    } else if (a == "--jobs") {
      cfg.jobs = harness::resolve_jobs(
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10)));
    } else if (a == "--fuzz-machines") {
      cfg.fuzz_machines = true;
    } else if (a == "--inject-bug") {
      cfg.hyb_bug_drop_every = std::strtoull(next(), nullptr, 10);
    } else if (a == "--out") {
      out_path = next();
    } else if (a == "--replay") {
      replay_path = next();
    } else if (a == "--selftest") {
      selftest = true;
    } else if (a == "--verbose") {
      cfg.verbose = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "check_explore: unknown option '%s'\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (!replay_path.empty()) return do_replay(replay_path);
  if (selftest) return do_selftest(cfg.budget_seconds, cfg.seed, cfg.verbose);

  const check::ExploreResult r = check::explore(cfg);
  std::printf("explored %llu schedules (%llu ops checked, %llu searches "
              "inconclusive)\n",
              static_cast<unsigned long long>(r.schedules_run),
              static_cast<unsigned long long>(r.ops_checked),
              static_cast<unsigned long long>(r.inconclusive));
  if (!r.violation_found) {
    std::printf("no violation found\n");
    return 0;
  }
  print_scenario("failing", r.failing);
  std::printf("violation: [%s] %s\n", r.violation.kind.c_str(),
              r.violation.detail.c_str());
  print_scenario("shrunk", r.shrunk);
  std::printf("shrunk violation: [%s] %s\n", r.shrunk_violation.kind.c_str(),
              r.shrunk_violation.detail.c_str());
  if (!out_path.empty()) {
    std::string err;
    if (!check::write_repro_file(out_path, r.shrunk, r.shrunk_violation,
                                 &err)) {
      std::fprintf(stderr, "check_explore: %s\n", err.c_str());
      return 2;
    }
    std::printf("repro written to %s\n", out_path.c_str());
  }
  return 1;
}
