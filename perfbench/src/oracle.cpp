#include "oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "analysis/lint.hpp"
#include "cli/options.hpp"
#include "opt/proof.hpp"
#include "placement/cost.hpp"
#include "placement/verify.hpp"

namespace perfbench {
namespace {

using meshpar::placement::Placement;
using meshpar::service::PlacementSet;
using meshpar::service::Service;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::string last_line(const std::string& text) {
  std::size_t end = text.find_last_not_of('\n');
  if (end == std::string::npos) return "";
  std::size_t begin = text.rfind('\n', end);
  return text.substr(begin == std::string::npos ? 0 : begin + 1,
                     end - (begin == std::string::npos ? 0 : begin + 1) + 1);
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

/// The N of a leading "N distinct placements" line, or -1.
long long leading_distinct(const std::string& out) {
  const std::size_t sp = out.find(' ');
  if (sp == std::string::npos || !starts_with(out.substr(sp), " distinct"))
    return -1;
  return std::atoll(out.substr(0, sp).c_str());
}

class Checker {
 public:
  Checker(const Workload& w, Service& svc, Observation& obs)
      : w_(w), svc_(svc), obs_(obs) {}

  /// Checks one invocation's rendered output and exit code.
  void call(const std::vector<std::string>& args, int program, int exit_code,
            const std::string& out, const std::string& label) {
    const meshpar::cli::Options o = meshpar::cli::parse_args(args);
    const Program& p = w_.programs[program];
    auto fail = [&](const std::string& why) {
      obs_.fail(label + ": " + why);
    };
    if (exit_code != 0) {
      fail("exit code " + std::to_string(exit_code));
      return;
    }
    const std::string last = last_line(out);
    if (o.command == "check") {
      if (!starts_with(last, "ACCEPTED")) fail("check did not end ACCEPTED");
      return;
    }
    if (o.command == "deps") {
      if (!starts_with(out, "| kind")) fail("deps printed no table");
      return;
    }
    // Everything else works on the request's ranked placements.
    const PlacementSet& set = placements(p, o);
    const std::size_t expected =
        o.k_best ? o.max_solutions : std::size_t(p.full_distinct);
    if (set.placements.size() != expected) {
      fail("expected " + std::to_string(expected) + " placements, got " +
           std::to_string(set.placements.size()));
      return;
    }
    if (o.command == "place") {
      if (leading_distinct(out) != static_cast<long long>(expected))
        fail("place did not report " + std::to_string(expected) +
             " distinct placements");
      if (o.k_best) check_k_best(set, fail);
      gen(*set.compiled->model, set.placements[0]);
    } else if (o.command == "lint") {
      if (last != "LINT: all placements coherent" ||
          count_of(out, ": coherent (") != expected)
        fail("lint did not find every placement coherent");
    } else if (o.command == "opt") {
      if (!starts_with(last, "OPTIMIZED")) fail("opt did not end OPTIMIZED");
      meshpar::opt::OptimizeOptions oo;
      oo.dynamic_proof = false;
      const meshpar::opt::OptimizeReport rep = meshpar::opt::optimize_placement(
          *set.compiled->model, *set.compiled->fg, set.placements[0], oo);
      obs_.add("opt.msgs_saved", rep.cost_raw.messages - rep.cost_opt.messages);
      gen(*set.compiled->model, rep.ok() ? rep.optimized : set.placements[0]);
    } else if (o.command == "verify") {
      if (!starts_with(last, "VERIFIED") ||
          count_of(out, ": verified (") != expected)
        fail("verify did not verify every placement");
    } else if (o.command == "soak") {
      const std::string f = std::to_string(o.faults);
      if (out.find("RECOVERY: all " + f + "/" + f + " injected faults healed") ==
          std::string::npos)
        fail("soak did not heal every fault");
    } else if (o.command == "profile") {
      if (!starts_with(out, "profile of placement #0"))
        fail("profile printed no profile");
    } else {
      fail("no oracle for '" + o.command + "'");
    }
  }

 private:
  /// The request's placement set, served from its own service (a cache hit
  /// on a service that ran the request). Each distinct set's engine
  /// statistics are counted once, as the service computed it once.
  const PlacementSet& placements(const Program& p,
                                 const meshpar::cli::Options& o) {
    const meshpar::placement::ToolOptions topt = o.tool_options();
    auto set = svc_.placements(p.source, p.spec, topt);
    const std::string key = Service::content_key(p.source, p.spec) + "/" +
                            Service::options_key(topt);
    if (seen_.insert(key).second) {
      obs_.add("placement.states_tried", set->stats.assignments);
      obs_.add("placement.backtracks", set->stats.backtracks);
      obs_.add("placement.raw_solutions",
               static_cast<long long>(set->stats.solutions));
      obs_.add("placement.dominance_pruned", set->stats.dominance_pruned);
      obs_.add("placement.distinct",
               static_cast<long long>(set->placements.size()));
      obs_.kept_peak = std::max(obs_.kept_peak,
                                static_cast<long long>(set->stats.kept_peak));
    }
    held_.push_back(set);
    return *set;
  }

  template <typename Fail>
  void check_k_best(const PlacementSet& set, Fail& fail) {
    const auto& ps = set.placements;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      if (i > 0 && ps[i].cost < ps[i - 1].cost)
        fail("k-best placements out of cost order at #" + std::to_string(i));
      if (!meshpar::placement::verify_placement(*set.compiled->model,
                                                *set.compiled->fg, ps[i])
               .ok())
        fail("k-best placement #" + std::to_string(i) + " fails the verifier");
      if (!meshpar::analysis::lint_placement(*set.compiled->model, ps[i])
               .clean())
        fail("k-best placement #" + std::to_string(i) + " is not lint-clean");
    }
  }

  /// Messages and bytes per sweep of a handed-back placement, on the
  /// repository's example decomposition (the modelled cost).
  void gen(const meshpar::placement::ProgramModel& model, const Placement& p) {
    const meshpar::overlap::Decomposition d =
        meshpar::placement::example_decomposition(model);
    const meshpar::placement::CostReport c =
        meshpar::placement::simulate_cost(model, p, d);
    obs_.add("gen.msgs_per_sweep", c.messages);
    obs_.add("gen.bytes_per_sweep", c.bytes);
  }

  const Workload& w_;
  Service& svc_;
  Observation& obs_;
  std::set<std::string> seen_;
  std::vector<std::shared_ptr<const PlacementSet>> held_;
};

/// Splits a batch report into per-entry output sections.
std::vector<std::string> batch_sections(const std::string& out,
                                        std::size_t entries) {
  std::vector<std::string> sections;
  for (std::size_t i = 0; i < entries; ++i) {
    const std::string head = "---- entry #" + std::to_string(i) + ": ";
    std::size_t at = out.find(head);
    if (at == std::string::npos) break;
    at = out.find('\n', at);
    if (at == std::string::npos) break;
    const std::string next = "---- entry #" + std::to_string(i + 1) + ": ";
    std::size_t end = out.find(next, at);
    if (end == std::string::npos) end = out.rfind("BATCH: ");
    if (end == std::string::npos || end < at) break;
    sections.push_back(out.substr(at + 1, end - at - 1));
  }
  return sections;
}

}  // namespace

Observation observe(const Workload& w, const Request& r,
                    const meshpar::cli::DriverResult& result, Service& svc) {
  Observation obs;
  const meshpar::service::CacheStats st = svc.stats();
  obs.add("service.compile_hits", st.compile.hits);
  obs.add("service.compile_misses", st.compile.misses);
  obs.add("service.placements_hits", st.placements.hits);
  obs.add("service.placements_misses", st.placements.misses);
  obs.add("service.results_hits", st.results.hits);
  obs.add("service.results_misses", st.results.misses);

  Checker check(w, svc, obs);
  if (!r.batch()) {
    check.call(r.args, r.program, result.exit_code, result.output, r.label);
    return obs;
  }
  if (result.exit_code != 0) obs.fail(r.label + ": batch exit code " +
                                      std::to_string(result.exit_code));
  const std::string verdict = "BATCH: " + std::to_string(r.entries.size()) +
                              " ok, 0 failed, 0 errors;";
  if (!starts_with(last_line(result.output), verdict))
    obs.fail(r.label + ": expected '" + verdict + "'");
  const std::vector<std::string> sections =
      batch_sections(result.output, r.entries.size());
  if (sections.size() != r.entries.size()) {
    obs.fail(r.label + ": batch report lacks entry sections");
    return obs;
  }
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    const Call& c = r.entries[i];
    check.call(c.args, c.program, 0, sections[i], r.label + " " + c.name);
  }
  return obs;
}

std::string compare_jobs(const Workload& w, const Request& r) {
  std::vector<std::string> one = r.args;
  std::vector<std::string> two = r.args;
  for (std::size_t i = 0; i + 1 < one.size(); ++i)
    if (one[i] == "--jobs") one[i + 1] = "1";
  const Program& p = w.programs[r.program];
  Service s1, s2;
  const meshpar::cli::DriverResult r1 =
      meshpar::cli::run_driver(one, p.source, p.spec, &s1);
  const meshpar::cli::DriverResult r2 =
      meshpar::cli::run_driver(two, p.source, p.spec, &s2);
  if (r1.output != r2.output || r1.exit_code != r2.exit_code)
    return r.label + ": output differs between --jobs 1 and --jobs 2";
  const Observation o1 = observe(w, r, r1, s1);
  const Observation o2 = observe(w, r, r2, s2);
  if (!o1.ok) return o1.failure;
  if (o1.exact != o2.exact)
    return r.label + ": exact counts differ between --jobs 1 and --jobs 2";
  return "";
}

}  // namespace perfbench
