// The per-request correctness oracle and the exact counts a request
// yields. Expectations come from the programs' structure (distinct
// placement counts, K, verdict lines) and from the repository's
// independent checkers (placement::verify_placement, analysis::lint),
// never from recorded outputs of the tool under test. Everything here runs
// after the timed call, against the request's own (still alive) service.
#pragma once

#include <map>
#include <string>

#include "cli/driver.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Counts that must repeat exactly for a fixed seed (the determinism
/// check compares them across passes and processes).
using ExactCounts = std::map<std::string, long long>;

struct Observation {
  bool ok = true;
  std::string failure;  // first failed check, for the report
  ExactCounts exact;
  /// Peak retained placements of k-best enumerations. Depends on subtree
  /// completion order at --jobs > 1, so it is reported but not exact.
  long long kept_peak = 0;

  void fail(const std::string& why) {
    if (ok) failure = why;
    ok = false;
  }
  void add(const std::string& key, long long v) { exact[key] += v; }
};

/// Checks one completed request and collects its counts. `svc` is the
/// fresh service the request ran on; its stats are read before any lookup
/// here touches it.
[[nodiscard]] Observation observe(const Workload& w, const Request& r,
                                  const meshpar::cli::DriverResult& result,
                                  meshpar::service::Service& svc);

/// The explore k-best determinism check: re-runs a `--jobs 2` k-best
/// request at `--jobs 1` on a fresh service and compares placements and
/// engine counts. Returns an empty string on agreement.
[[nodiscard]] std::string compare_jobs(const Workload& w, const Request& r);

}  // namespace perfbench
