// mptool_perfbench: the end-to-end `mptool` benchmark.
//
//   mptool_perfbench --workload explore|analyze|certify --seed N
//                    --seconds S --trace 0|1 --workdir DIR
//                    [--commit SHA] [--source-digest HEX]
//
// One client sends the workload's fixed request list in a closed loop.
// Every request is a cold `mptool` call: cli::run_driver, the code path of
// the binary minus the file read, on a fresh service::Service as a new
// process would have. The list is sent again, at least twice, until S
// seconds of clean request time (see kStealLimit) have been measured. A
// request's latency is the median of its clean samples; wall_s sums them
// and req_p50_ms / req_p90_ms are taken over them.
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer metrics: each pass runs the list
// untraced, then traced, then replays it layer by layer (layers.hpp).
//
// Every request is checked by the oracle (oracle.hpp) outside the timed
// region; its exact counts must repeat in every pass. The last line of
// stdout is the JSON result {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cli/driver.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "service/service.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 7;     // set-up repetitions; setup_s is their median
constexpr std::size_t kMinPasses = 2;  // the in-run determinism check needs two
// A request during which the hypervisor ran other guests on more than this
// share of the host's CPU time is timed but its latency is not used: the
// SPMD runtime's thread hand-offs slow down 2-3x under such steal, which
// says nothing about the program. The run is extended (up to kMaxStretch x
// --seconds) to collect --seconds of clean request time.
constexpr double kStealLimit = 0.05;
constexpr double kMaxStretch = 1.2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

std::optional<Args> parse(int argc, char** argv, std::string* error) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      *error = k + " needs a value";
      return std::nullopt;
    }
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stoi(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--workdir") a.workdir = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--source-digest") a.source_digest = v;
      else {
        *error = "unknown flag " + k;
        return std::nullopt;
      }
    } catch (const std::exception&) {
      *error = "bad value '" + v + "' for " + k;
      return std::nullopt;
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                a.workload) == workload_names().end())
    *error = "--workload must be explore, analyze or certify";
  else if (a.seconds < 1)
    *error = "--seconds must be >= 1";
  else if (a.trace != 0 && a.trace != 1)
    *error = "--trace must be 0 or 1";
  else if (a.workdir.empty())
    *error = "--workdir is required";
  if (!error->empty()) return std::nullopt;
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The host fingerprint printed with every result: results from
/// different fingerprints are not comparable (run.py --compare refuses).
std::string fingerprint(const Args& a) {
  std::ostringstream os;
  os << "{\"cpus\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":\"" << json_escape(cpu_model())
     << "\",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"commit\":\"" << json_escape(a.commit)
     << "\",\"source_digest\":\"" << json_escape(a.source_digest) << "\"}";
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Peak resident memory of this process image in MB (VmHWM). getrusage's
/// ru_maxrss would also count the parent's pages from before the exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Host CPU time counters (jiffies) from /proc/stat: steal and total.
struct CpuTimes {
  long long steal = 0;
  long long total = 0;
};
CpuTimes cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTimes t;
  stat >> cpu;
  for (int field = 0; field < 10 && stat; ++field) {
    long long v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;  // zeros where /proc/stat is unavailable: nothing is filtered
}

/// Runs one request cold and checks it; returns its latency in ms and the
/// steal share of host CPU time during the timed call.
struct Sent {
  double ms = 0;
  double steal = 0;
  Observation obs;
};
Sent send(const Workload& w, const Request& r, bool traced) {
  static const std::string kNone;  // batch reads its inputs from files
  meshpar::service::Service svc;
  const std::string& source =
      r.batch() ? kNone : w.programs[r.program].source;
  const std::string& spec =
      r.batch() ? kNone : w.programs[r.program].spec;
  Sent s;
  meshpar::cli::DriverResult res;
  {
    std::optional<meshpar::trace::Tracer> tracer;
    std::optional<meshpar::trace::ScopedInstall> guard;
    if (traced) {
      tracer.emplace();
      guard.emplace(&*tracer);
    }
    const CpuTimes c0 = cpu_times();
    const Clock::time_point t0 = Clock::now();
    res = meshpar::cli::run_driver(r.args, source, spec, &svc);
    s.ms = seconds_since(t0) * 1000.0;
    const CpuTimes c1 = cpu_times();
    if (c1.total > c0.total)
      s.steal = double(c1.steal - c0.steal) / double(c1.total - c0.total);
  }
  s.obs = observe(w, r, res, svc);
  return s;
}

/// One pass over the request list.
struct Pass {
  std::vector<double> latencies_ms;
  std::vector<double> steal;  // per request
  ExactCounts exact;
  long long kept_peak = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  [[nodiscard]] double clean_s() const {
    double sum = 0;
    for (std::size_t i = 0; i < latencies_ms.size(); ++i)
      if (steal[i] <= kStealLimit) sum += latencies_ms[i];
    return sum / 1000.0;
  }
  [[nodiscard]] double wall_s() const {
    double sum = 0;
    for (double v : latencies_ms) sum += v;
    return sum / 1000.0;
  }
};

Pass run_pass(const Workload& w, bool traced) {
  Pass p;
  for (const Request& r : w.requests) {
    Sent s = send(w, r, traced);
    p.latencies_ms.push_back(s.ms);
    p.steal.push_back(s.steal);
    for (const auto& [k, v] : s.obs.exact) p.exact[k] += v;
    p.kept_peak = std::max(p.kept_peak, s.obs.kept_peak);
    if (!s.obs.ok) {
      ++p.failed;
      p.failures.push_back(s.obs.failure);
    }
  }
  return p;
}

std::string counts_json(const ExactCounts& c) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [k, v] : c) {
    os << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  os << "}";
  return os.str();
}

double ratio(long long num, long long den) {
  return den > 0 ? double(num) / double(den) : 0.0;
}
long long count(const ExactCounts& c, const std::string& k) {
  auto it = c.find(k);
  return it == c.end() ? 0 : it->second;
}

/// Prints the per-workload layer-share report of one replay, with the
/// layers the workload was chosen to stress next to the observed split.
void share_report(const Workload& w, const LayerSample& s, double traced_ms) {
  double attributed = 0;
  std::vector<std::pair<std::string, double>> rows;
  for (const LayerGroup& g : layer_groups()) {
    rows.emplace_back(g.name, group_self_ms(g, s));
    attributed += rows.back().second;
  }
  auto share = [&](double v) { return attributed > 0 ? 100.0 * v / attributed : 0.0; };
  char line[160];
  std::cout << "layer shares (" << w.name
            << "; self time of the replay, share of the attributed time):\n";
  double predicted = 0;
  for (const auto& [name, v] : rows) {
    const bool p = std::find(w.predicted.begin(), w.predicted.end(), name) !=
                   w.predicted.end();
    if (p) predicted += v;
    std::snprintf(line, sizeof line, "  %-24s %12.3f ms %6.2f%%%s\n",
                  name.c_str(), v, share(v), p ? "  (predicted dominant)" : "");
    std::cout << line;
  }
  const double unattributed = traced_ms - attributed;
  std::snprintf(line, sizeof line,
                "  %-24s %12.3f ms %6.2f%% of the traced request time\n",
                "unattributed", unattributed,
                traced_ms > 0 ? 100.0 * unattributed / traced_ms : 0.0);
  std::cout << line;
  std::snprintf(line, sizeof line,
                "  predicted dominant layers hold %.2f%% of the attributed "
                "time: %s\n",
                share(predicted),
                share(predicted) > 50.0 ? "as predicted" : "DRIFTED");
  std::cout << line;
}

int run(const Args& a) {
  namespace fs = std::filesystem;
  const fs::path workdir = a.workdir;
  std::vector<std::string> failures;
  long long attempted = 0, failed = 0;

  // ---- set-up, repeated; the last one's inputs are used ----------------
  std::vector<double> setups;
  Workload w;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    w = make_workload(a.workload, a.seed, workdir);
    write_inputs(w, workdir);
    const Sent warm = send(w, w.warmup, false);
    setups.push_back(seconds_since(t0));
    if (!warm.obs.ok) failures.push_back("warm-up: " + warm.obs.failure);
  }

  std::cout << "perfbench workload=" << w.name << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace << "\n"
            << "fingerprint " << fingerprint(a) << "\n"
            << "why: " << w.why << "\n"
            << "requests: " << w.requests.size()
            << " per pass, one client, closed loop\n";

  // ---- the measured loop ----------------------------------------------
  std::vector<Pass> passes;
  std::vector<double> traced_wall_s;
  std::vector<LayerSample> samples;
  const Clock::time_point start = Clock::now();
  double clean_s = 0;  // clean request time so far
  // The traced run reports no gated metric, so it is not stretched.
  auto measured = [&] { return a.trace ? seconds_since(start) : clean_s; };
  while (passes.size() < kMinPasses ||
         (measured() < a.seconds &&
          seconds_since(start) < kMaxStretch * a.seconds)) {
    passes.push_back(run_pass(w, false));
    clean_s += passes.back().clean_s();
    if (a.trace) {
      traced_wall_s.push_back(run_pass(w, true).wall_s());
      LayerSample s;
      for (const Request& r : w.requests) replay(w, r, s);
      samples.push_back(std::move(s));
    }
  }
  for (const Pass& p : passes) {
    attempted += static_cast<long long>(p.latencies_ms.size());
    failed += p.failed;
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
  }

  // ---- determinism: exact counts repeat in every pass -------------------
  for (std::size_t i = 1; i < passes.size(); ++i)
    if (passes[i].exact != passes[0].exact)
      failures.push_back("determinism: exact counts of pass " +
                         std::to_string(i) + " differ from pass 0");
  for (std::size_t i = 1; i < samples.size(); ++i)
    if (samples[i].exact != samples[0].exact)
      failures.push_back("determinism: replay counts of pass " +
                         std::to_string(i) + " differ from pass 0");
  if (w.name == "explore")
    for (const Request& r : w.requests)
      if (r.args[0] == "place" &&
          std::find(r.args.begin(), r.args.end(), "--k-best") != r.args.end())
        if (std::string why = compare_jobs(w, r); !why.empty())
          failures.push_back("determinism: " + why);

  ExactCounts exact = passes[0].exact;
  if (!samples.empty())
    for (const auto& [k, v] : samples[0].exact) exact[k] = v;
  std::cout << "exact_counts " << counts_json(exact) << "\n";

  // ---- metrics ----------------------------------------------------------
  // A request's latency is the median of its clean samples (of all its
  // samples when fewer than two are clean). Taking each request's median
  // before summing filters a burst of host noise request by request.
  std::vector<double> typical_ms;
  std::size_t used = 0;
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    std::vector<double> clean, all;
    for (const Pass& p : passes) {
      all.push_back(p.latencies_ms[i]);
      if (p.steal[i] <= kStealLimit) clean.push_back(p.latencies_ms[i]);
    }
    const std::vector<double>& lat = clean.size() >= 2 ? clean : all;
    used += lat.size();
    typical_ms.push_back(median(lat));
  }
  double wall_ms = 0;
  for (double v : typical_ms) wall_ms += v;
  const double error_rate = ratio(failed, attempted);

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"wall_s", wall_ms / 1000.0, "s"},
        {"req_p50_ms", quantile(typical_ms, 0.5), "ms"},
        {"req_p90_ms", quantile(typical_ms, 0.9), "ms"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> unattributed, overhead;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const LayerSample& s = samples[i];
      for (const auto& [k, v] : s.ms) per_pass[k].push_back(v);
      double attributed = 0;
      for (const LayerGroup& g : layer_groups())
        attributed += group_self_ms(g, s);
      unattributed.push_back(traced_wall_s[i] * 1000.0 - attributed);
      overhead.push_back(traced_wall_s[i] / passes[i].wall_s());
    }
    for (const char* k :
         {"lang.parse_ms", "dfg.cfg_ms", "dfg.defuse_ms", "dfg.depgraph_ms",
          "dfg.reaching_ms", "dfg.patterns_ms", "placement.model_ms",
          "placement.applicability_ms", "placement.flowgraph_ms",
          "placement.search_ms", "placement.rank_ms", "analysis.lint_ms",
          "codegen.annotate_ms", "placement.cost_ms", "placement.verify_ms",
          "opt.static_ms", "opt.proof_ms", "interp.spmd_ms",
          "interp.recover_ms", "runtime.sync_ms", "cli.handler_ms"}) {
      auto it = per_pass.find(k);
      metrics.push_back({k, it == per_pass.end() ? 0.0 : median(it->second),
                         "ms"});
    }
    for (const char* k :
         {"dfg.dep_edges", "placement.flow_occs", "placement.flow_arrows",
          "placement.states_tried", "placement.backtracks",
          "placement.raw_solutions", "placement.dominance_pruned",
          "placement.distinct", "opt.msgs_saved", "runtime.messages",
          "runtime.bytes", "gen.msgs_per_sweep", "gen.bytes_per_sweep"})
      metrics.push_back({k, double(count(exact, k)), "count"});
    metrics.push_back(
        {"placement.useful_ratio",
         ratio(count(exact, "placement.distinct"),
               count(exact, "placement.raw_solutions")),
         "ratio"});
    long long kept_peak = 0;
    for (const Pass& p : passes) kept_peak = std::max(kept_peak, p.kept_peak);
    metrics.push_back({"placement.kept_peak", double(kept_peak), "count"});
    for (const char* level : {"compile", "placements", "results"}) {
      const std::string base = std::string("service.") + level;
      metrics.push_back({base + "_hit_ratio",
                         ratio(count(exact, base + "_hits"),
                               count(exact, base + "_hits") +
                                   count(exact, base + "_misses")),
                         "ratio"});
    }
    metrics.push_back({"unattributed_ms", median(unattributed), "ms"});
    metrics.push_back({"trace.overhead_ratio", median(overhead), "ratio"});
    share_report(w, samples[samples.size() / 2],
                 traced_wall_s[samples.size() / 2] * 1000.0);
  }

  // ---- report -------------------------------------------------------------
  std::cout << "passes: " << passes.size() << " (" << attempted
            << " requests, " << used
            << " latency samples used; steal limit " << number(kStealLimit)
            << ")\n  pass wall_s (clean s):";
  for (const Pass& p : passes)
    std::cout << " " << number(p.wall_s()) << " (" << number(p.clean_s())
              << ")";
  std::cout << "\n  set-up runs (s):";
  for (double v : setups) std::cout << " " << number(v);
  std::cout << "\n";
  for (const Metric& m : metrics)
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  if (!a.trace) {
    std::cout << "  error_rate = " << number(error_rate) << " ratio ("
              << failed << "/" << attempted << ")\n"
              << "  gen_msgs_per_sweep = "
              << count(exact, "gen.msgs_per_sweep") << " count\n"
              << "  gen_bytes_per_sweep = "
              << count(exact, "gen.bytes_per_sweep") << " count\n";
  }
  for (const std::string& f : failures) std::cout << "FAILED: " << f << "\n";

  std::cout << "{\"correct\": " << (failures.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const std::optional<Args> a = parse(argc, argv, &error);
  if (!a) {
    std::cerr << "mptool_perfbench: " << error << "\n";
    return 2;
  }
  try {
    return run(*a);
  } catch (const std::exception& e) {
    std::cerr << "mptool_perfbench: " << e.what() << "\n";
    return 1;
  }
}
