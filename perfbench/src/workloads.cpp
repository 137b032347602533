#include "workloads.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "lang/corpus.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

// The shape of each request multiset. Changing any of these changes the
// benchmark, not the program: keep them fixed once baselines exist.
constexpr int kExploreFull[] = {4, 5, 6, 7};      // full ranking
constexpr int kExploreKBest[] = {8, 9, 10};       // --k-best 16 --jobs 2
constexpr int kAnalyzeStages[] = {24, 32, 48, 64};
constexpr int kCertifyLadder[] = {1, 2, 3};
constexpr int kSoakFaults = 6;

std::string hex_tag(meshpar::Rng& rng) {
  std::ostringstream os;
  os << std::hex << std::setw(12) << std::setfill('0')
     << (rng.next_u64() & 0xffffffffffffull);
  return os.str();
}

/// Appends the seeded tag as a trailing comment on the first source line
/// and as a comment line at the end of the spec. Neither moves a token, so
/// every source location (and therefore every placement key) is unchanged.
Program tagged(std::string name, std::string source, std::string spec,
               long long full_distinct, meshpar::Rng& rng) {
  const std::string tag = hex_tag(rng);
  const std::size_t eol = source.find('\n');
  source.insert(eol == std::string::npos ? source.size() : eol,
                " ! perfbench " + tag);
  spec += "# perfbench " + tag + "\n";
  return Program{std::move(name), std::move(source), std::move(spec),
                 full_distinct};
}

Program ladder(const std::string& prefix, int stages, meshpar::Rng& rng) {
  return tagged(prefix + "ladder" + std::to_string(stages),
                meshpar::lang::synthetic_source(stages),
                meshpar::lang::synthetic_spec(stages), 1LL << (stages + 4),
                rng);
}

Program testt(const std::string& prefix, meshpar::Rng& rng) {
  return tagged(prefix + "testt", meshpar::lang::testt_source(),
                meshpar::lang::testt_spec(), 32, rng);
}

Program coupled(const std::string& prefix, meshpar::Rng& rng) {
  return tagged(prefix + "coupled", meshpar::lang::coupled_source(),
                meshpar::lang::coupled_spec(), 64, rng);
}

std::string source_file(const Program& p) { return p.name + ".f"; }
std::string spec_file(const Program& p) { return p.name + ".spec"; }

template <typename T>
void shuffle(std::vector<T>& v, meshpar::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

std::vector<std::string> with_files(const std::string& cmd, const Program& p,
                                    std::vector<std::string> flags = {}) {
  std::vector<std::string> args{cmd, source_file(p), spec_file(p)};
  args.insert(args.end(), flags.begin(), flags.end());
  return args;
}

int add(Workload& w, Program program) {
  w.programs.push_back(std::move(program));
  return int(w.programs.size()) - 1;
}

/// A standalone request of subcommand `cmd` over `w.programs[program]`.
Request request(const Workload& w, int program, const std::string& cmd,
                std::vector<std::string> flags = {}) {
  Request r;
  r.program = program;
  r.args = with_files(cmd, w.programs[program], std::move(flags));
  r.label = cmd + " " + w.programs[program].name;
  for (std::size_t i = 3; i < r.args.size(); ++i) r.label += " " + r.args[i];
  return r;
}

Workload explore(std::uint64_t seed) {
  meshpar::Rng rng(seed);
  Workload w;
  w.name = "explore";
  w.why =
      "cold place: enumerate and rank placements (full ranking at 4-7 "
      "stages, k-best at 8-10, TESTT, COUPLED); no cache reuse, no SPMD run";
  w.predicted = {"placement.search+rank", "analysis"};
  for (int s : kExploreFull)
    w.requests.push_back(request(w, add(w, ladder("", s, rng)), "place"));
  for (int s : kExploreKBest)
    w.requests.push_back(request(w, add(w, ladder("", s, rng)), "place",
                                 {"--k-best", "16", "--jobs", "2"}));
  w.requests.push_back(request(w, add(w, testt("", rng)), "place"));
  w.requests.push_back(request(w, add(w, coupled("", rng)), "place"));
  shuffle(w.requests, rng);
  w.warmup = request(w, add(w, ladder("warmup-", 4, rng)), "place");
  return w;
}

Workload analyze(std::uint64_t seed) {
  meshpar::Rng rng(seed);
  Workload w;
  w.name = "analyze";
  w.why =
      "cold check and deps on 24-64 stage ladders: front-end-only verdicts "
      "(parse, dependence graph, applicability); no search, no SPMD run";
  w.predicted = {"lang", "dfg", "placement.model"};
  for (int s : kAnalyzeStages) {
    const int p = add(w, ladder("", s, rng));
    w.requests.push_back(request(w, p, "check"));
    w.requests.push_back(request(w, p, "deps"));
  }
  shuffle(w.requests, rng);
  w.warmup =
      request(w, add(w, ladder("warmup-", kAnalyzeStages[0], rng)), "check");
  return w;
}

/// The certify entry set for one program: everything a user runs before
/// shipping a placement.
std::vector<Call> certify_calls(const Program& p, int program,
                                meshpar::Rng& rng) {
  const std::string soak_seed = std::to_string(1 + rng.next_below(1000000));
  std::vector<Call> calls{
      {"place", with_files("place", p, {"--k-best", "4"}), program},
      {"lint", with_files("lint", p), program},
      {"opt", with_files("opt", p), program},
      {"verify", with_files("verify", p, {"--dynamic"}), program},
      {"soak",
       with_files("soak", p,
                  {"--recover", "--faults", std::to_string(kSoakFaults),
                   "--seed", soak_seed}),
       program},
      {"profile", with_files("profile", p), program},
  };
  for (Call& c : calls) c.name = p.name + ":" + c.name;
  return calls;
}

/// One manifest: the certify entry set over one program, plus a seeded
/// repeat of one entry (a results-cache hit, and through it no compile or
/// placements work), in seeded order. The warm-up manifest keeps only the
/// entries that run no SPMD program: SPMD thread hand-offs swing with
/// hypervisor steal, and set-up time is not filtered for it.
Request batch_request(Workload& w, Program program, bool warmup,
                      meshpar::Rng& rng) {
  const int p = add(w, std::move(program));
  Request r;
  r.entries = certify_calls(w.programs[p], p, rng);
  if (warmup)
    r.entries.resize(2);  // place, lint
  else
    r.entries.push_back(r.entries[rng.next_below(r.entries.size())]);
  shuffle(r.entries, rng);
  r.manifest_file = w.programs[p].name + ".json";
  r.args = {"batch", r.manifest_file, "--jobs", "1"};
  r.label = "batch " + r.manifest_file;
  return r;
}

Workload certify(std::uint64_t seed) {
  meshpar::Rng rng(seed);
  Workload w;
  w.name = "certify";
  w.why =
      "cold batch --jobs 1 of place/lint/opt/verify --dynamic/soak "
      "--recover/profile on TESTT, COUPLED, 1-3 stage ladders; repeated "
      "entries hit the caches";
  w.predicted = {"interp", "runtime", "opt"};
  w.requests.push_back(batch_request(w, testt("", rng), false, rng));
  w.requests.push_back(batch_request(w, coupled("", rng), false, rng));
  for (int s : kCertifyLadder)
    w.requests.push_back(batch_request(w, ladder("", s, rng), false, rng));
  shuffle(w.requests, rng);
  w.warmup = batch_request(w, testt("warmup-", rng), true, rng);
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"explore", "analyze",
                                              "certify"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::filesystem::path& workdir) {
  Workload w;
  if (name == "explore")
    w = explore(seed);
  else if (name == "analyze")
    w = analyze(seed);
  else if (name == "certify")
    w = certify(seed);
  else
    throw std::invalid_argument("unknown workload '" + name + "'");
  auto absolute = [&](Request& r) {
    if (r.batch()) r.args[1] = (workdir / r.manifest_file).string();
  };
  for (Request& r : w.requests) absolute(r);
  absolute(w.warmup);
  return w;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

void write_manifest(const Request& r, const std::filesystem::path& dir) {
  std::ostringstream os;
  os << "{\"entries\":[";
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    const Call& c = r.entries[i];
    os << (i ? ",\n" : "\n") << "{\"name\":" << json_string(c.name)
       << ",\"args\":[";
    for (std::size_t a = 0; a < c.args.size(); ++a)
      os << (a ? "," : "") << json_string(c.args[a]);
    os << "]}";
  }
  os << "\n]}\n";
  write_file(dir / r.manifest_file, os.str());
}

}  // namespace

void write_inputs(const Workload& w, const std::filesystem::path& workdir) {
  std::filesystem::create_directories(workdir);
  for (const Program& p : w.programs) {
    write_file(workdir / source_file(p), p.source);
    write_file(workdir / spec_file(p), p.spec);
  }
  for (const Request& r : w.requests)
    if (r.batch()) write_manifest(r, workdir);
  if (w.warmup.batch()) write_manifest(w.warmup, workdir);
}

}  // namespace perfbench
