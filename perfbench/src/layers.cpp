#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>

#include "analysis/lint.hpp"
#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "codegen/annotate.hpp"
#include "dfg/cfg.hpp"
#include "dfg/defuse.hpp"
#include "dfg/depgraph.hpp"
#include "dfg/patterns.hpp"
#include "dfg/reaching.hpp"
#include "interp/soak.hpp"
#include "interp/spmd.hpp"
#include "lang/parser.hpp"
#include "opt/proof.hpp"
#include "placement/check.hpp"
#include "placement/cost.hpp"
#include "placement/model.hpp"
#include "placement/solution.hpp"
#include "placement/tool.hpp"
#include "placement/verify.hpp"
#include "runtime/world.hpp"
#include "service/service.hpp"
#include "support/trace.hpp"

namespace perfbench {
namespace {

namespace mp = meshpar;
using mp::placement::Placement;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A front end built layer by layer (the replay's own copy of what
/// placement::compile_frontend builds).
struct Front {
  std::unique_ptr<mp::placement::ProgramModel> model;
  std::unique_ptr<mp::placement::FlowGraph> fg;
};

/// Accepts every solution and keeps none: the search without ranking.
class NullSink : public mp::placement::Engine::SubtreeSink {
 public:
  bool on_solution(const mp::placement::Assignment&) override { return true; }
};

/// Times SPMD-running calls under a tracer and splits off the runtime's
/// sync spans recorded during the call.
class SpmdWindow {
 public:
  explicit SpmdWindow(LayerSample& s) : s_(s), guard_(&tracer_) {}

  /// Runtime wall share (ms) of the spans recorded since `from`, also
  /// adding their rank-summed time to runtime.sync_ms. `proof_ms`, when
  /// given, receives the duration of an opt/dynamic-proof span.
  double close(std::size_t from, double* proof_ms = nullptr) {
    const std::vector<mp::trace::Event> evs = tracer_.events();
    long long sum_us = 0;
    long long ranks = 1;
    for (std::size_t i = from; i < evs.size(); ++i) {
      const mp::trace::Event& ev = evs[i];
      if (ev.phase != 'X') continue;
      if (ev.cat == "spmd") {
        sum_us += ev.dur_us;
        for (const mp::trace::Arg& a : ev.args)
          if (a.key == "rank")
            ranks = std::max(ranks, std::atoll(a.value.c_str()) + 1);
      } else if (proof_ms && ev.name == "opt/dynamic-proof") {
        *proof_ms += ev.dur_us / 1000.0;
      }
    }
    s_.ms["runtime.sync_ms"] += sum_us / 1000.0;
    const double wall = sum_us / 1000.0 / double(ranks);
    s_.runtime_wall_ms += wall;
    return wall;
  }
  [[nodiscard]] std::size_t mark() const { return tracer_.events().size(); }

 private:
  LayerSample& s_;
  mp::trace::Tracer tracer_;
  mp::trace::ScopedInstall guard_;
};

class Replayer {
 public:
  Replayer(const Workload& w, LayerSample& s) : w_(w), s_(s) {}

  /// One invocation (a standalone request or a batch entry), replayed as
  /// the service would serve it: the front end and each placement set
  /// are computed once per distinct key.
  void call(const std::vector<std::string>& args, int program) {
    const mp::cli::Options o = mp::cli::parse_args(args);
    const Front& f = front(program);
    if (o.command == "check" || o.command == "deps") return;
    const std::vector<Placement>& ps = ranked(program, f, o.tool_options());
    const Clock::time_point t0 = Clock::now();
    if (o.command == "place") {
      lint_all(f, ps);
      if (o.k_best) cost_all(f, ps);
      time("codegen.annotate_ms",
           [&] { (void)mp::codegen::annotate(*f.model, ps[0]); });
    } else if (o.command == "lint") {
      lint_all(f, ps);
    } else if (o.command == "opt") {
      opt(f, ps[0]);
    } else if (o.command == "verify") {
      verify(f, ps, o.dynamic);
    } else if (o.command == "soak") {
      soak(f, ps[0], o);
    } else if (o.command == "profile") {
      profile(f, ps[0]);
    }
    s_.handler_inner_ms += ms_since(t0);
  }

 private:
  template <typename F>
  void time(const std::string& metric, F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    s_.ms[metric] += ms_since(t0);
  }

  const Front& front(int program) {
    auto it = fronts_.find(program);
    if (it != fronts_.end()) return it->second;
    const Program& p = w_.programs[program];
    // The lang/dfg parts on their own parse, then the whole model build;
    // the model's self time is the whole minus those parts.
    mp::DiagnosticEngine parts_diags;
    double parts = 0;
    auto part = [&](const char* metric, auto&& f) {
      const Clock::time_point t0 = Clock::now();
      auto v = f();
      const double ms = ms_since(t0);
      s_.ms[metric] += ms;
      parts += ms;
      return v;
    };
    mp::lang::Subroutine sub = part("lang.parse_ms", [&] {
      return mp::lang::parse_subroutine(p.source, parts_diags);
    });
    mp::dfg::Cfg cfg = part("dfg.cfg_ms", [&] {
      return mp::dfg::Cfg::build(sub, parts_diags);
    });
    auto du = part("dfg.defuse_ms",
                   [&] { return mp::dfg::analyze_defuse(sub, cfg); });
    mp::dfg::DepGraph deps = part("dfg.depgraph_ms", [&] {
      return mp::dfg::DepGraph::build(sub, cfg, du);
    });
    s_.exact["dfg.dep_edges"] += static_cast<long long>(deps.all().size());
    (void)part("dfg.reaching_ms", [&] {
      return mp::dfg::ReachingDefs::solve(sub, cfg, du);
    });
    (void)part("dfg.patterns_ms", [&] {
      return mp::dfg::Patterns::detect(sub, cfg, du);
    });

    Front f;
    mp::DiagnosticEngine diags;
    const Clock::time_point t0 = Clock::now();
    f.model = mp::placement::ProgramModel::build(p.source, p.spec, diags);
    s_.ms["placement.model_ms"] += std::max(0.0, ms_since(t0) - parts);
    time("placement.applicability_ms", [&] {
      (void)mp::placement::check_applicability(*f.model);
    });
    time("placement.flowgraph_ms", [&] {
      f.fg = std::make_unique<mp::placement::FlowGraph>(
          mp::placement::FlowGraph::build(*f.model, diags));
    });
    s_.exact["placement.flow_occs"] +=
        static_cast<long long>(f.fg->occs().size());
    s_.exact["placement.flow_arrows"] +=
        static_cast<long long>(f.fg->arrows().size());
    return fronts_.emplace(program, std::move(f)).first->second;
  }

  const std::vector<Placement>& ranked(
      int program, const Front& f, const mp::placement::ToolOptions& topt) {
    const std::string key = std::to_string(program) + "/" +
                            mp::service::Service::options_key(topt);
    auto it = ranked_.find(key);
    if (it != ranked_.end()) return it->second;
    std::vector<Placement> ps;
    if (topt.k_best) {
      // Search alone, through a sink that keeps nothing; ranking is the rest of the
      // streaming k-best call.
      const Clock::time_point t0 = Clock::now();
      {
        mp::placement::Engine eng(*f.model, *f.fg);
        mp::placement::EngineStats st;
        eng.enumerate_stream(
            topt.engine, &st,
            [](std::size_t) { return std::make_unique<NullSink>(); },
            [](std::size_t, std::unique_ptr<mp::placement::Engine::SubtreeSink>) {});
      }
      const double search = ms_since(t0);
      const Clock::time_point t1 = Clock::now();
      mp::placement::Engine eng(*f.model, *f.fg);
      ps = mp::placement::enumerate_k_best(eng, topt.engine).placements;
      s_.ms["placement.search_ms"] += search;
      s_.ms["placement.rank_ms"] += std::max(0.0, ms_since(t1) - search);
    } else {
      const Clock::time_point t0 = Clock::now();
      mp::placement::Engine eng(*f.model, *f.fg);
      const std::vector<mp::placement::Assignment> as =
          eng.enumerate(topt.engine);
      s_.ms["placement.search_ms"] += ms_since(t0);
      time("placement.rank_ms",
           [&] { ps = mp::placement::materialize_all(eng, as); });
    }
    return ranked_.emplace(key, std::move(ps)).first->second;
  }

  void lint_all(const Front& f, const std::vector<Placement>& ps) {
    time("analysis.lint_ms", [&] {
      for (const Placement& p : ps)
        (void)mp::analysis::lint_placement(*f.model, p);
    });
  }

  void cost_all(const Front& f, const std::vector<Placement>& ps) {
    time("placement.cost_ms", [&] {
      const mp::overlap::Decomposition d =
          mp::placement::example_decomposition(*f.model);
      for (const Placement& p : ps)
        (void)mp::placement::simulate_cost(*f.model, p, d);
    });
  }

  void opt(const Front& f, const Placement& p) {
    SpmdWindow win(s_);
    const Clock::time_point t0 = Clock::now();
    mp::opt::OptimizeOptions oo;  // dynamic proof on, as `mptool opt`
    const mp::opt::OptimizeReport rep =
        mp::opt::optimize_placement(*f.model, *f.fg, p, oo);
    const double total = ms_since(t0);
    double proof = 0;
    const double runtime = win.close(0, &proof);
    s_.ms["opt.static_ms"] += std::max(0.0, total - proof);
    s_.ms["opt.proof_ms"] += std::max(0.0, proof - runtime);
  }

  void verify(const Front& f, const std::vector<Placement>& ps,
              bool dynamic) {
    std::vector<std::size_t> clean;
    time("placement.verify_ms", [&] {
      for (std::size_t i = 0; i < ps.size(); ++i)
        if (mp::placement::verify_placement(*f.model, *f.fg, ps[i]).ok())
          clean.push_back(i);
    });
    if (!dynamic) return;
    // The dynamic check of `mptool verify --dynamic`: every verified
    // placement through the staleness sanitizer on the example mesh.
    SpmdWindow win(s_);
    const Clock::time_point t0 = Clock::now();
    mp::mesh::Mesh2D m;
    const mp::overlap::Decomposition d =
        mp::placement::example_decomposition(*f.model, &m);
    mp::overlap::trace_halo_schedule(d);
    const mp::interp::MeshBinding binding =
        mp::interp::synthetic_binding(*f.model, m);
    for (std::size_t i : clean) {
      mp::runtime::World world(d.parts());
      mp::interp::StalenessReport report;
      (void)mp::interp::run_spmd_sanitized(world, *f.model, ps[i], d, m,
                                           binding, &report);
    }
    const double total = ms_since(t0);
    s_.ms["interp.spmd_ms"] += std::max(0.0, total - win.close(0));
  }

  void soak(const Front& f, const Placement& p, const mp::cli::Options& o) {
    SpmdWindow win(s_);
    mp::interp::SoakOptions so;
    so.seed = o.seed;
    so.faults = o.faults;
    so.recover = o.recover;
    mp::interp::SoakReport report;
    std::string error;
    const Clock::time_point t0 = Clock::now();
    (void)mp::interp::run_soak(*f.model, p, so, &report, &error);
    const double total = ms_since(t0);
    s_.ms["interp.recover_ms"] += std::max(0.0, total - win.close(0));
  }

  void profile(const Front& f, const Placement& p) {
    SpmdWindow win(s_);  // `mptool profile` always runs traced
    mp::mesh::Mesh2D m;
    mp::overlap::Decomposition d;
    time("placement.cost_ms", [&] {
      d = mp::placement::example_decomposition(*f.model, &m);
      (void)mp::placement::simulate_cost(*f.model, p, d);
    });
    const Clock::time_point t0 = Clock::now();
    mp::overlap::trace_halo_schedule(d);
    const mp::interp::MeshBinding binding =
        mp::interp::synthetic_binding(*f.model, m);
    mp::runtime::WorldOptions wopts;
    wopts.edge_metrics = true;
    mp::runtime::World world(d.parts(), wopts);
    const std::size_t from = win.mark();
    (void)mp::interp::run_spmd(world, *f.model, p, d, m, binding);
    const double total = ms_since(t0);
    s_.ms["interp.spmd_ms"] += std::max(0.0, total - win.close(from));
    for (const mp::runtime::EdgeTraffic& e : world.edge_traffic()) {
      s_.exact["runtime.messages"] += e.msgs;
      s_.exact["runtime.bytes"] += e.bytes;
    }
  }

  const Workload& w_;
  LayerSample& s_;
  std::map<int, Front> fronts_;
  std::map<std::string, std::vector<Placement>> ranked_;
};

/// The handler's own cost: the same invocation through cli::run_driver
/// against a service that already holds its front ends and placements.
double warm_handler_ms(const Workload& w, const Request& r) {
  mp::service::Service warm;
  auto prime = [&](const std::vector<std::string>& args, int program) {
    const mp::cli::Options o = mp::cli::parse_args(args);
    const Program& p = w.programs[program];
    if (o.command == "check" || o.command == "deps")
      (void)warm.compile(p.source, p.spec);
    else
      (void)warm.placements(p.source, p.spec, o.tool_options());
  };
  std::string source, spec;
  if (r.batch()) {
    for (const Call& c : r.entries) prime(c.args, c.program);
  } else {
    prime(r.args, r.program);
    source = w.programs[r.program].source;
    spec = w.programs[r.program].spec;
  }
  const Clock::time_point t0 = Clock::now();
  (void)mp::cli::run_driver(r.args, source, spec, &warm);
  return ms_since(t0);
}

}  // namespace

void replay(const Workload& w, const Request& r, LayerSample& out) {
  Replayer rep(w, out);
  if (r.batch()) {
    // Repeated entries are served from the results cache: replay each
    // distinct invocation once.
    std::set<std::pair<int, std::vector<std::string>>> done;
    for (const Call& c : r.entries)
      if (done.insert({c.program, c.args}).second) rep.call(c.args, c.program);
  } else {
    rep.call(r.args, r.program);
  }
  out.ms["cli.handler_ms"] += warm_handler_ms(w, r);
}

const std::vector<LayerGroup>& layer_groups() {
  static const std::vector<LayerGroup> groups{
      {"lang", {"lang.parse_ms"}},
      {"dfg",
       {"dfg.cfg_ms", "dfg.defuse_ms", "dfg.depgraph_ms", "dfg.reaching_ms",
        "dfg.patterns_ms"}},
      {"placement.model",
       {"placement.model_ms", "placement.applicability_ms",
        "placement.flowgraph_ms"}},
      {"placement.search+rank", {"placement.search_ms", "placement.rank_ms"}},
      {"placement.cost+verify", {"placement.cost_ms", "placement.verify_ms"}},
      {"analysis", {"analysis.lint_ms"}},
      {"codegen", {"codegen.annotate_ms"}},
      {"opt", {"opt.static_ms", "opt.proof_ms"}},
      {"interp", {"interp.spmd_ms", "interp.recover_ms"}},
      {"runtime", {}},
      {"cli", {}},
  };
  return groups;
}

double group_self_ms(const LayerGroup& g, const LayerSample& s) {
  if (g.name == "runtime") return s.runtime_wall_ms;
  if (g.name == "cli") {
    auto it = s.ms.find("cli.handler_ms");
    const double handler = it == s.ms.end() ? 0 : it->second;
    return std::max(0.0, handler - s.handler_inner_ms);
  }
  double sum = 0;
  for (const std::string& m : g.metrics) {
    auto it = s.ms.find(m);
    if (it != s.ms.end()) sum += it->second;
  }
  return sum;
}

}  // namespace perfbench
