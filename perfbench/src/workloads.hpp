// The benchmark's workloads: seeded, fixed lists of cold `mptool`
// requests. A seed changes which texts the program sees (each program
// carries a seeded tag in a trailing comment, so no two seeds share a cache
// key), the order of the requests, the order of batch entries, which batch
// entries repeat, and the soak campaign seeds. It never changes how much
// work a list holds: the multiset of (subcommand, program shape) pairs is
// fixed per workload, which is what keeps runs with different seeds
// comparable.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

/// One program under test, with what its structure predicts.
struct Program {
  std::string name;    // "ladder6", "testt", "coupled"
  std::string source;  // tagged text the program sees
  std::string spec;
  /// Distinct placements a full ranking must report: 2^(stages+4) for a
  /// ladder program, 32 for TESTT, 64 for COUPLED.
  long long full_distinct = 0;
};

/// One `mptool` invocation: a batch manifest entry, or the subcommand part
/// of a standalone request.
struct Call {
  std::string name;
  std::vector<std::string> args;  // full argv, program/spec as file names
  int program = -1;               // index into Workload::programs
};

struct Request {
  std::string label;
  /// argv handed to cli::run_driver. For place/check/deps the texts come
  /// from `program`; for batch the manifest and its files are on disk.
  std::vector<std::string> args;
  int program = -1;
  std::vector<Call> entries;      // batch only, in manifest order
  std::string manifest_file;      // batch only, relative to the work dir

  [[nodiscard]] bool batch() const { return !manifest_file.empty(); }
};

struct Workload {
  std::string name;
  std::string why;        // why the workload exists (one line)
  /// Layer groups (layers.hpp) predicted to hold most self time.
  std::vector<std::string> predicted;
  std::vector<Program> programs;
  std::vector<Request> requests;  // the timed list
  Request warmup;                 // untimed, part of set-up
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the request list of `name` from `seed`; batch manifests name
/// their files relative to `workdir`. Throws std::invalid_argument for an
/// unknown workload.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const std::filesystem::path& workdir);

/// Writes every program, spec and manifest the workload names into
/// `workdir` (created if missing).
void write_inputs(const Workload& w, const std::filesystem::path& workdir);

}  // namespace perfbench
