// The traced replay: the same requests again, as timed calls into each
// layer's public functions, in the order the request's handler makes them.
// A layer's number is the self time of its call (the call minus the layer
// calls nested in it), summed over the workload.
//
// SPMD runs are timed with a tracer installed, because the per-sync spans
// the runtime already emits ("spmd" complete events, one per rank per
// sync) are the only view of runtime time: runtime.sync_ms is their sum
// over ranks, including waits, and the runtime's wall share (that sum over
// the rank count) is taken out of the interp/opt call that ran them.
#pragma once

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct LayerSample {
  std::map<std::string, double> ms;           // "<layer>.<what>_ms"
  std::map<std::string, long long> exact;     // sizes and traffic counts
  double runtime_wall_ms = 0;  // sync spans over ranks: runtime self time
  double handler_inner_ms = 0; // layer calls the handlers make
};

/// Replays one request layer by layer and adds its numbers to `out`.
void replay(const Workload& w, const Request& r, LayerSample& out);

/// The layer groups of the share report, in print order, with the metrics
/// (self times) each one sums.
struct LayerGroup {
  std::string name;
  std::vector<std::string> metrics;
};
[[nodiscard]] const std::vector<LayerGroup>& layer_groups();

/// Self time of a group in `s` (the runtime group uses the wall share,
/// the cli group the handler time net of the layer calls it makes).
[[nodiscard]] double group_self_ms(const LayerGroup& g, const LayerSample& s);

}  // namespace perfbench
