// Per-layer probes of the traced run. Each probe sends the same request
// through successively lower entry points (C API -> GraphService ->
// Runner::run -> driver -> the GraphBLAS ops of one iteration) on the
// workload graph, with the system otherwise idle, and times every level with
// a span. A layer's self time is the difference between adjacent levels.
#pragma once

#include <cstdint>

#include "harness.hpp"
#include "inputs.hpp"
#include "lagraph/graph.hpp"

namespace perfbench {

/// Adds every capi.*, serving.overhead_ms.*, runner.*, algorithms.*,
/// graphblas.*, platform.* and layers.* metric to `out`.
void measure_layers(const Inputs& in, const lagraph::Graph& g,
                    std::uint64_t seed, Tracer& tracer, Sheet& out);

}  // namespace perfbench
