// Workload graphs: the R-MAT graph with integer weights, the rewired second
// version for republish traffic, and the pool of vertices requests may start
// from. Requests themselves are drawn by the traffic, from the workload seed.
#pragma once

#include <cstdint>
#include <vector>

#include "capi/graphblas_c.h"
#include "lagraph/graph.hpp"

namespace perfbench {

/// A directed weighted edge list (unique (row, col) pairs, no self-loops).
struct Tuples {
  std::vector<GrB_Index> rows, cols;
  std::vector<double> vals;
  [[nodiscard]] std::size_t size() const { return rows.size(); }
};

struct Inputs {
  int scale = 0;
  GrB_Index n = 0;
  Tuples base;     ///< R-MAT, Graph500 parameters, weights in {1..8}
  Tuples rewired;  ///< base with a seeded 1% of edges moved to new targets
  std::vector<GrB_Index> eligible;  ///< vertices with out-degree > 0
};

/// R-MAT (edge factor 16) on 2^scale vertices, directed, from `graph_seed`.
/// The rewired version is made only when `with_rewired` is set.
Inputs make_inputs(int scale, std::uint64_t graph_seed, bool with_rewired);

/// An Erdős–Rényi edge list with the same n and edge count as `t`.
Tuples erdos_renyi_like(GrB_Index n, std::size_t edges, std::uint64_t seed);

/// Build a C-API matrix from tuples (GrB_Matrix_new + GrB_Matrix_build).
GrB_Matrix build_c_matrix(GrB_Index n, const Tuples& t);

/// The same tuples as a directed lagraph::Graph (for solo and probe runs).
lagraph::Graph make_graph(GrB_Index n, const Tuples& t);

/// `count` sources drawn uniformly (with replacement) from `eligible`.
std::vector<GrB_Index> draw_sources(const std::vector<GrB_Index>& eligible,
                                    std::size_t count, std::uint64_t seed);

}  // namespace perfbench
