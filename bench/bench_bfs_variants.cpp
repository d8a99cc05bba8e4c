// F2 (Fig. 2): the level-BFS algorithm, four ways. The paper shows the same
// algorithm in pseudocode, PyGB, GBTL C++, and the C API; the measurable
// counterpart is that the GraphBLAS formulation (in its push, pull, and
// direction-optimising variants) stays within a small constant of a tuned
// direct queue BFS.
//
// Every variant is first validated against the queue BFS — levels, and a
// parent tree whose every parent sits one level up along an edge — so a
// wrong masked write fails the run before anything is timed. The grids are
// the high-diameter case: a level's frontier is O(sqrt n), so the per-level
// time shows whether a level costs O(frontier) or O(n).
//
// Usage: bench_bfs_variants [--quick]. `--quick` validates R-MAT and grid
// 128 and times each once (the CI smoke step); the full run times the
// median of 5 repetitions over every graph.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"
#include "lagraph/util/generator.hpp"
#include "platform/timer.hpp"
#include "reference/simple_graph.hpp"

namespace {

using gb::Index;

struct Workload {
  const char* name;
  gb::Matrix<double> a;
};

double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    gb::platform::Timer t;
    fn();
    ms.push_back(t.millis());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

const lagraph::BfsVariant kVariants[] = {
    lagraph::BfsVariant::push, lagraph::BfsVariant::pull,
    lagraph::BfsVariant::direction_optimizing};

/// Levels equal to the queue BFS and a valid parent tree, for every variant.
bool validate(const char* name, const lagraph::Graph& g,
              const ref::SimpleGraph& sg, Index source) {
  const auto want = ref::bfs_levels(sg, source);
  for (auto variant : kVariants) {
    auto res = lagraph::bfs(g, source, variant);
    const auto level = lagraph::to_dense_std(res.level, std::int64_t{-1});
    const auto parent = lagraph::to_dense_std(res.parent, std::int64_t{-1});
    for (Index v = 0; v < sg.n; ++v) {
      if (level[v] != want[v]) {
        std::printf("MISMATCH on %s variant %d: level of vertex %llu\n", name,
                    static_cast<int>(variant),
                    static_cast<unsigned long long>(v));
        return false;
      }
    }
    if (!ref::valid_bfs_parents(sg, source, parent, want)) {
      std::printf("MISMATCH on %s variant %d: invalid parent tree\n", name,
                  static_cast<int>(variant));
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  std::vector<Workload> graphs;
  graphs.push_back({"rmat-12 (scale-free)", lagraph::rmat(12, 8, 21)});
  if (!quick) graphs.push_back({"grid 64x64 (mesh)", lagraph::grid2d(64, 64)});
  graphs.push_back({"grid 128x128 (mesh)", lagraph::grid2d(128, 128)});
  if (!quick) {
    graphs.push_back({"grid 256x256 (mesh)", lagraph::grid2d(256, 256)});
    graphs.push_back(
        {"er-4096 (uniform)", lagraph::erdos_renyi(4096, 16384, 5)});
  }

  std::printf("Fig. 2 analogue: level+parent BFS via GraphBLAS vs direct "
              "queue BFS\n(%s; us/level = dir-opt time / depth)\n\n",
              quick ? "quick: one run each" : "median of 5 runs");
  std::printf("%-22s %9s %9s %10s %9s %7s %10s\n", "graph", "push ms",
              "pull ms", "dir-opt ms", "queue ms", "depth", "us/level");

  const int reps = quick ? 1 : 5;
  for (auto& w : graphs) {
    lagraph::Graph g(std::move(w.a), lagraph::Kind::undirected);
    g.ensure_transpose();
    auto sg = ref::SimpleGraph::from_matrix(g.adj());
    if (!validate(w.name, g, sg, 0)) return 1;

    std::int64_t depth = 0;
    const double push = median_ms(reps, [&] {
      depth = lagraph::bfs(g, 0, lagraph::BfsVariant::push).depth;
    });
    const double pull = median_ms(
        reps, [&] { lagraph::bfs(g, 0, lagraph::BfsVariant::pull); });
    const double dopt = median_ms(reps, [&] {
      lagraph::bfs(g, 0, lagraph::BfsVariant::direction_optimizing);
    });
    const double queue = median_ms(reps, [&] { ref::bfs_levels(sg, 0); });

    std::printf("%-22s %9.2f %9.2f %10.2f %9.2f %7lld %10.1f\n", w.name, push,
                pull, dopt, queue, static_cast<long long>(depth),
                1000.0 * dopt / static_cast<double>(std::max<std::int64_t>(
                                    depth, 1)));
  }

  std::printf("\nexpected shape: dir-opt <= min(push, pull) on scale-free "
              "graphs;\npush wins on meshes (frontiers never densify); on the "
              "grids the\nper-level time follows the frontier (about 2x per "
              "side doubling), not n (4x).\n");
  return 0;
}
