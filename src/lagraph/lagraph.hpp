// LAGraph public API — the algorithm collection of §V of the paper, written
// entirely on top of the GraphBLAS substrate. Every function here validates
// against a textbook reference implementation in tests/.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "lagraph/checkpoint.hpp"
#include "lagraph/graph.hpp"
#include "lagraph/scope.hpp"

namespace lagraph {

// ===========================================================================
// Breadth-first search (Fig. 2; direction optimisation per §II-E)
// ===========================================================================

enum class BfsVariant {
  push,                  ///< SpMSpV saxpy every level
  pull,                  ///< SpMV dot every level
  direction_optimizing,  ///< GraphBLAST threshold rule with hysteresis
};

struct BfsResult {
  gb::Vector<std::int64_t> level;   ///< hop count from source; absent = unreached
  gb::Vector<std::int64_t> parent;  ///< BFS tree parent; parent[src] = src
  std::int64_t depth = 0;           ///< number of levels traversed
  std::vector<gb::MxvMethod> directions;  ///< per-level traversal used
  /// none = frontier exhausted; cancelled/timeout/out_of_memory = governor
  /// stopped the traversal after `depth` complete levels.
  StopReason stop = StopReason::none;
  /// On interruption: the loop state at the last complete level. Feed it
  /// back through `resume` to continue; the resumed result is bit-identical
  /// to an uninterrupted run. Empty if capture itself failed, and empty
  /// whenever `stop` is not an interruption (a completed run, resumed or
  /// not, hands back no capsule).
  Checkpoint checkpoint;
};

/// Level + parent BFS from `source`. `resume` (optional) continues an
/// interrupted traversal from its returned checkpoint; source/variant must
/// match the original call.
BfsResult bfs(const Graph& g, Index source,
              BfsVariant variant = BfsVariant::direction_optimizing,
              const Checkpoint* resume = nullptr);

struct BfsMsResult {
  /// level(k, v) = hop count from sources[k] to v; absent = unreached.
  /// Row k is bit-identical to bfs(g, sources[k]).level.
  gb::Matrix<std::int64_t> level;
  std::int64_t depth = 0;  ///< levels advanced (max over the batch)
  StopReason stop = StopReason::none;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Multi-source BFS: all k sources advance together as rows of one
/// hypersparse frontier matrix (one masked mxm per level instead of k vxm
/// loops). Duplicate sources are allowed (rows are independent). The resume
/// capsule carries the whole batch; `sources` must match the original call.
BfsMsResult bfs_level_ms(const Graph& g, const std::vector<Index>& sources,
                         const Checkpoint* resume = nullptr);

// ===========================================================================
// Shortest paths
// ===========================================================================

struct SsspResult {
  gb::Vector<double> dist;  ///< tentative/final distances; absent = unreached
  int iterations = 0;       ///< relaxation rounds (BF) / buckets (delta) done
  /// converged = distances fixed; cancelled/timeout/out_of_memory = governor
  /// stopped relaxation early (dist holds valid upper bounds).
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Bellman-Ford SSSP via min-plus vxm iteration. Absent = unreachable.
/// Throws Error(invalid_value) on a negative cycle reachable from source.
SsspResult sssp_bellman_ford(const Graph& g, Index source,
                             const Checkpoint* resume = nullptr);

/// Delta-stepping SSSP [Sridhar et al., IPDPSW 2019 — cited in §V]:
/// light/heavy edge split with bucketed relaxation. Non-negative weights.
SsspResult sssp_delta_stepping(const Graph& g, Index source, double delta,
                               const Checkpoint* resume = nullptr);

struct SsspMsResult {
  /// dist(k, v) = tentative/final distance from sources[k]; absent =
  /// unreached. Row k is bit-identical to sssp_bellman_ford(g, sources[k])
  /// .dist (min-plus relaxation is reduction-order insensitive).
  gb::Matrix<double> dist;
  int iterations = 0;  ///< relaxation rounds until the whole batch settled
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Multi-source Bellman-Ford: one min-plus mxm relaxes every batched source
/// per round. Throws Error(invalid_value) if a negative cycle is reachable
/// from *any* batched source. `sources` must match on resume.
SsspMsResult sssp_bellman_ford_ms(const Graph& g,
                                  const std::vector<Index>& sources,
                                  const Checkpoint* resume = nullptr);

struct ApspResult {
  gb::Matrix<double> d;  ///< pairwise distances (so-far) between all vertices
  int rounds = 0;        ///< min-plus squaring rounds completed
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// All-pairs shortest paths by min-plus repeated squaring (small graphs).
/// Interruptible/resumable form; the governor can stop between squarings.
ApspResult apsp_run(const Graph& g, const Checkpoint* resume = nullptr);

/// All-pairs shortest paths by min-plus repeated squaring (small graphs).
gb::Matrix<double> apsp(const Graph& g);

// ===========================================================================
// Centrality
// ===========================================================================

struct PageRankResult {
  gb::Vector<double> rank;
  int iterations = 0;
  bool converged = false;  ///< residual fell under tol before max_iters
  double residual = std::numeric_limits<double>::infinity();  ///< last L1 change
  StopReason stop = StopReason::max_iters;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// PageRank with dangling-node handling (teleport redistribution).
/// Requires damping in (0, 1), tol > 0, max_iters > 0 (Error invalid_value).
PageRankResult pagerank(const Graph& g, double damping = 0.85,
                        double tol = 1e-9, int max_iters = 100,
                        const Checkpoint* resume = nullptr);

struct PprMsResult {
  /// rank(k, :) = personalised PageRank for seed sources[k]; each row is
  /// bit-identical to the k = 1 run pagerank_personalized(g, sources[k]):
  /// every per-iteration kernel is row-local with a fixed within-row
  /// combination order, and a converged row is frozen (compacted out of the
  /// active set) the iteration it meets tol, exactly when the solo run
  /// would have returned.
  gb::Matrix<double> rank;
  std::vector<std::int64_t> iterations;  ///< per-row iterations at freeze
  std::vector<std::uint8_t> row_stop;    ///< per-row StopReason (as int)
  int rounds = 0;                        ///< global iteration rounds executed
  StopReason stop = StopReason::max_iters;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Batched personalised PageRank: k teleport seeds advance as rows of one
/// matrix iterate; rows converge (and freeze) independently. Dangling mass
/// and the (1-damping) teleport both return to each row's seed vertex.
PprMsResult pagerank_personalized_ms(const Graph& g,
                                     const std::vector<Index>& sources,
                                     double damping = 0.85, double tol = 1e-9,
                                     int max_iters = 100,
                                     const Checkpoint* resume = nullptr);

struct PprResult {
  gb::Vector<double> rank;
  int iterations = 0;
  bool converged = false;
  StopReason stop = StopReason::max_iters;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Single-seed personalised PageRank — the k = 1 specialisation of
/// pagerank_personalized_ms (same code path, so the batched rows are
/// bit-identical to this by construction).
PprResult pagerank_personalized(const Graph& g, Index source,
                                double damping = 0.85, double tol = 1e-9,
                                int max_iters = 100,
                                const Checkpoint* resume = nullptr);

struct BcResult {
  gb::Vector<double> centrality;   ///< empty until the run completes
  std::size_t levels = 0;          ///< BFS levels discovered by the forward sweep
  StopReason stop = StopReason::none;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Batched Brandes betweenness centrality, interruptible between the
/// level-synchronous sweeps of the batch (forward path counting, then the
/// backward dependency accumulation, one level per resumable step).
BcResult betweenness_run(const Graph& g, const std::vector<Index>& sources,
                         const Checkpoint* resume = nullptr);

/// Batched Brandes betweenness centrality from the given source set.
gb::Vector<double> betweenness(const Graph& g,
                               const std::vector<Index>& sources);

// ===========================================================================
// Triangles and trusses
// ===========================================================================

enum class TriangleMethod {
  burkhardt,  ///< sum((A*A) .* A) / 6
  cohen,      ///< sum((L*U) .* A) / 2
  sandia_ll,  ///< sum(<L> L*L) — masked saxpy
  sandia_uu,  ///< sum(<U> U*U)
  dot,        ///< sum(<L> L*U') — masked dot product
};

/// Exact triangle count of the undirected view of g.
std::uint64_t triangle_count(const Graph& g,
                             TriangleMethod method = TriangleMethod::sandia_ll);

struct KtrussResult {
  gb::Matrix<std::int64_t> c;  ///< adjacency of the k-truss; values = support
  std::uint64_t nedges = 0;    ///< undirected edges surviving
  int rounds = 0;
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// k-truss, interruptible/resumable between support-pruning rounds.
KtrussResult ktruss_run(const Graph& g, std::uint64_t k,
                        const Checkpoint* resume = nullptr);

/// k-truss of the undirected view of g (k >= 3).
KtrussResult ktruss(const Graph& g, std::uint64_t k);

// ===========================================================================
// Components and clustering
// ===========================================================================

struct CcResult {
  gb::Vector<std::uint64_t> labels;  ///< component label so far (converging)
  int rounds = 0;                    ///< FastSV hook/shortcut rounds done
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Connected components (FastSV), interruptible/resumable between rounds.
CcResult connected_components_run(const Graph& g,
                                  const Checkpoint* resume = nullptr);

/// Connected components (FastSV); label = minimum vertex id in component.
gb::Vector<std::uint64_t> connected_components(const Graph& g);

struct SccResult {
  gb::Vector<std::uint64_t> labels;  ///< pivot label; absent = not yet settled
  int pivots = 0;                    ///< FW-BW pivot rounds completed
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Strongly connected components (FW-BW), interruptible/resumable between
/// pivot rounds.
SccResult strongly_connected_components_run(const Graph& g,
                                            const Checkpoint* resume = nullptr);

/// Strongly connected components of the directed graph via forward-backward
/// reachability splitting (FW-BW). label(v) = pivot vertex of v's SCC.
gb::Vector<std::uint64_t> strongly_connected_components(const Graph& g);

struct KcoreResult {
  gb::Vector<std::uint64_t> coreness;  ///< settled for peeled vertices
  std::uint64_t k = 0;                 ///< current peel level
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// k-core decomposition, interruptible/resumable between peeling steps.
KcoreResult kcore_run(const Graph& g, const Checkpoint* resume = nullptr);

/// k-core decomposition of the undirected view: coreness(v) = largest k
/// such that v survives in the k-core. Dense output.
gb::Vector<std::uint64_t> kcore(const Graph& g);

struct MisResult {
  gb::Vector<bool> set;  ///< entries present (true) are in the set
  int rounds = 0;        ///< Luby rounds completed
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Luby's MIS, interruptible/resumable between rounds. The capsule carries
/// the RNG round, so resumed draws match an uninterrupted run exactly.
MisResult mis_run(const Graph& g, std::uint64_t seed = 42,
                  const Checkpoint* resume = nullptr);

/// Luby's maximal independent set. Entries present (true) are in the set.
gb::Vector<bool> mis(const Graph& g, std::uint64_t seed = 42);

struct ColoringResult {
  gb::Vector<std::uint64_t> colors;  ///< 1-based; absent = not yet colored
  std::uint64_t rounds = 0;          ///< independent sets carved so far
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Greedy IS coloring, interruptible/resumable between color rounds.
ColoringResult coloring_run(const Graph& g, std::uint64_t seed = 42,
                            const Checkpoint* resume = nullptr);

/// Greedy independent-set graph coloring; colors are 1-based.
gb::Vector<std::uint64_t> coloring(const Graph& g, std::uint64_t seed = 42);

struct MatchingResult {
  gb::Vector<std::uint64_t> mate;  ///< partner so far; mate(i) = i unmatched
  int rounds = 0;
  StopReason stop = StopReason::converged;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Maximal matching, interruptible/resumable between rounds.
MatchingResult maximal_matching_run(const Graph& g, std::uint64_t seed = 42,
                                    const Checkpoint* resume = nullptr);

/// Maximal matching: mate(i) = matched partner, mate(i) = i if unmatched.
gb::Vector<std::uint64_t> maximal_matching(const Graph& g,
                                           std::uint64_t seed = 42);

struct ClusterResult {
  gb::Vector<std::uint64_t> labels;  ///< cluster label per vertex
  int iterations = 0;
  bool converged = false;  ///< iterate stabilised before max_iters
  /// MCL: L1 distance between successive iterates; peer-pressure: number of
  /// vertices that changed label in the last round.
  double residual = std::numeric_limits<double>::infinity();
  StopReason stop = StopReason::max_iters;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Markov clustering (MCL). Labels come from each column's attractor row.
/// Requires inflation > 1, max_iters > 0, prune >= 0 (Error invalid_value).
ClusterResult mcl(const Graph& g, double inflation = 2.0, int max_iters = 100,
                  double prune = 1e-6, const Checkpoint* resume = nullptr);

/// Peer-pressure clustering. Requires max_iters > 0 (Error invalid_value).
ClusterResult peer_pressure(const Graph& g, int max_iters = 50,
                            const Checkpoint* resume = nullptr);

struct LocalClusterResult {
  gb::Vector<bool> members;  ///< the cluster found around the seed
  double conductance = 1.0;  ///< cut(S) / min(vol(S), vol(V-S))
  int sweep_size = 0;
};

/// Local graph clustering: seeded personalised-PageRank diffusion + sweep
/// cut (the Table II "local graph clustering" workload).
LocalClusterResult local_clustering(const Graph& g, Index seed,
                                    double alpha = 0.15, double eps = 1e-7,
                                    int max_iters = 50);

// ===========================================================================
// Sparse deep neural network inference (§V machine-learning list)
// ===========================================================================

struct DnnResult {
  gb::Matrix<double> y;  ///< activations after `layers_done` layers
  int layers_done = 0;
  StopReason stop = StopReason::none;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// Sparse DNN inference, interruptible/resumable between layers.
DnnResult dnn_inference_run(const gb::Matrix<double>& y0,
                            const std::vector<gb::Matrix<double>>& weights,
                            const std::vector<double>& biases,
                            double ymax = 32.0,
                            const Checkpoint* resume = nullptr);

/// GraphChallenge-style sparse DNN inference:
/// Y_{l+1} = ReLU(Y_l * W_l + bias_l), entries <= 0 pruned, values clipped
/// at `ymax`.
gb::Matrix<double> dnn_inference(const gb::Matrix<double>& y0,
                                 const std::vector<gb::Matrix<double>>& weights,
                                 const std::vector<double>& biases,
                                 double ymax = 32.0);

// ===========================================================================
// §V "not yet implemented using a GraphBLAS-like library" — the paper's
// future-work list, implemented here.
// ===========================================================================

struct AStarResult {
  double distance = std::numeric_limits<double>::infinity();
  std::vector<Index> path;  ///< source..target; empty if unreachable
  Index expanded = 0;       ///< vertices settled before reaching the target
  StopReason stop = StopReason::none;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// A*, interruptible/resumable between expansions (the capsule carries the
/// open/closed sets and tentative distances).
AStarResult astar_run(const Graph& g, Index source, Index target,
                      const gb::Vector<double>& heuristic,
                      const Checkpoint* resume = nullptr);

/// A* search from source to target with a per-vertex heuristic h (must be
/// admissible for optimality; h absent => 0). Non-negative edge weights.
AStarResult astar(const Graph& g, Index source, Index target,
                  const gb::Vector<double>& heuristic);

/// Dijkstra via A* with a zero heuristic (convenience / baseline).
AStarResult astar(const Graph& g, Index source, Index target);

/// Small-subgraph census of the undirected view (the §V subgraph-counting
/// workload): exact counts via algebraic identities over A, A², A³.
struct SubgraphCensus {
  std::uint64_t edges = 0;
  std::uint64_t wedges = 0;        ///< paths of length 2 (K1,2)
  std::uint64_t claws = 0;         ///< stars K1,3
  std::uint64_t triangles = 0;
  std::uint64_t four_cycles = 0;   ///< simple cycles C4
  std::uint64_t tailed_triangles = 0;  ///< triangle + pendant edge
};
SubgraphCensus subgraph_count(const Graph& g);

/// Weisfeiler-Lehman subtree kernel between two graphs ("graph kernels for
/// supervised learning", §V): `iters` rounds of label refinement driven by
/// the cluster-indicator x adjacency product; returns the kernel value
/// (sum over rounds of label-histogram dot products).
double wl_kernel(const Graph& g1, const Graph& g2, int iters = 3);

/// Per-vertex WL labels after `iters` refinement rounds (canonicalised to
/// dense ids; useful for vertex classification features).
gb::Vector<std::uint64_t> wl_labels(const Graph& g, int iters);

struct GcnResult {
  gb::Matrix<double> h;  ///< hidden state after `layers_done` layers
  int layers_done = 0;
  StopReason stop = StopReason::none;
  Checkpoint checkpoint;  ///< resume capsule; empty unless interrupted
};

/// GCN inference, interruptible/resumable between layers.
GcnResult gcn_inference_run(const Graph& g,
                            const gb::Matrix<double>& features,
                            const std::vector<gb::Matrix<double>>& weights,
                            const Checkpoint* resume = nullptr);

/// Graph convolutional network inference ("graph neural network
/// inference", §V): H_{l+1} = ReLU(Â H_l W_l) with the symmetric
/// normalisation Â = D^-1/2 (A + I) D^-1/2; the last layer is linear.
gb::Matrix<double> gcn_inference(const Graph& g,
                                 const gb::Matrix<double>& features,
                                 const std::vector<gb::Matrix<double>>& weights);

}  // namespace lagraph
