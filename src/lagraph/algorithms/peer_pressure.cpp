// Peer-pressure clustering (§V cites Gilbert, Reinhardt & Shah). Every
// vertex adopts the label carrying the most weight among its neighbours:
// one plus_times mxm of the cluster-indicator matrix against the adjacency
// per round, then an argmax per column.
#include <numeric>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

ClusterResult peer_pressure(const Graph& g, int max_iters,
                            const Checkpoint* resume) {
  check_graph(g, "peer_pressure");
  gb::check_value(max_iters > 0, "peer_pressure: max_iters must be positive");
  const Index n = g.nrows();

  ClusterResult res;
  gb::Matrix<double> a;
  std::vector<std::uint64_t> label;
  auto slots = [&](auto& io) {
    io("label", label);
    io("iterations", res.iterations);
    io("residual", res.residual);
  };
  auto setup = [&](bool resumed) {
    // Each vertex also votes for its own current label (A + I): without the
    // self-vote, bipartite structures oscillate forever (two vertices joined by
    // an edge would swap labels every round).
    a = gb::Matrix<double>(n, n);
    gb::ewise_add(a, gb::no_mask, gb::no_accum, gb::First{},
                  g.undirected_view(),
                  gb::Matrix<double>::identity(n, 1.0));
    if (resumed) {
      gb::check_value(
          label.size() == static_cast<std::size_t>(n),
          "peer_pressure: resume capsule does not match this graph");
    } else {
      label.resize(n);
      std::iota(label.begin(), label.end(), std::uint64_t{0});
    }
    return res.iterations < max_iters;
  };
  auto round = [&] {
    // Indicator: C(label(i), i) = 1.
    gb::Matrix<double> c(n, n);
    {
      std::vector<Index> ci(n);
      std::iota(ci.begin(), ci.end(), Index{0});
      std::vector<double> xv(n, 1.0);
      c.build(label, ci, xv, gb::Plus{});
    }

    // Votes: T(l, j) = sum of weights from label-l neighbours of j.
    gb::Matrix<double> votes(n, n);
    gb::mxm(votes, gb::no_mask, gb::no_accum, gb::plus_times<double>(), c, a);

    // New label of j = argmax_l votes(l, j); ties to the smaller label;
    // vertices with no neighbours keep their label.
    std::vector<Index> r, cc;
    std::vector<double> v;
    votes.extract_tuples(r, cc, v);
    std::vector<double> best(n, -1.0);
    std::vector<std::uint64_t> next(label);
    for (std::size_t k = 0; k < v.size(); ++k) {
      Index j = cc[k];
      if (v[k] > best[j] || (v[k] == best[j] && r[k] < next[j])) {
        best[j] = v[k];
        next[j] = r[k];
      }
    }
    // Flip count as a fused any-difference fold over the two label vectors
    // (plus over label != next), same kernel the convergence checks in cc/sssp
    // use.
    gb::Vector<std::uint64_t> lv(n), nv(n);
    lv.load_full(gb::Buf<std::uint64_t>(label.begin(), label.end()));
    nv.load_full(gb::Buf<std::uint64_t>(next.begin(), next.end()));
    const auto flips = gb::fused_ewise_mult_reduce(
        gb::plus_monoid<std::uint64_t>(), gb::Identity{}, gb::Isne{},
        lv, nv);
    label = std::move(next);
    ++res.iterations;
    res.residual = static_cast<double>(flips);
    if (flips == 0) {
      res.converged = true;
      res.stop = StopReason::converged;
      return false;
    }
    return res.iterations < max_iters;
  };
  if (iterate(res, "peer_pressure", resume, slots, setup, round)) {
    res.labels = gb::Vector<std::uint64_t>(n);
    for (Index i = 0; i < n; ++i) res.labels.set_element(i, label[i]);
  }
  return res;
}

}  // namespace lagraph
