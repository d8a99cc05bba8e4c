// Peer-pressure clustering (§V cites Gilbert, Reinhardt & Shah). Every
// vertex adopts the label carrying the most weight among its neighbours:
// one plus_times mxm of the cluster-indicator matrix against the adjacency
// per round, then an argmax per column.
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

namespace {

void capture_pp(ClusterResult& res, const std::vector<std::uint64_t>& label,
                int done) {
  capture_checkpoint(res.checkpoint, [&](Checkpoint& cp) {
    cp.set_algorithm("peer_pressure");
    cp.put_array("label", label);
    cp.put_i64("iterations", done);
    cp.put_f64("residual", res.residual);
  });
}

}  // namespace

ClusterResult peer_pressure(const Graph& g, int max_iters,
                            const Checkpoint* resume) {
  check_graph(g, "peer_pressure");
  gb::check_value(max_iters > 0, "peer_pressure: max_iters must be positive");
  const Index n = g.nrows();

  ClusterResult res;
  res.stop = StopReason::max_iters;
  Scope scope;

  int done = 0;
  if (resume != nullptr && !resume->empty()) {
    check_resume(*resume, "peer_pressure");
    res.checkpoint = *resume;
  }

  // Each vertex also votes for its own current label (A + I): without the
  // self-vote, bipartite structures oscillate forever (two vertices joined
  // by an edge would swap labels every round). Setup runs governed: a trip
  // here returns telemetry with empty labels.
  gb::Matrix<double> a;
  StopReason setup = scope.step([&] {
    a = gb::Matrix<double>(n, n);
    gb::ewise_add(a, gb::no_mask, gb::no_accum, gb::First{},
                  g.undirected_view(),
                  gb::Matrix<double>::identity(n, 1.0));
  });
  if (setup != StopReason::none) {
    res.stop = setup;
    return res;
  }

  std::vector<std::uint64_t> label(n);
  for (Index i = 0; i < n; ++i) label[i] = i;
  if (resume != nullptr && !resume->empty()) {
    label = resume->get_array<std::uint64_t>("label");
    gb::check_value(label.size() == static_cast<std::size_t>(n),
                    "peer_pressure: resume capsule does not match this graph");
    done = static_cast<int>(resume->get_i64("iterations"));
    res.iterations = done;
    res.residual = resume->get_f64("residual");
  }
  for (int it = done; it < max_iters; ++it) {
    if (StopReason why = scope.interrupted(); why != StopReason::none) {
      res.stop = why;
      capture_pp(res, label, done);
      break;
    }
    std::size_t flips = 0;
    StopReason why = scope.step([&] {
      // Indicator: C(label(i), i) = 1.
      gb::Matrix<double> c(n, n);
      {
        std::vector<Index> ri(n), ci(n);
        std::vector<double> xv(n, 1.0);
        for (Index i = 0; i < n; ++i) {
          ri[i] = label[i];
          ci[i] = i;
        }
        c.build(ri, ci, xv, gb::Plus{});
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
      // Flip count as a fused any-difference fold over the two label
      // vectors (plus over label != next), same kernel the convergence
      // checks in cc/sssp use.
      gb::Vector<std::uint64_t> lv(n), nv(n);
      lv.load_full(gb::Buf<std::uint64_t>(label.begin(), label.end()));
      nv.load_full(gb::Buf<std::uint64_t>(next.begin(), next.end()));
      flips = static_cast<std::size_t>(gb::fused_ewise_mult_reduce(
          gb::plus_monoid<std::uint64_t>(), gb::Identity{}, gb::Isne{}, lv,
          nv));
      label = std::move(next);
    });
    ++res.iterations;
    if (why != StopReason::none) {
      res.stop = why;
      capture_pp(res, label, done);
      break;
    }
    ++done;
    res.residual = static_cast<double>(flips);
    if (flips == 0) {
      res.converged = true;
      res.stop = StopReason::converged;
      break;
    }
  }

  res.labels = gb::Vector<std::uint64_t>(n);
  for (Index i = 0; i < n; ++i) res.labels.set_element(i, label[i]);
  return res;
}

}  // namespace lagraph
