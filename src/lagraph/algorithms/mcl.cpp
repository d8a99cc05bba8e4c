// Markov clustering (MCL) — §V cites HipMCL, the distributed GraphBLAS-style
// MCL. Expansion is mxm over plus_times; inflation is an elementwise power
// followed by column re-normalisation (an mxm with a diagonal scaling
// matrix); pruning is a select. Cluster labels come from each column's
// attractor row.
#include <cmath>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

namespace {

/// Column-normalise M in place: M = M * diag(1 / colsum).
void normalize_columns(gb::Matrix<double>& m) {
  const Index n = m.ncols();
  // Column-sum and reciprocal in one fused pass — the colsum vector is only
  // ever consumed through Minv.
  gb::Vector<double> inv(n);
  gb::fused_reduce_apply(inv, gb::plus_monoid<double>(), gb::Minv{}, m,
                         gb::desc_t0);
  auto d = gb::Matrix<double>::diag(inv);
  gb::Matrix<double> out(m.nrows(), n);
  gb::mxm(out, gb::no_mask, gb::no_accum, gb::plus_times<double>(), m, d);
  m = std::move(out);
}

struct PowOp {
  double r;
  double operator()(double x) const { return std::pow(x, r); }
};

}  // namespace

namespace {

/// Attractors: label of column j = row index of its maximum entry.
gb::Vector<std::uint64_t> attractor_labels(const gb::Matrix<double>& m,
                                           Index n) {
  std::vector<Index> r, c;
  std::vector<double> v;
  m.extract_tuples(r, c, v);
  gb::Vector<std::uint64_t> labels(n);
  std::vector<double> best(n, -1.0);
  std::vector<std::uint64_t> owner(n, 0);
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (v[k] > best[c[k]] ||
        (v[k] == best[c[k]] && r[k] < owner[c[k]])) {
      best[c[k]] = v[k];
      owner[c[k]] = r[k];
    }
  }
  for (Index j = 0; j < n; ++j) {
    labels.set_element(j, best[j] >= 0 ? owner[j] : j);
  }
  return labels;
}

/// L1 distance between successive iterates (union pattern, absent = 0),
/// folded in one pass — no difference matrix committed.
double l1_distance(const gb::Matrix<double>& a, const gb::Matrix<double>& b) {
  return gb::fused_ewise_add_reduce(gb::plus_monoid<double>(), gb::Abs{},
                                    gb::Minus{}, a, b);
}

}  // namespace

ClusterResult mcl(const Graph& g, double inflation, int max_iters,
                  double prune, const Checkpoint* resume) {
  check_graph(g, "mcl");
  gb::check_value(inflation > 1.0, "mcl: inflation must be > 1");
  gb::check_value(max_iters > 0, "mcl: max_iters must be positive");
  gb::check_value(prune >= 0.0, "mcl: prune must be non-negative");

  const Index n = g.nrows();

  ClusterResult res;
  gb::Matrix<double> m;
  auto slots = [&](auto& io) {
    io("m", m);
    io("iterations", res.iterations);
    io("residual", res.residual);
  };
  auto setup = [&](bool resumed) {
    if (resumed) {
      gb::check_value(m.nrows() == n,
                      "mcl: resume capsule does not match this graph");
    } else {
      // M = A + I (self-loops are standard MCL practice), column-stochastic.
      m = gb::Matrix<double>(n, n);
      gb::ewise_add(m, gb::no_mask, gb::no_accum, gb::Plus{},
                    g.undirected_view(),
                    gb::Matrix<double>::identity(n, 1.0));
      normalize_columns(m);
    }
    return res.iterations < max_iters;
  };
  auto round = [&] {
    // The whole iteration builds a fresh iterate; m stays intact until the
    // commit below, so a mid-round trip leaves the iteration-boundary state
    // untouched.
    gb::Matrix<double> next(n, n);
    gb::mxm(next, gb::no_mask, gb::no_accum, gb::plus_times<double>(), m, m);

    // Inflation: M = M .^ r, column-renormalised.
    gb::apply(next, gb::no_mask, gb::no_accum, PowOp{inflation}, next);
    normalize_columns(next);

    // Prune tiny entries to keep the iterate sparse, then renormalise.
    gb::Matrix<double> kept(n, n);
    gb::select(kept, gb::no_mask, gb::no_accum, gb::SelValueGt{}, next, prune);
    next = std::move(kept);
    normalize_columns(next);

    const double dist = l1_distance(m, next);
    const bool close = isclose(m, next, 1e-9);
    m = std::move(next);  // commit
    ++res.iterations;
    res.residual = dist;
    if (!std::isfinite(dist)) {
      // NaN/Inf iterate (e.g. a column that pruned to empty and divided by
      // zero): stop and say so rather than labelling garbage.
      res.stop = StopReason::diverged;
      return false;
    }
    if (close) {
      res.converged = true;
      res.stop = StopReason::converged;
      return false;
    }
    return res.iterations < max_iters;
  };
  if (iterate(res, "mcl", resume, slots, setup, round)) {
    // Labels read the iterate the rounds left, stopped or not; a stop is
    // already taken, so labelling runs unbound and cannot trip again.
    gb::platform::GovernorUnbind unbound;
    res.labels = attractor_labels(m, n);
  }
  return res;
}

}  // namespace lagraph
