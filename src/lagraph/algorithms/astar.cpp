// A* search — first entry of the paper's §V "important but so far not
// implemented using a GraphBLAS-like library" list.
//
// Algebraic formulation: the open set is a sparse vector of tentative
// g-scores masked by the complement of the closed set; the expansion step
// extracts the settled vertex's adjacency row (one extract_col against the
// transposed orientation) and relaxes it with elementwise min; f-scores are
// an elementwise add with the heuristic. The argmin pick is a min-reduce
// followed by a value select — all Table-I operations.
#include <algorithm>
#include <cmath>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

AStarResult astar_run(const Graph& g, Index source, Index target,
                      const gb::Vector<double>& heuristic,
                      const Checkpoint* resume) {
  check_graph(g, "astar");
  const auto& a = g.adj();
  const Index n = a.nrows();
  gb::check_index(source < n && target < n, "astar: vertex out of range");
  gb::check_dims(heuristic.size() == n, "astar: heuristic size");

  AStarResult res;
  gb::Vector<double> dist;  // tentative g-scores (the open+closed sets)
  gb::Vector<bool> closed;
  gb::Vector<std::uint64_t> parent;
  auto slots = [&](auto& io) {
    io("dist", dist);
    io("closed", closed);
    io("parent", parent);
    io("expanded", res.expanded);
  };
  auto setup = [&](bool resumed) {
    if (resumed) {
      gb::check_value(dist.size() == n,
                      "astar: resume capsule does not match this graph");
      return;
    }
    dist = gb::Vector<double>(n);
    dist.set_element(source, 0.0);
    closed = gb::Vector<bool>(n);
    parent = gb::Vector<std::uint64_t>(n);
    parent.set_element(source, source);
  };
  auto round = [&] {
    // open = dist restricted to not-closed vertices.
    gb::Vector<double> open(n);
    gb::apply(open, closed, gb::no_accum, gb::Identity{}, dist, gb::desc_rsc);
    if (open.nvals() == 0) return false;  // target unreachable

    // f = g + h on the open set (h entries absent count as 0).
    gb::Vector<double> f = open;
    gb::ewise_mult(f, gb::no_mask, gb::Plus{}, gb::Second{}, open, heuristic);

    // u = argmin f (min-reduce, then select the minimum, then first index).
    double fmin = gb::reduce_scalar(gb::min_monoid<double>(), f);
    gb::Vector<double> at_min(n);
    gb::select(at_min, gb::no_mask, gb::no_accum, gb::SelValueLe{}, f, fmin);
    Index u = at_min.indices()[0];

    if (u == target) {
      res.distance = dist.extract_element(target).value();
      // Path reconstruction through the parent vector (reads only).
      std::vector<Index> rev;
      Index cur = target;
      while (true) {
        rev.push_back(cur);
        Index p = parent.extract_element(cur).value();
        if (p == cur) break;
        cur = p;
      }
      res.path.assign(rev.rbegin(), rev.rend());
      return false;
    }

    // Relax u's out-edges: cand = dist(u) + A(u, :).
    gb::Vector<double> row(n);
    gb::extract_col(row, gb::no_mask, gb::no_accum, a, gb::IndexSel::all(n),
                    u, gb::desc_t0);
    const double du = dist.extract_element(u).value();
    gb::Vector<double> cand(n);
    gb::apply(cand, gb::no_mask, gb::no_accum,
              gb::BindFirst<gb::Plus, double>{{}, du}, row);

    // improved = positions where cand beats dist (or dist has no entry).
    gb::Vector<bool> improved(n);
    {
      gb::Vector<double> both(n);
      gb::ewise_mult(both, gb::no_mask, gb::no_accum, gb::Islt{}, cand, dist);
      gb::select(improved, gb::no_mask, gb::no_accum, gb::SelValueNe{},
                 both, 0.0);
      // plus candidates with no dist entry yet.
      gb::Vector<bool> fresh(n);
      gb::apply(fresh, dist, gb::no_accum,
                gb::BindSecond<gb::Second, bool>{{}, true}, cand,
                gb::desc_sc);
      gb::ewise_add(improved, gb::no_mask, gb::no_accum, gb::Lor{},
                    improved, fresh);
    }

    // The whole expansion builds next-state copies; dist/closed/parent stay at
    // the expansion boundary until the commit below, so a mid-round trip leaves
    // a consistent capsule.
    gb::Vector<double> next_dist = dist;
    gb::Vector<std::uint64_t> next_parent = parent;
    gb::Vector<bool> next_closed = closed;
    if (improved.nvals() > 0) {
      // dist<improved,s> = cand; parent<improved,s> = u.
      gb::apply(next_dist, improved, gb::no_accum, gb::Identity{}, cand,
                gb::desc_s);
      gb::assign_scalar(next_parent, improved, gb::no_accum, u,
                        gb::IndexSel::all(n), gb::desc_s);
      // A consistent heuristic never improves a closed vertex; with a merely
      // admissible one it can — reopen by clearing the closed flag.
      gb::Vector<bool> reopen(n);
      gb::ewise_mult(reopen, gb::no_mask, gb::no_accum, gb::Land{},
                     improved, next_closed);
      std::vector<Index> ri;
      std::vector<bool> rv;
      reopen.extract_tuples(ri, rv);
      for (std::size_t k = 0; k < ri.size(); ++k) {
        if (rv[k]) next_closed.remove_element(ri[k]);
      }
    }
    next_closed.set_element(u, true);

    // Commit: plain moves plus a counter bump, no kernel poll points.
    dist = std::move(next_dist);
    parent = std::move(next_parent);
    closed = std::move(next_closed);
    ++res.expanded;
    return true;
  };
  iterate(res, "astar", resume, slots, setup, round);
  return res;
}

AStarResult astar(const Graph& g, Index source, Index target,
                  const gb::Vector<double>& heuristic) {
  AStarResult res = astar_run(g, source, target, heuristic);
  rethrow_interruption(res.stop);
  return res;
}

AStarResult astar(const Graph& g, Index source, Index target) {
  return astar(g, source, target, gb::Vector<double>(g.nrows()));
}

}  // namespace lagraph
