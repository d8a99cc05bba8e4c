// Strongly connected components by forward-backward (FW-BW) reachability
// splitting — the classic algebraic SCC scheme (Fleischer, Hendrickson,
// Pınar): pick a pivot in the active set, compute its forward and backward
// reachable sets (two masked BFS sweeps, one vxm per level), intersect to
// get the pivot's SCC, and recurse on the three remainder pieces.
#include <vector>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

namespace {

/// Vertices of `active` reachable from `seed` by edges of op(A) restricted
/// to `active` (seed included). One lor_land vxm per BFS level, masked to
/// the active set and the unvisited complement.
gb::Vector<bool> masked_reachable(const gb::Matrix<double>& a, bool transpose,
                                  Index seed, const gb::Vector<bool>& active) {
  const Index n = a.nrows();
  gb::Vector<bool> visited(n);
  visited.set_element(seed, true);
  gb::Vector<bool> frontier(n);
  frontier.set_element(seed, true);

  gb::Descriptor expand = gb::desc_rsc;  // <!visited, replace, structural>
  expand.transpose_a = transpose;
  while (frontier.nvals() > 0) {
    gb::vxm(frontier, visited, gb::no_accum, gb::lor_land(), frontier, a,
            expand);
    // Restrict to the active set.
    gb::Vector<bool> in_active(n);
    gb::ewise_mult(in_active, gb::no_mask, gb::no_accum, gb::Land{}, frontier,
                   active);
    gb::select(frontier, gb::no_mask, gb::no_accum, gb::SelValueNe{},
               in_active, false);
    if (frontier.nvals() == 0) break;
    gb::assign_scalar(visited, frontier, gb::no_accum, true,
                      gb::IndexSel::all(n), gb::desc_s);
  }
  return visited;
}

}  // namespace

SccResult strongly_connected_components_run(const Graph& g,
                                            const Checkpoint* resume) {
  check_graph(g, "strongly_connected_components");
  const auto& a = g.adj();
  const Index n = a.nrows();

  SccResult res;
  gb::Vector<std::uint64_t> label;
  std::vector<gb::Vector<bool>> work;  // disjoint active sets still to split
  auto slots = [&](auto& io) {
    io("label", label);
    io("pivots", res.pivots);
    io("work", work);
  };
  auto setup = [&](bool resumed) {
    g.ensure_transpose();
    if (resumed) {
      gb::check_value(label.size() == n,
                      "strongly_connected_components: resume capsule "
                      "does not match this graph");
      return;
    }
    label = gb::Vector<std::uint64_t>(n);
    work.push_back(gb::Vector<bool>::full(n, true));
  };
  auto round = [&] {
    if (work.back().nvals() == 0) {
      work.pop_back();
      return !work.empty();
    }
    // The active set stays on the work list until the commit below, so a
    // mid-round trip re-runs this pivot from scratch: same pivot, same
    // reachable sets, and the label assign is idempotent.
    const gb::Vector<bool>& active = work.back();
    const Index pivot = active.indices()[0];
    auto fw = masked_reachable(a, /*transpose=*/false, pivot, active);
    auto bw = masked_reachable(a, /*transpose=*/true, pivot, active);

    // SCC = forward ∩ backward (both already ⊆ active ∪ {pivot}; pivot is in
    // active by construction).
    gb::Vector<bool> scc(n);
    gb::ewise_mult(scc, gb::no_mask, gb::no_accum, gb::Land{}, fw, bw);
    gb::select(scc, gb::no_mask, gb::no_accum, gb::SelValueNe{}, scc, false);
    gb::assign_scalar(label, scc, gb::no_accum, pivot,
                      gb::IndexSel::all(n), gb::desc_s);

    // Remainder pieces: active∩fw∖scc, active∩bw∖scc, active∖(fw∪bw).
    auto piece = [&](const gb::Vector<bool>& base, bool subtract_union) {
      gb::Vector<bool> p(n);
      if (subtract_union) {
        gb::Vector<bool> reach(n);
        gb::ewise_add(reach, gb::no_mask, gb::no_accum, gb::Lor{}, fw, bw);
        // p = active where reach has no truthy entry.
        gb::Vector<bool> rt(n);
        gb::select(rt, gb::no_mask, gb::no_accum, gb::SelValueNe{},
                   reach, false);
        gb::apply(p, rt, gb::no_accum, gb::Identity{}, active, gb::desc_rsc);
      } else {
        gb::ewise_mult(p, gb::no_mask, gb::no_accum, gb::Land{}, active, base);
        gb::select(p, gb::no_mask, gb::no_accum, gb::SelValueNe{}, p, false);
        // Remove the settled SCC.
        gb::Vector<bool> q(n);
        gb::apply(q, scc, gb::no_accum, gb::Identity{}, p, gb::desc_rsc);
        p = std::move(q);
      }
      return p;
    };
    auto p_fw = piece(fw, false);
    auto p_bw = piece(bw, false);
    auto p_rest = piece({}, true);

    // Commit: nothing below reaches a governor poll point.
    work.pop_back();
    work.push_back(std::move(p_fw));
    work.push_back(std::move(p_bw));
    work.push_back(std::move(p_rest));
    ++res.pivots;
    return true;
  };
  if (iterate(res, "strongly_connected_components", resume, slots, setup,
              round)) {
    res.labels = std::move(label);
  }
  return res;
}

gb::Vector<std::uint64_t> strongly_connected_components(const Graph& g) {
  SccResult res = strongly_connected_components_run(g);
  rethrow_interruption(res.stop);
  return std::move(res.labels);
}

}  // namespace lagraph
