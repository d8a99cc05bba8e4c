// k-core decomposition: coreness(v) = the largest k such that v belongs to
// a subgraph where every vertex has degree >= k. Algebraic peeling: degrees
// within the surviving set come from one plus_pair mxv per round; vertices
// below the current k are peeled with a select, and k rises when the
// peeling reaches a fixpoint.
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

KcoreResult kcore_run(const Graph& g, const Checkpoint* resume) {
  check_graph(g, "kcore");
  const Index n = g.nrows();

  KcoreResult res;
  gb::Matrix<std::int64_t> a;
  gb::Vector<std::uint64_t> coreness;
  gb::Vector<bool> alive;
  std::uint64_t k = 1;
  auto slots = [&](auto& io) {
    io("coreness", coreness);
    io("alive", alive);
    io("k", k);
  };
  auto setup = [&](bool resumed) {
    // Simple pattern (no self-loops; they never contribute to coreness). The
    // pattern is derived from the graph, so it is rebuilt on resume rather than
    // checkpointed.
    a = gb::Matrix<std::int64_t>(n, n);
    gb::Matrix<std::int64_t> ones(n, n);
    gb::apply(ones, gb::no_mask, gb::no_accum, gb::One{}, g.undirected_view());
    gb::select(a, gb::no_mask, gb::no_accum, gb::SelOffdiag{}, ones,
               std::int64_t{0});
    if (resumed) {
      gb::check_value(coreness.size() == n,
                      "kcore: resume capsule does not match this graph");
    } else {
      coreness = gb::Vector<std::uint64_t>::full(n, 0);
      alive = gb::Vector<bool>::full(n, true);
    }
  };
  auto round = [&] {
    // Degrees inside the surviving subgraph: deg = A ⊕.pair alive.
    gb::Vector<std::int64_t> deg(n);
    gb::mxv(deg, alive, gb::no_accum, gb::plus_pair<std::int64_t>(), a,
            alive, gb::desc_rs);

    // Peel everyone whose in-set degree is below k. Vertices with no deg entry
    // (isolated within the set) peel too.
    gb::Vector<bool> weak(n);
    {
      gb::Vector<std::int64_t> low(n);
      gb::select(low, gb::no_mask, gb::no_accum, gb::SelValueLt{}, deg,
                 static_cast<std::int64_t>(k));
      gb::apply(weak, gb::no_mask, gb::no_accum, gb::One{}, low);
      gb::Vector<bool> isolated(n);
      gb::apply(isolated, deg, gb::no_accum, gb::Identity{}, alive,
                gb::desc_rsc);
      gb::ewise_add(weak, gb::no_mask, gb::no_accum, gb::Lor{}, weak, isolated);
    }

    if (weak.nvals() == 0) {
      // Everyone surviving is in the k-core: record and raise k. A trip during
      // the assign re-runs it on resume with identical mask and value
      // (idempotent), so (coreness, alive, k) stays consistent.
      gb::assign_scalar(coreness, alive, gb::no_accum, k,
                        gb::IndexSel::all(n), gb::desc_s);
      ++k;
      return true;
    }
    // Remove the weak vertices; their coreness stays at k-1 (already recorded
    // when they last survived a full k-level).
    gb::Vector<bool> next(n);
    gb::apply(next, weak, gb::no_accum, gb::Identity{}, alive, gb::desc_rsc);
    alive = std::move(next);  // commit
    return alive.nvals() > 0;
  };
  if (iterate(res, "kcore", resume, slots, setup, round)) {
    res.k = k;
    res.coreness = std::move(coreness);
  }
  return res;
}

gb::Vector<std::uint64_t> kcore(const Graph& g) {
  KcoreResult res = kcore_run(g);
  rethrow_interruption(res.stop);
  return std::move(res.coreness);
}

}  // namespace lagraph
