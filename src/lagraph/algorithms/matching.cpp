// Maximal matching via mutual-proposal rounds (§V cites Azad & Buluç's
// matrix-algebraic maximal matching). Every unmatched vertex proposes to its
// minimum-id unmatched neighbour (one min_second mxv); mutual proposals
// match. The minimum-id vertex with any live neighbour always pairs, so the
// rounds terminate with a maximal matching.
#include <numeric>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

MatchingResult maximal_matching_run(const Graph& g, std::uint64_t /*seed*/,
                                    const Checkpoint* resume) {
  check_graph(g, "maximal_matching");
  const Index n = g.nrows();

  MatchingResult res;
  gb::Matrix<double> a;
  gb::Vector<std::uint64_t> mate;  // mate(i) = i means unmatched
  gb::Vector<bool> candidates;
  auto slots = [&](auto& io) {
    io("mate", mate);
    io("candidates", candidates);
    io("rounds", res.rounds);
  };
  auto setup = [&](bool resumed) {
    a = gb::Matrix<double>(n, n);
    gb::select(a, gb::no_mask, gb::no_accum, gb::SelOffdiag{},
               g.undirected_view(), std::int64_t{0});
    if (resumed) {
      gb::check_value(mate.size() == n,
                      "maximal_matching: resume capsule does not "
                      "match this graph");
    } else {
      mate = gb::Vector<std::uint64_t>(n);
      std::vector<Index> idx(n);
      std::iota(idx.begin(), idx.end(), Index{0});
      mate.build(idx, idx, gb::Second{});
      candidates = gb::Vector<bool>::full(n, true);
    }
  };
  auto round = [&] {
    // Candidates commit only at the bottom: a mid-round rerun proposes to the
    // same neighbours, and the mate updates are idempotent.

    // ids(i) = i on the candidates.
    gb::Vector<std::uint64_t> ids(n);
    gb::apply_indexop(ids, gb::no_mask, gb::no_accum, gb::RowIndex{},
                      candidates, std::int64_t{0});

    // pick(i) = min candidate neighbour id.
    gb::Vector<std::uint64_t> pick(n);
    gb::mxv(pick, candidates, gb::no_accum,
            gb::min_second<std::uint64_t>(), a, ids, gb::desc_s);
    if (pick.nvals() == 0) {
      ++res.rounds;  // no candidate has a candidate neighbour
      return false;
    }

    // Mutuality: pick2(i) = pick(pick(i)); matched iff pick2(i) == i.
    std::vector<Index> pi;
    std::vector<std::uint64_t> pv;
    pick.extract_tuples(pi, pv);
    gb::Vector<std::uint64_t> pick_at(pv.size());
    gb::extract(pick_at, gb::no_mask, gb::no_accum, pick, gb::IndexSel(pv));

    gb::Vector<bool> matched(n);
    for (std::size_t k = 0; k < pi.size(); ++k) {
      auto back = pick_at.extract_element(k);
      if (back && *back == pi[k]) {
        mate.set_element(pi[k], pv[k]);
        matched.set_element(pi[k], true);
      }
    }

    // Drop matched vertices and candidates with no live neighbour.
    gb::Vector<bool> dead(n);
    gb::apply(dead, pick, gb::no_accum, gb::One{}, candidates, gb::desc_sc);
    gb::Vector<bool> removed(n);
    gb::ewise_add(removed, gb::no_mask, gb::no_accum, gb::Lor{}, matched, dead);
    gb::Vector<bool> next(n);
    gb::apply(next, removed, gb::no_accum, gb::Identity{}, candidates,
              gb::desc_rsc);

    // Commit: nothing below reaches a governor poll point.
    candidates = std::move(next);
    ++res.rounds;
    return candidates.nvals() > 0;
  };
  if (iterate(res, "maximal_matching", resume, slots, setup, round)) {
    res.mate = std::move(mate);
  }
  return res;
}

gb::Vector<std::uint64_t> maximal_matching(const Graph& g,
                                           std::uint64_t seed) {
  MatchingResult res = maximal_matching_run(g, seed);
  rethrow_interruption(res.stop);
  return std::move(res.mate);
}

}  // namespace lagraph
