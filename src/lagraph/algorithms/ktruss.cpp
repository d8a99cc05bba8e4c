// k-truss (§V cites Davis's SuiteSparse k-truss and Low et al.'s
// linear-algebraic formulation): iterate support counting C<C> = C*C with the
// plus_pair semiring, then peel edges whose support < k-2, until fixpoint.
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

KtrussResult ktruss_run(const Graph& g, std::uint64_t k,
                        const Checkpoint* resume) {
  check_graph(g, "ktruss");
  gb::check_value(k >= 3, "ktruss: k must be >= 3");
  const Index n = g.nrows();
  const auto support_needed = static_cast<std::int64_t>(k) - 2;

  KtrussResult res;
  gb::Matrix<std::int64_t> c;  // surviving edges; values = support
  gb::Index last_nvals = 0;
  auto slots = [&](auto& io) {
    io("c", c);
    io("rounds", res.rounds);
  };
  auto setup = [&](bool resumed) {
    if (resumed) {
      gb::check_value(c.nrows() == n,
                      "ktruss: resume capsule does not match this graph");
    } else {
      // C starts as the off-diagonal pattern of A | Aᵀ.
      c = gb::Matrix<std::int64_t>(n, n);
      gb::Matrix<std::int64_t> ones(n, n);
      gb::apply(ones, gb::no_mask, gb::no_accum, gb::One{},
                g.undirected_view());
      gb::select(c, gb::no_mask, gb::no_accum, gb::SelOffdiag{}, ones,
                 std::int64_t{0});
    }
    last_nvals = c.nvals();
  };
  auto round = [&] {
    // Support of every surviving edge: S<C> = C*C (plus_pair, structural mask).
    gb::Matrix<std::int64_t> s(n, n);
    gb::mxm(s, c, gb::no_accum, gb::plus_pair<std::int64_t>(), c, c,
            gb::desc_s);
    // Keep edges with support >= k-2. A trip during the select leaves c at its
    // pre-round state (per-op transactionality), so the round boundary stays
    // consistent for the capsule.
    gb::select(c, gb::no_mask, gb::no_accum, gb::SelValueGe{}, s,
               support_needed);
    const bool fixed = c.nvals() == last_nvals;
    last_nvals = c.nvals();
    ++res.rounds;
    return !fixed;
  };
  if (iterate(res, "ktruss", resume, slots, setup, round)) {
    res.nedges = c.nvals() / 2;
    res.c = std::move(c);
  }
  return res;
}

KtrussResult ktruss(const Graph& g, std::uint64_t k) {
  KtrussResult res = ktruss_run(g, k);
  rethrow_interruption(res.stop);
  return res;
}

}  // namespace lagraph
