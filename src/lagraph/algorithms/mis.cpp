// Luby's maximal independent set (§V cites Lugowski et al. and the
// GraphBLAST MIS). Each round every remaining candidate draws a priority;
// candidates beating every candidate neighbour join the set, and they and
// their neighbours leave the pool. Priorities are unique (hash * n + id), so
// no ties can put two neighbours in simultaneously.
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

namespace {

/// splitmix64: cheap, well-mixed stateless hash for per-round priorities.
constexpr std::uint64_t splitmix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Index-unary op assigning a unique pseudo-random priority to index i.
struct PriorityOp {
  std::uint64_t seed;
  Index n;
  template <class T, class S>
  std::uint64_t operator()(const T&, Index i, Index, S) const noexcept {
    // Top bits random, low bits the id: unique and uniformly ordered.
    return (splitmix(seed ^ i) & ~(Index{0xFFFFF})) | i;
  }
};

}  // namespace

MisResult mis_run(const Graph& g, std::uint64_t seed,
                  const Checkpoint* resume) {
  check_graph(g, "mis");
  const Index n = g.nrows();

  MisResult res;
  gb::Matrix<double> a;
  gb::Vector<bool> iset;
  gb::Vector<bool> candidates;
  std::uint64_t rounds = 0;
  auto slots = [&](auto& io) {
    io("iset", iset);
    io("candidates", candidates);
    io("round", rounds);
  };
  auto setup = [&](bool resumed) {
    // Self-loops would make a vertex its own neighbour and deadlock the winner
    // rule; strip the diagonal. Derived from the graph, so rebuilt on resume
    // rather than checkpointed.
    a = gb::Matrix<double>(n, n);
    gb::select(a, gb::no_mask, gb::no_accum, gb::SelOffdiag{},
               g.undirected_view(), std::int64_t{0});
    if (resumed) {
      gb::check_value(iset.size() == n,
                      "mis: resume capsule does not match this graph");
    } else {
      iset = gb::Vector<bool>(n);
      candidates = gb::Vector<bool>::full(n, true);
    }
  };
  auto round = [&] {
    // The RNG round is committed only at the bottom, so re-running this round
    // after a mid-round trip draws the same priorities; the iset assign is
    // idempotent under the same winners.
    const std::uint64_t r = rounds + 1;
    // Unique priorities on the candidates.
    gb::Vector<std::uint64_t> prio(n);
    gb::apply_indexop(prio, gb::no_mask, gb::no_accum,
                      PriorityOp{splitmix(seed) ^ r, n}, candidates,
                      std::int64_t{0});

    // Max candidate-neighbour priority: nmax(i) = max_{j in adj(i)} prio(j).
    gb::Vector<std::uint64_t> nmax(n);
    gb::mxv(nmax, candidates, gb::no_accum,
            gb::max_second<std::uint64_t>(), a, prio, gb::desc_s);

    // Winners: candidates whose priority beats every candidate neighbour...
    gb::Vector<bool> winners(n);
    gb::Vector<std::uint64_t> beat(n);
    gb::ewise_mult(beat, gb::no_mask, gb::no_accum, gb::Isgt{}, prio, nmax);
    gb::select(winners, gb::no_mask, gb::no_accum, gb::SelValueNe{},
               beat, std::uint64_t{0});
    gb::apply(winners, gb::no_mask, gb::no_accum, gb::One{}, winners);
    // ... plus candidates with no candidate neighbour at all.
    gb::Vector<bool> lonely(n);
    gb::apply(lonely, nmax, gb::no_accum, gb::One{}, candidates, gb::desc_sc);
    gb::ewise_add(winners, gb::no_mask, gb::no_accum, gb::Lor{},
                  winners, lonely);

    // iset |= winners.
    gb::assign_scalar(iset, winners, gb::no_accum, true,
                      gb::IndexSel::all(n), gb::desc_s);

    // Remove winners and their neighbours from the candidate pool.
    gb::Vector<bool> neigh(n);
    gb::mxv(neigh, candidates, gb::no_accum, gb::any_pair<bool>(), a,
            winners, gb::desc_s);
    gb::Vector<bool> removed(n);
    gb::ewise_add(removed, gb::no_mask, gb::no_accum, gb::Lor{},
                  winners, neigh);
    // candidates<removed, s, replace-complement>: keep only non-removed.
    gb::Vector<bool> next(n);
    gb::apply(next, removed, gb::no_accum, gb::Identity{}, candidates,
              gb::desc_rsc);

    // Commit: nothing below reaches a governor poll point.
    candidates = std::move(next);
    ++rounds;
    return candidates.nvals() > 0;
  };
  if (iterate(res, "mis", resume, slots, setup, round)) {
    res.rounds = static_cast<int>(rounds);
    res.set = std::move(iset);
  }
  return res;
}

gb::Vector<bool> mis(const Graph& g, std::uint64_t seed) {
  MisResult res = mis_run(g, seed);
  rethrow_interruption(res.stop);
  return std::move(res.set);
}

}  // namespace lagraph
