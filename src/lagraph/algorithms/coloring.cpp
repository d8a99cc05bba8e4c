// Greedy independent-set vertex coloring (§V cites Osama et al.'s GPU graph
// coloring, which is the same Jones-Plassmann shape): each round an
// independent set of the still-uncolored vertices — those whose random
// priority beats all uncolored neighbours — receives the round number as its
// color. Proper by construction; terminates because the max-priority
// candidate always wins its round.
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

namespace {

constexpr std::uint64_t splitmix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct PriorityOp {
  std::uint64_t seed;
  template <class T, class S>
  std::uint64_t operator()(const T&, Index i, Index, S) const noexcept {
    return (splitmix(seed ^ i) & ~(Index{0xFFFFF})) | i;
  }
};

}  // namespace

ColoringResult coloring_run(const Graph& g, std::uint64_t seed,
                            const Checkpoint* resume) {
  check_graph(g, "coloring");
  const Index n = g.nrows();

  ColoringResult res;
  gb::Matrix<double> a;
  gb::Vector<std::uint64_t> color;
  gb::Vector<bool> uncolored;
  auto slots = [&](auto& io) {
    io("color", color);
    io("uncolored", uncolored);
    io("round", res.rounds);
  };
  auto setup = [&](bool resumed) {
    a = gb::Matrix<double>(n, n);
    gb::select(a, gb::no_mask, gb::no_accum, gb::SelOffdiag{},
               g.undirected_view(), std::int64_t{0});
    if (resumed) {
      gb::check_value(color.size() == n,
                      "coloring: resume capsule does not match this "
                      "graph");
    } else {
      color = gb::Vector<std::uint64_t>(n);
      uncolored = gb::Vector<bool>::full(n, true);
    }
  };
  auto round = [&] {
    // The RNG round commits only at the bottom: a mid-round rerun draws the
    // same priorities, and the color assign is idempotent.
    const std::uint64_t r = res.rounds + 1;
    gb::Vector<std::uint64_t> prio(n);
    gb::apply_indexop(prio, gb::no_mask, gb::no_accum,
                      PriorityOp{splitmix(seed) ^ r}, uncolored,
                      std::int64_t{0});

    gb::Vector<std::uint64_t> nmax(n);
    gb::mxv(nmax, uncolored, gb::no_accum,
            gb::max_second<std::uint64_t>(), a, prio, gb::desc_s);

    gb::Vector<bool> winners(n);
    gb::Vector<std::uint64_t> beat(n);
    gb::ewise_mult(beat, gb::no_mask, gb::no_accum, gb::Isgt{}, prio, nmax);
    gb::select(winners, gb::no_mask, gb::no_accum, gb::SelValueNe{},
               beat, std::uint64_t{0});
    gb::Vector<bool> lonely(n);
    gb::apply(lonely, nmax, gb::no_accum, gb::One{}, uncolored, gb::desc_sc);
    gb::ewise_add(winners, gb::no_mask, gb::no_accum, gb::Lor{},
                  winners, lonely);

    // color<winners,s> = round
    gb::assign_scalar(color, winners, gb::no_accum, r,
                      gb::IndexSel::all(n), gb::desc_s);

    // uncolored -= winners.
    gb::Vector<bool> next(n);
    gb::apply(next, winners, gb::no_accum, gb::Identity{}, uncolored,
              gb::desc_rsc);

    // Commit: nothing below reaches a governor poll point.
    uncolored = std::move(next);
    ++res.rounds;
    return uncolored.nvals() > 0;
  };
  if (iterate(res, "coloring", resume, slots, setup, round)) {
    res.colors = std::move(color);
  }
  return res;
}

gb::Vector<std::uint64_t> coloring(const Graph& g, std::uint64_t seed) {
  ColoringResult res = coloring_run(g, seed);
  rethrow_interruption(res.stop);
  return std::move(res.colors);
}

}  // namespace lagraph
