// All-pairs shortest paths by min-plus repeated squaring (§V cites
// Solomonik, Buluç & Demmel's communication-optimal APSP; the algebraic core
// is D_{2k} = min(D_k, D_k min.+ D_k)). Intended for small/medium graphs —
// the output is dense.
#include <cmath>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

ApspResult apsp_run(const Graph& g, const Checkpoint* resume) {
  check_graph(g, "apsp");
  const auto& a = g.adj();
  const Index n = a.nrows();

  // ceil(log2(n)) squarings reach every path length.
  int rounds = 1;
  while ((Index{1} << rounds) < n) ++rounds;

  ApspResult res;
  gb::Matrix<double> d;
  auto slots = [&](auto& io) {
    io("d", d);
    io("rounds", res.rounds);
  };
  auto setup = [&](bool resumed) {
    if (resumed) {
      gb::check_value(d.nrows() == n,
                      "apsp: resume capsule does not match this graph");
      return;
    }
    // D starts as A with an explicit zero diagonal.
    d = a.dup();
    gb::Matrix<double> zero_diag = gb::Matrix<double>::identity(n, 0.0);
    gb::ewise_add(d, gb::no_mask, gb::no_accum, gb::Second{}, d, zero_diag);
  };
  auto round = [&] {
    // The squaring lands in a temporary; d moves only at the commit, so a
    // mid-round trip leaves the round boundary intact.
    gb::Matrix<double> next = d.dup();
    gb::mxm(next, gb::no_mask, gb::Min{}, gb::min_plus<double>(), d, d);
    const bool fixed = isequal(next, d);
    if (!fixed) d = std::move(next);
    ++res.rounds;
    return !fixed && res.rounds < rounds;
  };
  if (iterate(res, "apsp", resume, slots, setup, round)) {
    res.d = std::move(d);
  }
  return res;
}

gb::Matrix<double> apsp(const Graph& g) {
  ApspResult res = apsp_run(g);
  rethrow_interruption(res.stop);
  return std::move(res.d);
}

}  // namespace lagraph
