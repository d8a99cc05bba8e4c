// Connected components: FastSV (Zhang, Azad, Hu; LACC lineage — §V cites
// Azad & Buluç's LACC). The parent vector f converges to the minimum vertex
// id of each component through three algebraic steps per round: stochastic
// hooking (min-neighbour-grandparent via mxv), aggressive hooking (scatter
// with a min duplicate-combiner — GrB build with dup), and pointer jumping
// (gather f = f[f]).
#include <numeric>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

CcResult connected_components_run(const Graph& g, const Checkpoint* resume) {
  check_graph(g, "connected_components");
  const Index n = g.adj().nrows();

  auto gather = [n](const gb::Vector<std::uint64_t>& v,
                    const gb::Vector<std::uint64_t>& pos) {
    // out(i) = v(pos(i)) — GrB extract with an index list.
    auto list = to_dense_std(pos, std::uint64_t{0});
    gb::Vector<std::uint64_t> out(n);
    gb::extract(out, gb::no_mask, gb::no_accum, v, gb::IndexSel(list));
    return out;
  };

  auto parents_equal = [n](const gb::Vector<std::uint64_t>& x,
                           const gb::Vector<std::uint64_t>& y) {
    // Parent vectors are full-pattern (n entries) throughout FastSV, so
    // equality is one fused any-mismatch pass (lor over x != y) that
    // short-circuits on the first differing slot. Fall back to the general
    // comparison if a pattern ever isn't full.
    if (x.nvals() != n || y.nvals() != n) return isequal(x, y);
    return !gb::fused_ewise_mult_reduce(gb::lor_monoid(), gb::Identity{},
                                        gb::Isne{}, x, y);
  };

  CcResult res;
  const gb::Matrix<double>* a = nullptr;  // the A|Aᵀ view
  gb::Vector<std::uint64_t> f;            // parent of each vertex
  auto slots = [&](auto& io) {
    io("f", f);
    io("rounds", res.rounds);
  };
  auto setup = [&](bool resumed) {
    a = &g.undirected_view();
    if (resumed) {
      gb::check_value(f.size() == n,
                      "connected_components: resume capsule does not "
                      "match this graph");
      return;
    }
    // f = 0..n-1: every vertex its own parent.
    f = gb::Vector<std::uint64_t>(n);
    std::vector<Index> idx(n);
    std::iota(idx.begin(), idx.end(), Index{0});
    std::vector<std::uint64_t> val(idx.begin(), idx.end());
    f.build(idx, val, gb::Second{});
  };
  auto round = [&] {
    // All work lands in temporaries; f is only replaced at the commit below, so
    // a mid-round trip leaves the round boundary intact.

    // Grandparents: gp = f[f].
    auto gp = gather(f, f);

    // Stochastic hooking: mngp(i) = min_{j in adj(i)} gp(j).
    gb::Vector<std::uint64_t> mngp(n);
    gb::mxv(mngp, gb::no_mask, gb::no_accum,
            gb::min_second<std::uint64_t>(), *a, gp);

    // Aggressive hooking: f[f[i]] <- min(f[f[i]], mngp(i)). The scatter with
    // duplicate indices is a GrB build with dup = MIN.
    gb::Vector<std::uint64_t> hook(n);
    {
      std::vector<Index> mi;
      std::vector<std::uint64_t> mv;
      mngp.extract_tuples(mi, mv);
      // targets f(i) for the i that have a mngp entry
      std::vector<Index> tgt;
      auto fdense = to_dense_std(f, std::uint64_t{0});
      tgt.reserve(mi.size());
      for (Index i : mi) tgt.push_back(fdense[i]);
      hook.build(tgt, mv, gb::Min{});
    }
    gb::Vector<std::uint64_t> fnext(n);
    gb::ewise_add(fnext, gb::no_mask, gb::no_accum, gb::Min{}, f, hook);
    // ... and hook to the minimum of parent / grandparent / mngp.
    gb::ewise_add(fnext, gb::no_mask, gb::no_accum, gb::Min{}, fnext, gp);
    gb::ewise_add(fnext, gb::no_mask, gb::no_accum, gb::Min{}, fnext, mngp);

    // Pointer jumping until stable: f = f[f].
    for (;;) {
      auto jumped = gather(fnext, fnext);
      if (parents_equal(jumped, fnext)) break;
      fnext = std::move(jumped);
    }

    const bool stable = parents_equal(fnext, f);
    if (!stable) f = std::move(fnext);  // commit
    ++res.rounds;
    return !stable;
  };
  if (iterate(res, "connected_components", resume, slots, setup, round)) {
    res.labels = std::move(f);
  }
  return res;
}

gb::Vector<std::uint64_t> connected_components(const Graph& g) {
  CcResult res = connected_components_run(g);
  rethrow_interruption(res.stop);
  return std::move(res.labels);
}

}  // namespace lagraph
