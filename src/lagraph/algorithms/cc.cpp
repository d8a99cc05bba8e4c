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

  CcResult res;
  Scope scope;
  if (resume != nullptr && !resume->empty()) {
    check_resume(*resume, "connected_components");
    res.checkpoint = *resume;
  }

  // f = 0..n-1 (every vertex its own parent), or the capsule's iterate.
  // The A|Aᵀ view is built inside the governed setup step, so a trip while
  // building it returns clean telemetry like any other step.
  const gb::Matrix<double>* view = nullptr;
  gb::Vector<std::uint64_t> f;
  StopReason setup = scope.step([&] {
    view = &g.undirected_view();
    if (resume != nullptr && !resume->empty()) {
      f = resume->get_vector<std::uint64_t>("f");
      gb::check_value(f.size() == n,
                      "connected_components: resume capsule does not match "
                      "this graph");
      res.rounds = static_cast<int>(resume->get_i64("rounds"));
    } else {
      f = gb::Vector<std::uint64_t>(n);
      std::vector<Index> idx(n);
      std::iota(idx.begin(), idx.end(), Index{0});
      std::vector<std::uint64_t> val(idx.begin(), idx.end());
      f.build(idx, val, gb::Second{});
    }
  });
  if (setup != StopReason::none) {
    res.stop = setup;
    return res;
  }
  const auto& a = *view;

  auto capture = [&] {
    capture_checkpoint(res.checkpoint, [&](Checkpoint& cp) {
      cp.set_algorithm("connected_components");
      cp.put_vector("f", f);
      cp.put_i64("rounds", res.rounds);
    });
  };

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

  for (;;) {
    if (StopReason why = scope.interrupted(); why != StopReason::none) {
      res.stop = why;
      capture();
      res.labels = std::move(f);
      return res;
    }
    bool stable = false;
    StopReason why = scope.step([&] {
      // All work lands in temporaries; f is only replaced at the commit
      // below, so a mid-step trip leaves the round boundary intact.

      // Grandparents: gp = f[f].
      auto gp = gather(f, f);

      // Stochastic hooking: mngp(i) = min_{j in adj(i)} gp(j).
      gb::Vector<std::uint64_t> mngp(n);
      gb::mxv(mngp, gb::no_mask, gb::no_accum,
              gb::min_second<std::uint64_t>(), a, gp);

      // Aggressive hooking: f[f[i]] <- min(f[f[i]], mngp(i)). The scatter
      // with duplicate indices is a GrB build with dup = MIN.
      gb::Vector<std::uint64_t> hook(n);
      {
        std::vector<Index> fi;
        std::vector<std::uint64_t> fv;
        f.extract_tuples(fi, fv);
        std::vector<Index> mi;
        std::vector<std::uint64_t> mv;
        mngp.extract_tuples(mi, mv);
        // targets f(i) for the i that have a mngp entry
        std::vector<Index> tgt;
        std::vector<std::uint64_t> val;
        auto fdense = to_dense_std(f, std::uint64_t{0});
        tgt.reserve(mi.size());
        val.reserve(mi.size());
        for (std::size_t k2 = 0; k2 < mi.size(); ++k2) {
          tgt.push_back(fdense[mi[k2]]);
          val.push_back(mv[k2]);
        }
        hook.build(tgt, val, gb::Min{});
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

      stable = parents_equal(fnext, f);
      if (!stable) f = std::move(fnext);  // commit
    });
    if (why != StopReason::none) {
      res.stop = why;
      capture();
      res.labels = std::move(f);
      return res;
    }
    ++res.rounds;
    if (stable) break;
  }
  res.stop = StopReason::converged;
  res.labels = std::move(f);
  return res;
}

gb::Vector<std::uint64_t> connected_components(const Graph& g) {
  CcResult res = connected_components_run(g);
  rethrow_interruption(res.stop);
  return std::move(res.labels);
}

}  // namespace lagraph
