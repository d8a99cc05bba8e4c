// Batched Brandes betweenness centrality (§V cites the Combinatorial BLAS
// formulation). A batch of sources advances level-synchronously as rows of a
// frontier matrix (forward sweep accumulating shortest-path counts), then
// dependencies flow backwards through the stored per-level patterns.
//
// Resumable in three phases: 0 = forward sweep in progress (capsule carries
// paths + frontier + the level patterns so far), 1 = forward sweep complete
// (the dense dependency matrix is deterministic and is rebuilt, not stored),
// 2 = backward sweep in progress (capsule carries bcu + the level index).
#include <numeric>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

BcResult betweenness_run(const Graph& g, const std::vector<Index>& sources,
                         const Checkpoint* resume) {
  check_graph(g, "betweenness");
  const auto& a = g.adj();
  const Index n = a.nrows();
  const Index ns = sources.size();
  for (Index k = 0; k < ns; ++k) {
    gb::check_index(sources[k] < n, "betweenness: source out of range");
  }

  BcResult res;
  gb::Matrix<double> a1;        // pattern-only adjacency (graph-derived)
  gb::Matrix<double> paths;     // paths(k, v) = #shortest s_k->v paths so far
  gb::Matrix<double> frontier;  // newest level's counts (phase 0 only)
  gb::Matrix<double> bcu;       // dependency accumulator (phase 2 only)
  std::vector<gb::Matrix<bool>> levels;  // per-level frontier patterns
  std::uint64_t phase = 0;
  std::size_t d = 0;  // backward level index (phase 2 only)

  // Forward sweep: store each level's frontier pattern.
  auto forward = [&] {
    // The whole level builds into temporaries; paths / frontier / levels
    // stay intact until the commit, so a mid-round trip leaves the
    // level-boundary state fully consistent.
    gb::Matrix<bool> pat(ns, n);
    gb::apply(pat, gb::no_mask, gb::no_accum,
              gb::BindSecond<gb::Second, bool>{{}, true}, frontier);

    // next<!paths, replace, s> = frontier +.x A1
    gb::Matrix<double> next(ns, n);
    gb::mxm(next, paths, gb::no_accum, gb::plus_times<double>(), frontier, a1,
            gb::desc_rsc);
    const bool exhausted = next.nvals() == 0;
    gb::Matrix<double> np(ns, n);
    if (!exhausted) {
      // paths += next (patterns disjoint thanks to the mask).
      gb::ewise_add(np, gb::no_mask, gb::no_accum, gb::Plus{}, paths, next);
    }

    // Commit: plain moves and a push_back, no kernel poll points.
    levels.push_back(std::move(pat));
    res.levels = levels.size();
    if (exhausted) {
      phase = 1;
      return;
    }
    paths = std::move(np);
    frontier = std::move(next);
  };

  // Backward sweep setup: bcu(k, v) starts at 1 everywhere (dense), so it is
  // a pure function of (ns, n) and need not live in the capsule.
  auto seed_dependencies = [&] {
    bcu = gb::Matrix<double>(ns, n);
    std::vector<Index> r, c;
    r.reserve(ns * n);
    c.reserve(ns * n);
    for (Index k = 0; k < ns; ++k) {
      for (Index j = 0; j < n; ++j) {
        r.push_back(k);
        c.push_back(j);
      }
    }
    bcu.build(r, c, std::vector<double>(r.size(), 1.0), gb::Plus{});
    phase = 2;
    d = levels.empty() ? 0 : levels.size() - 1;
  };

  // Dependencies flow backwards one stored level per round.
  auto backward = [&] {
    // w<S[d], replace, s> = bcu ./ paths   (the (1+delta)/sigma factor;
    // bcu already contains the +1).
    gb::Matrix<double> w(ns, n);
    gb::ewise_mult(w, levels[d], gb::no_accum, gb::Div{}, bcu, paths,
                   gb::desc_rs);
    // w<S[d-1], replace, s> = w +.x A1'   (pull the factor up one level).
    gb::Matrix<double> t(ns, n);
    gb::Descriptor dt = gb::desc_rs;
    dt.transpose_b = true;
    gb::mxm(t, levels[d - 1], gb::no_accum, gb::plus_times<double>(), w, a1,
            dt);
    // bcu<S[d-1]> += t .* paths, committed by a single move so a mid-round
    // trip leaves bcu at the previous level's state.
    gb::Matrix<double> upd(ns, n);
    gb::ewise_mult(upd, levels[d - 1], gb::no_accum, gb::Times{}, t, paths,
                   gb::desc_s);
    gb::Matrix<double> nb(ns, n);
    gb::ewise_add(nb, gb::no_mask, gb::no_accum, gb::Plus{}, bcu, upd);
    bcu = std::move(nb);
    --d;
  };

  // Final reduction + per-source baseline strip. Reads bcu, writes only the
  // result vector, so a trip here re-runs cleanly from a phase-2/d=0 capsule.
  auto finish = [&] {
    // centrality(v) = sum_k bcu(k, v) - ns  (strip the +1 baseline).
    gb::Vector<double> bc(n);
    gb::reduce(bc, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(), bcu,
               gb::desc_t0);
    gb::apply(bc, gb::no_mask, gb::no_accum,
              gb::BindSecond<gb::Minus, double>{{}, static_cast<double>(ns)},
              bc);

    // Brandes excludes the source's dependency on itself (delta(s) is not
    // part of bc(s)); strip the self-dependency each batch row accumulated
    // at its own source.
    for (Index k = 0; k < ns; ++k) {
      double self = bcu.extract_element(k, sources[k]).value_or(1.0) - 1.0;
      if (self != 0.0) {
        auto cur = bc.extract_element(sources[k]).value_or(0.0);
        bc.set_element(sources[k], cur - self);
      }
    }
    res.centrality = std::move(bc);
  };

  auto slots = [&](auto& io) {
    io("phase", phase);
    io("d", d);
    io("paths", paths);
    io("level", levels);
    if (phase == 0) io("frontier", frontier);
    if (phase == 2) io("bcu", bcu);
  };
  auto setup = [&](bool resumed) {
    a1 = gb::Matrix<double>(n, n);
    gb::apply(a1, gb::no_mask, gb::no_accum, gb::One{}, a);
    if (resumed) {
      gb::check_value(paths.nrows() == ns && paths.ncols() == n,
                      "betweenness: resume capsule does not match this run");
    } else {
      paths = gb::Matrix<double>(ns, n);
      std::vector<Index> r(ns);
      std::iota(r.begin(), r.end(), Index{0});
      paths.build(r, sources, std::vector<double>(ns, 1.0), gb::Plus{});
      frontier = paths.dup();
    }
    res.levels = levels.size();
  };
  auto round = [&] {
    // One resumable step per round: a forward level (phase 0), the dependency
    // seed (phase 1), a backward level (phase 2, d >= 1), then the final
    // reduction.
    if (phase == 0) {
      forward();
    } else if (phase == 1) {
      seed_dependencies();
    } else if (d >= 1) {
      backward();
    } else {
      finish();
      return false;
    }
    return true;
  };
  iterate(res, "betweenness", resume, slots, setup, round);
  return res;
}

gb::Vector<double> betweenness(const Graph& g,
                               const std::vector<Index>& sources) {
  BcResult res = betweenness_run(g, sources);
  rethrow_interruption(res.stop);
  return std::move(res.centrality);
}

}  // namespace lagraph
