// PageRank with dangling-vertex handling, in the style of LAGraph's
// PageRank (§V cites Satish et al.'s GraphMat formulation). One vxm per
// iteration; everything else is elementwise.
#include <algorithm>
#include <cmath>
#include <span>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

PageRankResult pagerank(const Graph& g, double damping, double tol,
                        int max_iters, const Checkpoint* resume) {
  check_graph(g, "pagerank");
  gb::check_value(damping > 0.0 && damping < 1.0,
                  "pagerank: damping must be in (0, 1)");
  gb::check_value(tol > 0.0, "pagerank: tol must be positive");
  gb::check_value(max_iters > 0, "pagerank: max_iters must be positive");

  const auto& a = g.adj();
  const Index n = a.nrows();
  const double teleport = (1.0 - damping) / static_cast<double>(n);

  // Loop state at an iteration boundary: the current rank iterate plus the
  // counters a resumed run needs to continue the exact iteration sequence.
  PageRankResult res;
  const gb::Vector<double>* outdeg = nullptr;
  auto slots = [&](auto& io) {
    io("rank", res.rank);
    io("iterations", res.iterations);
    io("residual", res.residual);
  };
  auto setup = [&](bool resumed) {
    // Out-degrees as doubles, cached on the graph; vertices with no out-edges
    // are absent.
    outdeg = &g.out_degree_fp64();
    if (resumed) {
      gb::check_value(res.rank.size() == n,
                      "pagerank: resume capsule does not match this graph");
    } else {
      res.rank = gb::Vector<double>::full(n, 1.0 / static_cast<double>(n));
    }
    return res.iterations < max_iters;
  };
  auto round = [&] {
    // Dangling mass: rank held by vertices with no out-edges, summed in one
    // pass (apply→reduce fused; no dangling vector committed).
    double dmass = gb::fused_apply_reduce(gb::plus_monoid<double>(),
                                          gb::Identity{}, res.rank,
                                          *outdeg, gb::desc_rsc);

    // w = damping * rank ./ outdeg (contribution per out-edge), the divide and
    // the damping scale in one pass.
    gb::Vector<double> w(n);
    gb::fused_ewise_mult_apply(
        w, gb::Div{}, gb::BindSecond<gb::Times, double>{{}, damping},
        res.rank, *outdeg);

    // next = teleport + damping * dangling/n everywhere, then += w' * A, with
    // the L1 change against the previous iterate folded out of the product's
    // epilogue. plus_FIRST, not plus_times: PageRank splits rank by out-degree,
    // so each out-edge carries w(i) regardless of the edge's stored weight
    // (weighted adjacencies would otherwise diverge).
    gb::Vector<double> next(n);
    const double delta = gb::vxm_fill_accum_residual(
        next, gb::Plus{}, gb::plus_first<double>(), w, a,
        teleport + damping * dmass / static_cast<double>(n),
        gb::plus_monoid<double>(), gb::Abs{}, gb::Minus{}, res.rank);

    res.rank = std::move(next);
    res.residual = delta;
    ++res.iterations;
    if (!std::isfinite(delta)) {
      // A NaN/Inf residual means the iterate escaped — report divergence
      // honestly instead of spinning until max_iters with garbage ranks.
      res.stop = StopReason::diverged;
      return false;
    }
    if (delta < tol) {
      res.converged = true;
      res.stop = StopReason::converged;
      return false;
    }
    return res.iterations < max_iters;
  };
  iterate(res, "pagerank", resume, slots, setup, round);
  return res;
}

PprMsResult pagerank_personalized_ms(const Graph& g,
                                     const std::vector<Index>& sources,
                                     double damping, double tol, int max_iters,
                                     const Checkpoint* resume) {
  check_graph(g, "pagerank_personalized_ms");
  gb::check_value(damping > 0.0 && damping < 1.0,
                  "pagerank_personalized_ms: damping must be in (0, 1)");
  gb::check_value(tol > 0.0, "pagerank_personalized_ms: tol must be positive");
  gb::check_value(max_iters > 0,
                  "pagerank_personalized_ms: max_iters must be positive");

  const auto& a = g.adj();
  const Index n = a.nrows();
  const Index k = static_cast<Index>(sources.size());
  gb::check_value(k > 0, "pagerank_personalized_ms: empty source batch");
  for (Index s : sources) {
    gb::check_index(s < n, "pagerank_personalized_ms: source out of range");
  }

  PprMsResult res;
  res.iterations.assign(static_cast<std::size_t>(k), 0);
  res.row_stop.assign(static_cast<std::size_t>(k),
                      static_cast<std::uint8_t>(StopReason::max_iters));

  // Loop state. Every per-iteration kernel below is row-local (reads only
  // row r of the iterate to produce row r of the next), and every within-row
  // combination order is fixed (saxpy in ascending stream order, dots and
  // row-reduces left-to-right), so row r's trajectory is bit-identical for
  // any batch it rides in — including the k = 1 batch that defines the
  // single-seed semantics. Rows that meet tol are frozen immediately and
  // compacted out of the active iterate; without the freeze, batch siblings
  // still iterating would keep "improving" a converged row past the point
  // where its solo run returned, changing its bits.
  gb::Matrix<double> r_act;                // active iterate (|active| x n)
  std::vector<std::uint64_t> active;       // original row of each active row
  std::vector<Index> fr, fc;               // frozen tuples (original rows)
  std::vector<double> fv;
  gb::Matrix<double> frozen;               // the frozen rows, in a capsule
  gb::Vector<double> dang(n);              // 1.0 at vertices with no out-edges
  gb::Matrix<double> dinv;                 // diag(damping / outdeg)

  auto build_frozen = [&]() {
    gb::Matrix<double> m(k, n);
    if (!fr.empty()) m.build(fr, fc, fv, gb::Second{});
    return m;
  };

  const gb::Vector<double>* outdeg = nullptr;
  auto slots = [&](auto& io) {
    // Frozen rows live as tuples between rounds; the capsule holds them as one
    // k x n matrix.
    if (!io.loading) frozen = build_frozen();
    io("sources", sources);
    io("frozen", frozen);
    io("active_rank", r_act);
    io("active", active);
    io("iterations", res.iterations);
    io("row_stop", res.row_stop);
    io("rounds", res.rounds);
  };
  auto setup = [&](bool resumed) {
    outdeg = &g.out_degree_fp64();
    gb::assign_scalar(dang, *outdeg, gb::no_accum, 1.0,
                      gb::IndexSel::all(n), gb::desc_sc);
    {
      std::vector<Index> di;
      std::vector<double> dv;
      outdeg->extract_tuples(di, dv);
      for (double& v : dv) v = damping / v;
      dinv = gb::Matrix<double>(n, n);
      dinv.build(di, di, dv, gb::Second{});
    }
    if (resumed) {
      gb::check_value(frozen.nrows() == k && frozen.ncols() == n,
                      "pagerank_personalized_ms: capsule mismatch");
      frozen.extract_tuples(fr, fc, fv);
    } else {
      active.resize(static_cast<std::size_t>(k));
      std::vector<Index> rows(static_cast<std::size_t>(k));
      std::vector<double> ones(static_cast<std::size_t>(k), 1.0);
      for (Index r = 0; r < k; ++r) {
        active[static_cast<std::size_t>(r)] = static_cast<std::uint64_t>(r);
        rows[static_cast<std::size_t>(r)] = r;
      }
      // rank0 = e_seed per row: all mass starts on the teleport seed.
      r_act = gb::Matrix<double>(k, n);
      r_act.build(rows, sources, ones, gb::Second{});
    }
    return !active.empty() && res.rounds < max_iters;
  };
  auto round = [&] {
    const Index ka = static_cast<Index>(active.size());
    // Dangling mass per row, forced onto the pull (dot) path: each row's
    // products combine left-to-right in ascending vertex order, no matter how
    // many rows share the batch.
    gb::Vector<double> dm(ka);
    gb::Descriptor dpull;
    dpull.mxv = gb::MxvMethod::pull;
    gb::mxv(dm, gb::no_mask, gb::no_accum, gb::plus_times<double>(), r_act,
            dang, dpull);
    std::vector<double> dmh(static_cast<std::size_t>(ka), 0.0);
    {
      std::vector<Index> di;
      std::vector<double> dv;
      dm.extract_tuples(di, dv);
      for (std::size_t t = 0; t < di.size(); ++t)
        dmh[static_cast<std::size_t>(di[t])] = dv[t];
    }
    // w = damping * rank ./ outdeg, as rank x diag(damping/outdeg): every
    // product lands on a distinct output slot, so there is no combination order
    // at all.
    gb::Matrix<double> w(ka, n);
    gb::mxm(w, gb::no_mask, gb::no_accum, gb::plus_times<double>(), r_act,
            dinv);
    // p = w +.first A — the batched edge pass (plus_FIRST for the same reason
    // as the global driver: rank splits by out-degree, edge weights must not
    // scale it).
    gb::Matrix<double> p(ka, n);
    gb::mxm(p, gb::no_mask, gb::no_accum, gb::plus_first<double>(), w, a);
    // Teleport + dangling mass return to each row's own seed.
    gb::Matrix<double> next(ka, n);
    {
      std::vector<Index> sr(static_cast<std::size_t>(ka));
      std::vector<Index> sc(static_cast<std::size_t>(ka));
      std::vector<double> sv(static_cast<std::size_t>(ka));
      for (Index j = 0; j < ka; ++j) {
        const auto jj = static_cast<std::size_t>(j);
        sr[jj] = j;
        sc[jj] = sources[static_cast<std::size_t>(active[jj])];
        sv[jj] = (1.0 - damping) + damping * dmh[jj];
      }
      gb::Matrix<double> s(ka, n);
      s.build(sr, sc, sv, gb::Plus{});
      gb::ewise_add(next, gb::no_mask, gb::no_accum, gb::Plus{}, p, s);
    }
    // Per-row L1 residual: |next - rank| row-reduced left-to-right.
    gb::Matrix<double> diff(ka, n);
    gb::ewise_add(diff, gb::no_mask, gb::no_accum, gb::Minus{}, next, r_act);
    gb::apply(diff, gb::no_mask, gb::no_accum, gb::Abs{}, diff);
    gb::Vector<double> resid(ka);
    gb::reduce(resid, gb::no_mask, gb::no_accum, gb::plus_monoid<double>(),
               diff);
    std::vector<double> residh(static_cast<std::size_t>(ka), 0.0);
    {
      std::vector<Index> ri;
      std::vector<double> rv;
      resid.extract_tuples(ri, rv);
      for (std::size_t t = 0; t < ri.size(); ++t)
        residh[static_cast<std::size_t>(ri[t])] = rv[t];
    }
    std::vector<std::size_t> frz_local, srv_local;
    for (std::size_t j = 0; j < static_cast<std::size_t>(ka); ++j) {
      const double rj = residh[j];
      if (!std::isfinite(rj) || rj < tol) {
        frz_local.push_back(j);
      } else {
        srv_local.push_back(j);
      }
    }
    gb::Matrix<double> r_next;
    if (!frz_local.empty() && !srv_local.empty()) {
      // Compact the survivors so frozen rows stop being computed (and stop
      // changing). The extract is the last kernel: a trip inside it leaves the
      // pre-iteration state committed.
      std::vector<Index> sel(srv_local.begin(), srv_local.end());
      r_next = gb::Matrix<double>(static_cast<Index>(sel.size()), n);
      gb::extract(r_next, gb::no_mask, gb::no_accum, next,
                  gb::IndexSel(std::span<const Index>(sel)),
                  gb::IndexSel::all(n));
    }

    // Commit (host-side only — nothing below can trip).
    const int done_iters = res.rounds + 1;
    if (!frz_local.empty()) {
      std::vector<Index> mr, mc;
      std::vector<double> mv;
      next.extract_tuples(mr, mc, mv);
      std::vector<std::uint8_t> freeze_row(active.size(), 0);
      for (std::size_t j : frz_local) freeze_row[j] = 1;
      for (std::size_t t = 0; t < mr.size(); ++t) {
        const auto j = static_cast<std::size_t>(mr[t]);
        if (!freeze_row[j]) continue;
        fr.push_back(static_cast<Index>(active[j]));
        fc.push_back(mc[t]);
        fv.push_back(mv[t]);
      }
      for (std::size_t j : frz_local) {
        const auto row = static_cast<std::size_t>(active[j]);
        res.iterations[row] = done_iters;
        res.row_stop[row] = static_cast<std::uint8_t>(
            std::isfinite(residh[j]) ? StopReason::converged
                                     : StopReason::diverged);
      }
    }
    std::vector<std::uint64_t> still;
    still.reserve(srv_local.size());
    for (std::size_t j : srv_local) {
      const auto row = static_cast<std::size_t>(active[j]);
      res.iterations[row] = done_iters;
      still.push_back(active[j]);
    }
    if (srv_local.empty()) {
      active.clear();
    } else if (frz_local.empty()) {
      r_act = std::move(next);
      active = std::move(still);
    } else {
      r_act = std::move(r_next);
      active = std::move(still);
    }
    ++res.rounds;
    return !active.empty() && res.rounds < max_iters;
  };
  const bool ran = iterate(res, "pagerank_personalized_ms", resume, slots,
                           setup, round);
  if (!ran || is_interruption(res.stop)) return res;

  // The run is over: assembling the result from the state it holds runs
  // unbound, so a cancel or deadline arriving now cannot escape as an
  // exception. Rows still active hit the iteration cap: freeze them as
  // they stand.
  gb::platform::GovernorUnbind unbound;
  if (!active.empty()) {
    std::vector<Index> mr, mc;
    std::vector<double> mv;
    r_act.extract_tuples(mr, mc, mv);
    for (std::size_t t = 0; t < mr.size(); ++t) {
      fr.push_back(static_cast<Index>(active[static_cast<std::size_t>(mr[t])]));
      fc.push_back(mc[t]);
      fv.push_back(mv[t]);
    }
    for (std::uint64_t row : active) {
      res.row_stop[static_cast<std::size_t>(row)] =
          static_cast<std::uint8_t>(StopReason::max_iters);
    }
  }

  res.rank = build_frozen();
  const auto has = [&](StopReason r) {
    return std::find(res.row_stop.begin(), res.row_stop.end(),
                     static_cast<std::uint8_t>(r)) != res.row_stop.end();
  };
  res.stop = has(StopReason::diverged)     ? StopReason::diverged
             : !has(StopReason::max_iters) ? StopReason::converged
                                           : StopReason::max_iters;
  return res;
}

PprResult pagerank_personalized(const Graph& g, Index source, double damping,
                                double tol, int max_iters,
                                const Checkpoint* resume) {
  PprMsResult ms = pagerank_personalized_ms(g, std::vector<Index>{source},
                                            damping, tol, max_iters, resume);
  PprResult res;
  res.stop = ms.stop;
  res.checkpoint = std::move(ms.checkpoint);
  res.iterations = ms.iterations.empty() ? 0
                                         : static_cast<int>(ms.iterations[0]);
  res.converged =
      !ms.row_stop.empty() &&
      ms.row_stop[0] == static_cast<std::uint8_t>(StopReason::converged);
  res.rank = gb::Vector<double>(g.adj().nrows());
  if (ms.rank.nrows() > 0) {
    std::vector<Index> mr, mc;
    std::vector<double> mv;
    ms.rank.extract_tuples(mr, mc, mv);
    res.rank.build(mc, mv, gb::Second{});
  }
  return res;
}

}  // namespace lagraph
