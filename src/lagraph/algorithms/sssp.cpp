// Single-source shortest paths: the classic min-plus Bellman-Ford iteration,
// and a delta-stepping variant after Sridhar et al. (IPDPSW 2019), which the
// paper cites in §V. Both are pure GraphBLAS formulations: relaxation is a
// min_plus vxm, bucket bookkeeping is masks and selects.
#include <cmath>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

SsspResult sssp_bellman_ford(const Graph& g, Index source,
                             const Checkpoint* resume) {
  check_graph(g, "sssp_bellman_ford");
  const auto& a = g.adj();
  const Index n = a.nrows();
  gb::check_index(source < n, "sssp: source out of range");

  SsspResult res;
  bool changed = true;
  auto slots = [&](auto& io) {
    io("dist", res.dist);
    io("iterations", res.iterations);
    io("changed", changed);
  };
  auto setup = [&](bool resumed) {
    if (resumed) {
      gb::check_value(res.dist.size() == n,
                      "sssp: resume capsule does not match this graph");
    } else {
      res.dist = gb::Vector<double>(n);
      res.dist.set_element(source, 0.0);
    }
  };
  auto round = [&] {
    gb::Vector<double> next = res.dist;
    // next = min(next, dist min.+ A): relax every edge once, with the
    // did-anything-improve test fused into the write-back (no post-hoc isequal
    // sweep). The commit (changed + dist) happens after the last poll point, so
    // a mid-round trip leaves the round boundary intact.
    changed = gb::vxm_accum_changed(next, gb::Min{}, gb::min_plus<double>(),
                                    res.dist, a);
    res.dist = std::move(next);
    ++res.iterations;
    return static_cast<Index>(res.iterations) < n && changed;
  };
  const bool ran = iterate(res, "sssp_bellman_ford", resume, slots, setup,
                           round);
  if (ran && !is_interruption(res.stop) && changed) {
    // n relaxation rounds still improving => negative cycle.
    gb::Vector<double> next = res.dist;
    if (gb::vxm_accum_changed(next, gb::Min{}, gb::min_plus<double>(),
                              res.dist, a)) {
      throw gb::Error(gb::Info::invalid_value,
                      "sssp_bellman_ford: negative cycle reachable");
    }
  }
  return res;
}

SsspMsResult sssp_bellman_ford_ms(const Graph& g,
                                  const std::vector<Index>& sources,
                                  const Checkpoint* resume) {
  check_graph(g, "sssp_bellman_ford_ms");
  const auto& a = g.adj();
  const Index n = a.nrows();
  const Index k = static_cast<Index>(sources.size());
  gb::check_value(k > 0, "sssp_bellman_ford_ms: empty source batch");
  for (Index s : sources) {
    gb::check_index(s < n, "sssp_bellman_ford_ms: source out of range");
  }

  // One min-plus mxm relaxes every row per round; the Min accumulator merges
  // the relaxed values into the carried distances, exactly as the vector
  // driver's vxm-accum does per source. Rows are independent (row r of
  // D min.+ A reads only row r of D), so a row that has settled is left
  // bit-for-bit untouched by the extra rounds its batch siblings need.
  SsspMsResult res;
  bool changed = true;
  auto slots = [&](auto& io) {
    io("sources", sources);
    io("dist", res.dist);
    io("iterations", res.iterations);
    io("changed", changed);
  };
  auto setup = [&](bool resumed) {
    if (resumed) {
      gb::check_value(res.dist.nrows() == k && res.dist.ncols() == n,
                      "sssp_ms: resume capsule does not match this graph");
      return;
    }
    res.dist = gb::Matrix<double>(k, n);
    std::vector<Index> rows(sources.size());
    std::vector<double> zeros(sources.size(), 0.0);
    for (std::size_t r = 0; r < sources.size(); ++r) {
      rows[r] = static_cast<Index>(r);
    }
    res.dist.build(rows, sources, zeros, gb::Min{});
  };
  auto round = [&] {
    gb::Matrix<double> next = res.dist;
    gb::mxm(next, gb::no_mask, gb::Min{}, gb::min_plus<double>(), res.dist, a);
    changed = !isequal(next, res.dist);
    res.dist = std::move(next);
    ++res.iterations;
    return static_cast<Index>(res.iterations) < n && changed;
  };
  const bool ran = iterate(res, "sssp_bellman_ford_ms", resume, slots, setup,
                           round);
  if (ran && !is_interruption(res.stop) && changed) {
    // n rounds and still improving => a negative cycle is reachable from at
    // least one batched source.
    gb::Matrix<double> next = res.dist;
    gb::mxm(next, gb::no_mask, gb::Min{}, gb::min_plus<double>(), res.dist, a);
    if (!isequal(next, res.dist)) {
      throw gb::Error(gb::Info::invalid_value,
                      "sssp_bellman_ford_ms: negative cycle reachable");
    }
  }
  return res;
}

SsspResult sssp_delta_stepping(const Graph& g, Index source, double delta,
                               const Checkpoint* resume) {
  check_graph(g, "sssp_delta_stepping");
  const auto& a = g.adj();
  const Index n = a.nrows();
  gb::check_index(source < n, "sssp: source out of range");
  gb::check_value(delta > 0.0, "sssp: delta must be positive");

  SsspResult res;
  gb::Matrix<double> light, heavy;
  gb::Vector<double>& dist = res.dist;
  gb::Vector<bool> settled;  // present once v's bucket is fully processed
  auto slots = [&](auto& io) {
    io("dist", dist);
    io("settled", settled);
    io("iterations", res.iterations);
  };
  auto setup = [&](bool resumed) {
    // Split edges into light (w <= delta) and heavy (w > delta).
    light = gb::Matrix<double>(n, n);
    heavy = gb::Matrix<double>(n, n);
    gb::select(light, gb::no_mask, gb::no_accum, gb::SelValueLe{}, a, delta);
    gb::select(heavy, gb::no_mask, gb::no_accum, gb::SelValueGt{}, a, delta);
    if (resumed) {
      gb::check_value(dist.size() == n,
                      "sssp: resume capsule does not match this graph");
    } else {
      dist = gb::Vector<double>(n);
      dist.set_element(source, 0.0);
      settled = gb::Vector<bool>(n);
    }
  };
  auto round = [&] {
    // Minimum tentative distance among unsettled vertices, in one fused pass
    // over dist (complement(settled), structural); +inf if none.
    const double frontier_lo = gb::fused_apply_reduce(
        gb::min_monoid<double>(), gb::Identity{}, dist, settled,
        gb::desc_rsc);
    if (!std::isfinite(frontier_lo)) return false;
    const Index b = static_cast<Index>(frontier_lo / delta);
    const double lo = static_cast<double>(b) * delta;
    const double hi = lo + delta;

    // Light-edge relaxation loop within the bucket. Mid-bucket state is a valid
    // resume point: in-place min-plus relaxation is monotone, so re-entering
    // the bucket loop from (dist, settled) reaches the same fixpoint as the
    // uninterrupted run.
    for (;;) {
      // active = unsettled vertices with dist in [lo, hi)
      gb::Vector<double> active(n);
      gb::apply(active, settled, gb::no_accum, gb::Identity{}, dist,
                gb::desc_rsc);
      gb::select(active, gb::no_mask, gb::no_accum, gb::SelValueGe{},
                 active, lo);
      gb::select(active, gb::no_mask, gb::no_accum, gb::SelValueLt{},
                 active, hi);
      if (active.nvals() == 0) break;

      gb::Vector<double> before = dist;
      gb::vxm(dist, gb::no_mask, gb::Min{}, gb::min_plus<double>(), active,
              light);
      if (isequal(before, dist)) break;
    }

    // The bucket is done; relax heavy edges out of it once, and only then mark
    // it settled. Heavy relaxation targets land at dist >= hi, so redoing it
    // after a mid-round trip is idempotent — whereas settling first could lose
    // the heavy pass entirely on resume.
    gb::Vector<double> bucket(n);
    gb::apply(bucket, settled, gb::no_accum, gb::Identity{}, dist,
              gb::desc_rsc);
    gb::select(bucket, gb::no_mask, gb::no_accum, gb::SelValueGe{}, bucket, lo);
    gb::select(bucket, gb::no_mask, gb::no_accum, gb::SelValueLt{}, bucket, hi);
    if (bucket.nvals() > 0) {
      gb::vxm(dist, gb::no_mask, gb::Min{}, gb::min_plus<double>(), bucket,
              heavy);
    }
    gb::assign_scalar(settled, bucket, gb::no_accum, true,
                      gb::IndexSel::all(n), gb::desc_s);
    ++res.iterations;
    return true;
  };
  iterate(res, "sssp_delta_stepping", resume, slots, setup, round);
  return res;
}

}  // namespace lagraph
