// Breadth-first search — the running example of the paper (Fig. 2), extended
// with parent tracking and the GraphBLAST direction-optimisation rule
// (§II-E): switch push->pull when the frontier density crosses the threshold
// going up, pull->push when it crosses going down, otherwise keep the
// previous level's direction (hysteresis).
//
// The frontier vector carries parent ids, so one min_first vxm per level
// yields both reachability and the BFS tree.
#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

namespace {

gb::MxvMethod choose_direction(BfsVariant variant, double density,
                               double prev_density, double threshold,
                               gb::MxvMethod prev) {
  switch (variant) {
    case BfsVariant::push:
      return gb::MxvMethod::push;
    case BfsVariant::pull:
      return gb::MxvMethod::pull;
    case BfsVariant::direction_optimizing:
      // The §II-E rule: act only on threshold *crossings*.
      if (density > threshold && prev_density <= threshold) {
        return gb::MxvMethod::pull;
      }
      if (density < threshold && prev_density >= threshold) {
        return gb::MxvMethod::push;
      }
      return prev;
  }
  return gb::MxvMethod::push;
}

}  // namespace

BfsMsResult bfs_level_ms(const Graph& g, const std::vector<Index>& sources,
                         const Checkpoint* resume) {
  check_graph(g, "bfs_level_ms");
  const auto& a = g.adj();
  const Index n = a.nrows();
  const Index k = static_cast<Index>(sources.size());
  gb::check_value(k > 0, "bfs_level_ms: empty source batch");
  for (Index s : sources) {
    gb::check_index(s < n, "bfs_level_ms: source out of range");
  }

  // Frontier rows carry the batch: frontier(r, v) present when v joined row
  // r's frontier this level (values are 1.0 pattern carriers; the expansion
  // semiring only needs the structure). The capsule carries the source list
  // too: it only resumes the batch it was captured from.
  BfsMsResult res;
  gb::Matrix<double> frontier;
  auto slots = [&](auto& io) {
    io("sources", sources);
    io("level", res.level);
    io("frontier", frontier);
    io("depth", res.depth);
  };
  auto setup = [&](bool resumed) {
    if (resumed) {
      gb::check_value(res.level.nrows() == k && res.level.ncols() == n,
                      "bfs_level_ms: resume capsule does not match this graph");
      return;
    }
    res.level = gb::Matrix<std::int64_t>(k, n);
    frontier = gb::Matrix<double>(k, n);
    std::vector<Index> rows(sources.size());
    std::vector<double> ones(sources.size(), 1.0);
    for (std::size_t r = 0; r < sources.size(); ++r) {
      rows[r] = static_cast<Index>(r);
    }
    frontier.build(rows, sources, ones, gb::Plus{});
  };
  auto round = [&] {
    // level<frontier, s> = depth — idempotent, so re-running the round after a
    // mid-round trip is safe (same discipline as the vector driver: state
    // commits at level boundaries only).
    gb::assign_scalar(res.level, frontier, gb::no_accum, res.depth,
                      gb::IndexSel::all(k), gb::IndexSel::all(n),
                      gb::desc_s);
    // next<!level, replace, s> = frontier +.* A — one SpGEMM advances every
    // row; the complemented structural mask prunes visited vertices per row,
    // which is what keeps each row identical to its solo run.
    gb::Matrix<double> next(k, n);
    gb::mxm(next, res.level, gb::no_accum, gb::plus_times<double>(),
            frontier, a, gb::desc_rsc);
    frontier = std::move(next);
    ++res.depth;
    return frontier.nvals() > 0;
  };
  iterate(res, "bfs_level_ms", resume, slots, setup, round);
  return res;
}

BfsResult bfs(const Graph& g, Index source, BfsVariant variant,
              const Checkpoint* resume) {
  check_graph(g, "bfs");
  const auto& a = g.adj();
  const Index n = a.nrows();
  gb::check_index(source < n, "bfs: source out of range");

  // Loop state at a level boundary: level/parent so far, the next frontier
  // (values = parent ids), and the direction-optimisation memory (previous
  // density + direction) so the resumed push/pull choices match exactly.
  BfsResult res;
  gb::Vector<std::uint64_t> frontier;
  gb::MxvMethod dir = gb::MxvMethod::push;
  double prev_density = 0.0;

  // Masked-assign descriptors (Fig. 2 line 5 uses the frontier as a
  // structural mask; line 6 uses the complemented visited mask with replace).
  gb::Descriptor record = gb::desc_s;
  gb::Descriptor expand = gb::desc_rsc;
  const double threshold = gb::desc_default.push_pull_threshold;

  auto slots = [&](auto& io) {
    io("level", res.level);
    io("parent", res.parent);
    io("frontier", frontier);
    io("depth", res.depth);
    io("dir", dir);
    io("prev_density", prev_density);
    io("directions", res.directions);
  };
  auto setup = [&](bool resumed) {
    if (variant != BfsVariant::push) {
      // Pull traversals need the opposite orientation resident; materialise it
      // up front (the AT cached property).
      g.ensure_transpose();
    }
    if (resumed) {
      gb::check_value(frontier.size() == n,
                      "bfs: resume capsule does not match this graph");
    } else {
      res.level = gb::Vector<std::int64_t>(n);
      res.parent = gb::Vector<std::int64_t>(n);
      // frontier(v) = id of v's BFS parent. Seed: the source is its own parent.
      frontier = gb::Vector<std::uint64_t>(n);
      frontier.set_element(source, source);
    }
    // Fig. 3's dense side: with level and parent held in bitmap form, each
    // level's masked records store only at the frontier's positions, and the
    // !level mask of the expansion is read in place — a level costs
    // O(frontier), not O(n).
    if (gb::dense_form_addressable(n, 1)) {
      res.level.to_dense();
      res.parent.to_dense();
    }
  };
  auto round = [&] {
    // level<frontier,s> = depth. Idempotent (same entries, same values), so
    // re-running this round after a mid-round trip is safe.
    gb::assign_scalar(res.level, frontier, gb::no_accum, res.depth,
                      gb::IndexSel::all(n), record);
    // parent<frontier,s> = frontier  (parent ids ride in the values)
    gb::apply(res.parent, frontier, gb::no_accum, gb::Identity{}, frontier,
              record);

    // Carrier ids for the expansion go into a fresh vector: the frontier (still
    // holding parent ids) stays intact until the commit below, so a trip
    // anywhere in this round leaves the loop state exactly at the previous
    // level boundary and the capsule is consistent.
    gb::Vector<std::uint64_t> carrier(n);
    gb::apply_indexop(carrier, gb::no_mask, gb::no_accum, gb::RowIndex{},
                      frontier, std::int64_t{0});

    double density = frontier.density();
    gb::MxvMethod step_dir =
        choose_direction(variant, density, prev_density, threshold, dir);
    expand.mxv = step_dir;

    // next<!level, replace, s> = carrier min.first A
    gb::Vector<std::uint64_t> next(n);
    gb::vxm(next, res.level, gb::no_accum, gb::min_first<std::uint64_t>(),
            carrier, a, expand);

    // Commit: nothing below reaches a governor poll point.
    frontier = std::move(next);
    dir = step_dir;
    prev_density = density;
    res.directions.push_back(dir);
    ++res.depth;
    return frontier.nvals() > 0;
  };
  iterate(res, "bfs", resume, slots, setup, round);
  return res;
}

}  // namespace lagraph
