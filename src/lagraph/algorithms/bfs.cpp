// Breadth-first search — the running example of the paper (Fig. 2), extended
// with parent tracking and the GraphBLAST direction-optimisation rule
// (§II-E): switch push->pull when the frontier density crosses the threshold
// going up, pull->push when it crosses going down, otherwise keep the
// previous level's direction (hysteresis).
//
// The frontier vector carries parent ids, so one min_first vxm per level
// yields both reachability and the BFS tree.
#include <algorithm>

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

/// Loop state at a level boundary: level/parent so far, the next frontier
/// (values = parent ids), and the direction-optimisation memory (previous
/// density + direction) so the resumed push/pull choices match exactly.
void capture(BfsResult& res, const gb::Vector<std::uint64_t>& frontier,
             gb::MxvMethod dir, double prev_density) {
  capture_checkpoint(res.checkpoint, [&](Checkpoint& cp) {
    cp.set_algorithm("bfs");
    cp.put_vector("level", res.level);
    cp.put_vector("parent", res.parent);
    cp.put_vector("frontier", frontier);
    cp.put_i64("depth", res.depth);
    cp.put_u64("dir", static_cast<std::uint64_t>(dir));
    cp.put_f64("prev_density", prev_density);
    std::vector<std::uint64_t> dirs;
    dirs.reserve(res.directions.size());
    for (gb::MxvMethod m : res.directions) {
      dirs.push_back(static_cast<std::uint64_t>(m));
    }
    cp.put_array("directions", dirs);
  });
}

/// Batch-loop state at a level boundary: levels so far, the frontier matrix,
/// and the source list (validated on resume — a capsule only resumes the
/// batch it was captured from).
void capture_ms(BfsMsResult& res, const gb::Matrix<double>& frontier,
                const std::vector<Index>& sources) {
  capture_checkpoint(res.checkpoint, [&](Checkpoint& cp) {
    cp.set_algorithm("bfs_level_ms");
    cp.put_matrix("level", res.level);
    cp.put_matrix("frontier", frontier);
    cp.put_i64("depth", res.depth);
    cp.put_array("sources",
                 std::vector<std::uint64_t>(sources.begin(), sources.end()));
  });
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

  BfsMsResult res;
  Scope scope;

  if (resume != nullptr && !resume->empty()) {
    check_resume(*resume, "bfs_level_ms");
    res.checkpoint = *resume;
  }

  // Frontier rows carry the batch: frontier(r, v) present when v joined row
  // r's frontier this level (values are 1.0 pattern carriers; the expansion
  // semiring only needs the structure).
  gb::Matrix<double> frontier;
  StopReason setup = scope.step([&] {
    if (resume != nullptr && !resume->empty()) {
      auto saved = resume->get_array<std::uint64_t>("sources");
      gb::check_value(saved.size() == sources.size() &&
                          std::equal(saved.begin(), saved.end(),
                                     sources.begin()),
                      "bfs_level_ms: resume capsule is for another batch");
      res.level = resume->get_matrix<std::int64_t>("level");
      frontier = resume->get_matrix<double>("frontier");
      gb::check_value(res.level.nrows() == k && res.level.ncols() == n,
                      "bfs_level_ms: resume capsule does not match this graph");
      res.depth = resume->get_i64("depth");
    } else {
      res.level = gb::Matrix<std::int64_t>(k, n);
      frontier = gb::Matrix<double>(k, n);
      std::vector<Index> rows(sources.size());
      std::vector<double> ones(sources.size(), 1.0);
      for (std::size_t r = 0; r < sources.size(); ++r) {
        rows[r] = static_cast<Index>(r);
      }
      frontier.build(rows, sources, ones, gb::Plus{});
    }
  });
  if (setup != StopReason::none) {
    res.stop = setup;
    return res;
  }

  std::int64_t depth = res.depth;
  while (frontier.nvals() > 0) {
    if (StopReason why = scope.interrupted(); why != StopReason::none) {
      res.stop = why;
      res.depth = depth;
      capture_ms(res, frontier, sources);
      return res;
    }
    StopReason why = scope.step([&] {
      // level<frontier, s> = depth — idempotent, so re-running the body
      // after a mid-step trip is safe (same discipline as the vector
      // driver: state commits at level boundaries only).
      gb::assign_scalar(res.level, frontier, gb::no_accum, depth,
                        gb::IndexSel::all(k), gb::IndexSel::all(n), gb::desc_s);
      // next<!level, replace, s> = frontier +.* A — one SpGEMM advances
      // every row; the complemented structural mask prunes visited vertices
      // per row, which is what keeps each row identical to its solo run.
      gb::Matrix<double> next(k, n);
      gb::mxm(next, res.level, gb::no_accum, gb::plus_times<double>(),
              frontier, a, gb::desc_rsc);
      frontier = std::move(next);
      ++depth;
    });
    if (why != StopReason::none) {
      res.stop = why;
      res.depth = depth;
      capture_ms(res, frontier, sources);
      return res;
    }
  }
  res.depth = depth;
  return res;
}

BfsResult bfs(const Graph& g, Index source, BfsVariant variant,
              const Checkpoint* resume) {
  check_graph(g, "bfs");
  const auto& a = g.adj();
  const Index n = a.nrows();
  gb::check_index(source < n, "bfs: source out of range");

  BfsResult res;
  Scope scope;

  if (resume != nullptr && !resume->empty()) {
    check_resume(*resume, "bfs");
    res.checkpoint = *resume;
  }

  // Setup runs governed too: a trip while materialising the transpose or
  // seeding the frontier returns clean telemetry, never a raw platform
  // exception.
  gb::Vector<std::uint64_t> frontier;
  gb::MxvMethod resumed_dir = gb::MxvMethod::push;
  double resumed_density = 0.0;
  StopReason setup = scope.step([&] {
    if (variant != BfsVariant::push) {
      // Pull traversals need the opposite orientation resident; materialise
      // it up front (the AT cached property).
      g.ensure_transpose();
    }
    if (resume != nullptr && !resume->empty()) {
      res.level = resume->get_vector<std::int64_t>("level");
      res.parent = resume->get_vector<std::int64_t>("parent");
      frontier = resume->get_vector<std::uint64_t>("frontier");
      gb::check_value(frontier.size() == n,
                      "bfs: resume capsule does not match this graph");
      res.depth = resume->get_i64("depth");
      resumed_dir = static_cast<gb::MxvMethod>(resume->get_u64("dir"));
      resumed_density = resume->get_f64("prev_density");
      for (std::uint64_t m :
           resume->get_array<std::uint64_t>("directions")) {
        res.directions.push_back(static_cast<gb::MxvMethod>(m));
      }
    } else {
      res.level = gb::Vector<std::int64_t>(n);
      res.parent = gb::Vector<std::int64_t>(n);
      // frontier(v) = id of v's BFS parent. Seed: the source is its own
      // parent.
      frontier = gb::Vector<std::uint64_t>(n);
      frontier.set_element(source, source);
    }
    // Fig. 3's dense side: with level and parent held in bitmap form, each
    // level's masked records store only at the frontier's positions, and
    // the !level mask of the expansion is read in place — a level costs
    // O(frontier), not O(n).
    if (gb::dense_form_addressable(n, 1)) {
      res.level.to_dense();
      res.parent.to_dense();
    }
  });
  if (setup != StopReason::none) {
    res.stop = setup;
    return res;
  }

  // Masked-assign descriptors (Fig. 2 line 5 uses the frontier as a
  // structural mask; line 6 uses the complemented visited mask with replace).
  gb::Descriptor record = gb::desc_s;
  gb::Descriptor expand = gb::desc_rsc;

  const double threshold = gb::desc_default.push_pull_threshold;
  gb::MxvMethod dir = resumed_dir;
  double prev_density = resumed_density;

  std::int64_t depth = res.depth;
  while (frontier.nvals() > 0) {
    if (StopReason why = scope.interrupted(); why != StopReason::none) {
      res.stop = why;
      res.depth = depth;
      capture(res, frontier, dir, prev_density);
      return res;
    }
    StopReason why = scope.step([&] {
      // level<frontier,s> = depth. Idempotent (same entries, same values),
      // so re-running this body after a mid-step trip is safe.
      gb::assign_scalar(res.level, frontier, gb::no_accum, depth,
                        gb::IndexSel::all(n), record);
      // parent<frontier,s> = frontier  (parent ids ride in the values)
      gb::apply(res.parent, frontier, gb::no_accum, gb::Identity{}, frontier,
                record);

      // Carrier ids for the expansion go into a fresh vector: the frontier
      // (still holding parent ids) stays intact until the commit below, so
      // a trip anywhere in this body leaves the loop state exactly at the
      // previous level boundary and capture() hands out a consistent
      // capsule.
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
      ++depth;
    });
    if (why != StopReason::none) {
      res.stop = why;
      res.depth = depth;
      capture(res, frontier, dir, prev_density);
      return res;
    }
  }
  res.depth = depth;
  return res;
}

}  // namespace lagraph
