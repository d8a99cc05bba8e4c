// Connected components: FastSV (Zhang, Azad, Hu; LACC lineage — §V cites
// Azad & Buluç's LACC). The parent vector f converges to the minimum vertex
// id of each component. As in LAGraph v1, a round has one GraphBLAS op, the
// min_second mxv over A|Aᵀ that finds each vertex's minimum neighbour
// grandparent (mngp); the rest are O(n) passes over dense parent arrays:
//   gather         gp = f[f]
//   hooking        x = min(f, gp, mngp), then the aggressive hook
//                  x[f[i]] = min(x[f[i]], mngp(i)), an atomic scatter-min
//                  (order-independent, so any thread count gives the same bits)
//   pointer jump   x = x[x] until no slot moves, double-buffered
// f stays a full gb::Vector (the checkpoint slot). Every pass runs through
// the platform's chunked loops, which rebind the caller's governor in each
// worker and poll it; scratch is metered Buf.
#include <algorithm>
#include <atomic>
#include <numeric>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"
#include "platform/parallel.hpp"

namespace lagraph {

namespace {

using Parents = gb::Buf<std::uint64_t>;

/// Items between governor polls inside a chunk.
constexpr std::size_t kPollStride = 4096;

/// body(lo, hi) over [0, n): equal chunks on the platform's threads, each
/// cut into blocks of kPollStride items with a governor poll between them.
template <class Body>
void for_blocks(Index n, Body&& body) {
  const auto items = static_cast<std::size_t>(n);
  gb::platform::parallel_for_chunks(
      items, gb::platform::chunk_count(items, items),
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; b += kPollStride) {
          if (b != lo) gb::platform::governor_poll();
          body(b, std::min(hi, b + kPollStride));
        }
      });
}

}  // namespace

CcResult connected_components_run(const Graph& g, const Checkpoint* resume) {
  check_graph(g, "connected_components");
  const Index n = g.adj().nrows();

  CcResult res;
  const gb::Matrix<double>* a = nullptr;  // the A|Aᵀ view
  gb::Vector<std::uint64_t> f;            // parent of each vertex, full form
  auto slots = [&](auto& io) {
    io("f", f);
    io("rounds", res.rounds);
  };
  auto setup = [&](bool resumed) {
    a = &g.undirected_view();
    if (resumed) {
      // The passes index by parent, so a capsule's f must be a full vector
      // of in-range vertex ids.
      const bool fits = f.size() == n && f.nvals() == n &&
                        std::ranges::all_of(f.dense_values(),
                                            [n](auto p) { return p < n; });
      gb::check_value(fits,
                      "connected_components: resume capsule does not "
                      "match this graph");
      return;
    }
    // f = 0..n-1: every vertex its own parent.
    Parents ids(n);
    std::iota(ids.begin(), ids.end(), std::uint64_t{0});
    f = gb::Vector<std::uint64_t>(n);
    f.load_full(std::move(ids));
  };
  auto round = [&] {
    // All work lands in locals; f is only replaced by the noexcept commit
    // below, so a mid-round trip leaves the round boundary intact.
    const auto fv = f.dense_values();

    // Grandparents: gp = f[f], the mxv input.
    Parents grand(n);
    for_blocks(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) grand[i] = fv[fv[i]];
    });
    gb::Vector<std::uint64_t> gp(n);
    gp.load_full(std::move(grand));
    const auto gpv = gp.dense_values();

    // Stochastic hooking: mngp(i) = min_{j in adj(i)} gp(j).
    gb::Vector<std::uint64_t> mngp(n);
    gb::mxv(mngp, gb::no_mask, gb::no_accum,
            gb::min_second<std::uint64_t>(), *a, gp);
    // Read in place; a vertex with no neighbour has no entry.
    const auto mv = mngp.dense_values();
    const bool mfull = mngp.is_full_rep();
    const auto mp = mfull ? std::span<const std::uint8_t>{} : mngp.present();

    // Hook each vertex to the minimum of parent, grandparent and mngp ...
    Parents x(n);
    for_blocks(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        auto v = std::min(fv[i], gpv[i]);
        if (mfull || mp[i]) v = std::min(v, mv[i]);
        x[i] = v;
      }
    });
    // ... and aggressively hook each parent: x[f[i]] <- min(x[f[i]], mngp(i)).
    for_blocks(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (!mfull && !mp[i]) continue;
        std::atomic_ref<std::uint64_t> slot(x[fv[i]]);
        auto cur = slot.load();
        while (mv[i] < cur && !slot.compare_exchange_weak(cur, mv[i])) {
        }
      }
    });

    // Pointer jumping until stable: x = x[x]. Each pass also reports whether
    // it differs from f; the last one (no slot moved) answers the round's
    // convergence test.
    Parents y(n);
    bool moved = true;
    bool changed = false;
    while (moved) {
      std::atomic<bool> any_moved{false};
      std::atomic<bool> any_changed{false};
      for_blocks(n, [&](std::size_t lo, std::size_t hi) {
        bool m = false;
        bool c = false;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto v = x[x[i]];
          y[i] = v;
          m |= v != x[i];
          c |= v != fv[i];
        }
        if (m) any_moved = true;
        if (c) any_changed = true;
      });
      moved = any_moved;
      changed = any_changed;
      x.swap(y);
    }

    if (changed) f.load_full(std::move(x));  // commit
    ++res.rounds;
    return changed;
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
