// GrB_mxm: C<M> accum= op(A) ⊕.⊗ op(B), with the three kernel families of
// SuiteSparse:GraphBLAS (§II-A):
//
//   * Gustavson — row-wise saxpy with a dense accumulator [Gustavson 1978];
//     the general workhorse. Runs as a two-pass symbolic/numeric kernel:
//     a parallel symbolic pass counts each output row, an exclusive scan
//     builds the pointer array, and the numeric pass writes every row into
//     its precomputed offset — no per-chunk stores, no serial
//     concatenation tail;
//   * dot       — C(i,j) = A(i,:)·B(:,j); with a (non-complemented) mask it
//     only computes the masked positions, and terminal monoids exit each
//     dot early — this pairing is the "masked dot" the paper highlights;
//   * heap      — k-way merge of the selected B rows through a min-heap
//     [Azad et al. 2016]; wins when A's rows are very sparse.
//
// Each method has unmasked / masked / complemented-masked behaviour, giving
// the "6 functions" (2 Gustavson + 3 dot + 1 heap) that the paper says
// expand into all built-in semirings; here the expansion is done by the C++
// template instantiation instead of a code generator.
//
// All three methods parallelise over cost-balanced chunks of rows (flops
// per row, not row count — GraphBLAST-style merge-path balancing), and all
// three produce bit-identical results at every thread count: Gustavson by
// writing rows at precomputed offsets, dot and heap by concatenating
// per-chunk stores in chunk order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "graphblas/mask_accum.hpp"
#include "platform/parallel.hpp"
#include "platform/workspace.hpp"
#include "graphblas/semiring.hpp"
#include "graphblas/store_utils.hpp"

namespace gb {

namespace detail {

// Workspace call-site tags: one retained scratch pool per (tag, element
// type) pair per thread. Incomplete types on purpose.
struct ws_mxm_acc;
struct ws_mxm_present;
struct ws_mxm_touched;
struct ws_mxm_cost;
struct ws_mxm_counts;
struct ws_dot_row;
struct ws_dot_cost;
struct ws_dot_parts;
struct ws_heap_row;
struct ws_heap_nodes;
struct ws_heap_cost;
struct ws_heap_parts;
struct ws_kron_counts;

/// Append a finished row (sorted) to a hyper store under construction.
template <class ZT>
void finish_row(SparseStore<ZT>& t, Index r,
                const Buf<std::pair<Index, ZT>>& row) {
  if (row.empty()) return;
  for (const auto& [j, v] : row) {
    t.i.push_back(j);
    t.x.push_back(v);
  }
  t.h.push_back(r);
  t.p.push_back(static_cast<Index>(t.i.size()));
}

/// Per-row flop estimate for the saxpy-family methods: flops(ka) =
/// Σ |B(k,:)| over the column pattern k of A's row ka — the GraphBLAST
/// load-balancing measure. Fills `prefix` with the exclusive scan (size
/// nvec+1, prefix[nvec] == total) and returns the total.
template <class AT, class BT>
Index mxm_flop_prefix(const SparseStore<AT>& ra, const SparseStore<BT>& rb,
                      Buf<Index>& prefix) {
  const Index nv = ra.nvec();
  prefix.assign(static_cast<std::size_t>(nv) + 1, 0);
  platform::parallel_for(static_cast<std::size_t>(nv), [&](std::size_t ka) {
    Index f = 0;
    for (Index pa = ra.vec_begin(static_cast<Index>(ka));
         pa < ra.vec_end(static_cast<Index>(ka)); ++pa) {
      if (auto kb = rb.find_vec(ra.i[pa])) {
        f += rb.vec_end(*kb) - rb.vec_begin(*kb);
      }
    }
    prefix[ka] = f;
  });
  return platform::exclusive_scan(prefix);
}

/// Gustavson saxpy, two passes over cost-balanced chunks of A's stored
/// rows. The symbolic pass counts each output row's entries (pattern +
/// mask, no values), the exclusive scan turns the counts into final row
/// offsets, and the numeric pass computes values and writes each row
/// directly into its slot — the output is bit-identical for every chunking
/// and thread count because offsets do not depend on either.
template <class SR, class AT, class BT, class MaskArg>
SparseStore<typename SR::value_type> mxm_gustavson(
    const SparseStore<AT>& ra, const SparseStore<BT>& rb, Index n,
    const SR& sr, const MaskArg& mask, const Descriptor& desc,
    bool dense_native = false) {
  using ZT = typename SR::value_type;
  const Index nv = ra.nvec();
  SparseStore<ZT> t(ra.vdim);
  t.hyper = true;
  t.p.assign(1, 0);
  if (nv == 0) return t;

  // Flop-balanced chunk boundaries, shared by both passes.
  auto cost_h = platform::Workspace::checkout<ws_mxm_cost, Index>();
  auto& cost = *cost_h;
  mxm_flop_prefix(ra, rb, cost);
  const std::span<const Index> costs(cost.data(), cost.size());
  const auto* mask_rows = MatrixMaskProbe<MaskArg>::rows(mask);

  // Dense-regime kernel-native output: the result is produced directly in
  // the bitmap form — t.x/t.b are the row-major slot arrays, each saxpy
  // lands at slot r*n+j. The symbolic pass, the per-row touched sort, and
  // the dense->sparse compaction all disappear. Chunks own disjoint row
  // ranges, so slot writes never race; slot placement is positional, so the
  // result is bit-identical for any chunking. Unmasked only: the mask probe
  // needs ascending j, and saxpy visits j in pattern order.
  if constexpr (!is_masked<MaskArg>) {
    if (dense_native && dense_form_addressable(ra.vdim, n)) {
      (void)mask;
      (void)desc;
      const std::size_t slots = static_cast<std::size_t>(ra.vdim) * n;
      t.hyper = false;
      Buf<Index>().swap(t.p);
      t.form = Format::bitmap;
      t.mdim = n;
      t.x.assign(slots, ZT{});
      t.b.assign(slots, 0);

      auto run_range = [&](std::size_t klo, std::size_t khi) -> Index {
        Index cnt = 0;
        for (std::size_t ka = klo; ka < khi; ++ka) {
          platform::governor_poll();
          const std::size_t base =
              static_cast<std::size_t>(ra.vec_id(static_cast<Index>(ka))) * n;
          for (Index pa = ra.vec_begin(static_cast<Index>(ka));
               pa < ra.vec_end(static_cast<Index>(ka)); ++pa) {
            auto kb = rb.find_vec(ra.i[pa]);
            if (!kb) continue;
            const AT aval = ra.x[pa];
            for (Index pb = rb.vec_begin(*kb); pb < rb.vec_end(*kb); ++pb) {
              const std::size_t s = base + rb.i[pb];
              ZT prod = static_cast<ZT>(sr.mul(aval, rb.x[pb]));
              if (!t.b[s]) {
                t.b[s] = 1;
                t.x[s] = prod;
                ++cnt;
              } else if constexpr (!always_terminal<typename SR::add_type>) {
                if (!sr.add.is_terminal(t.x[s])) t.x[s] = sr.add(t.x[s], prod);
              }
            }
          }
        }
        return cnt;
      };

      const std::size_t nchunks =
          platform::chunk_count(static_cast<std::size_t>(nv), costs[nv]);
      if (nchunks <= 1) {
        t.bnvals = run_range(0, static_cast<std::size_t>(nv));
        return t;
      }
      Buf<Index> cnts(nchunks, 0);
      platform::parallel_balanced_chunks_n(
          costs, nchunks,
          [&](std::size_t c, std::size_t lo, std::size_t hi) {
            cnts[c] = run_range(lo, hi);
          });
      Index total = 0;
      for (std::size_t c = 0; c < nchunks; ++c) total += cnts[c];
      t.bnvals = total;
      return t;
    }
  } else {
    (void)dense_native;
  }

  // Single-chunk fused pass: when the flop-balancer would hand the whole
  // product to one worker anyway (few rows, or a single-core budget), the
  // symbolic pass buys nothing — its offsets only exist so parallel chunks
  // can write disjoint ranges. Accumulate each row once and append. The
  // entries, their order, and the fold order are exactly the numeric pass's,
  // so the store is bit-identical to the two-pass result.
  if (platform::chunk_count(static_cast<std::size_t>(nv), costs[nv]) <= 1) {
    auto acc_h = platform::Workspace::checkout<ws_mxm_acc, ZT>(n);
    auto present_h =
        platform::Workspace::checkout<ws_mxm_present, std::uint8_t>(n);
    auto touched_h = platform::Workspace::checkout<ws_mxm_touched, Index>();
    auto& acc = *acc_h;
    auto& present = *present_h;
    auto& touched = *touched_h;
    MatrixMaskProbe<MaskArg> probe(mask_rows, desc);
    for (Index ka = 0; ka < nv; ++ka) {
      platform::governor_poll();
      touched.clear();
      for (Index pa = ra.vec_begin(ka); pa < ra.vec_end(ka); ++pa) {
        auto kb = rb.find_vec(ra.i[pa]);
        if (!kb) continue;
        const AT aval = ra.x[pa];
        for (Index pb = rb.vec_begin(*kb); pb < rb.vec_end(*kb); ++pb) {
          Index j = rb.i[pb];
          ZT prod = static_cast<ZT>(sr.mul(aval, rb.x[pb]));
          if (!present[j]) {
            present[j] = 1;
            acc[j] = prod;
            touched.push_back(j);
          } else if constexpr (!always_terminal<typename SR::add_type>) {
            if (!sr.add.is_terminal(acc[j])) acc[j] = sr.add(acc[j], prod);
          }
        }
      }
      std::sort(touched.begin(), touched.end());
      probe.begin_row(ra.vec_id(ka));
      const std::size_t row_start = t.i.size();
      for (Index j : touched) {
        if (probe.test(j)) {
          t.i.push_back(j);
          t.x.push_back(acc[j]);
        }
        present[j] = 0;
      }
      if (t.i.size() > row_start) {
        t.h.push_back(ra.vec_id(ka));
        t.p.push_back(static_cast<Index>(t.i.size()));
      }
    }
    return t;
  }

  // --- symbolic pass: counts[ka] = nnz of output row ka ---
  auto counts_h = platform::Workspace::checkout<ws_mxm_counts, Index>(
      static_cast<std::size_t>(nv) + 1);
  auto& counts = *counts_h;
  platform::parallel_balanced_chunks(
      costs, [&](std::size_t, std::size_t klo, std::size_t khi) {
        auto present_h =
            platform::Workspace::checkout<ws_mxm_present, std::uint8_t>(n);
        auto touched_h =
            platform::Workspace::checkout<ws_mxm_touched, Index>();
        auto& present = *present_h;
        auto& touched = *touched_h;
        MatrixMaskProbe<MaskArg> probe(mask_rows, desc);
        for (std::size_t ka = klo; ka < khi; ++ka) {
          platform::governor_poll();
          touched.clear();
          for (Index pa = ra.vec_begin(static_cast<Index>(ka));
               pa < ra.vec_end(static_cast<Index>(ka)); ++pa) {
            auto kb = rb.find_vec(ra.i[pa]);
            if (!kb) continue;
            for (Index pb = rb.vec_begin(*kb); pb < rb.vec_end(*kb); ++pb) {
              Index j = rb.i[pb];
              if (!present[j]) {
                present[j] = 1;
                touched.push_back(j);
              }
            }
          }
          std::sort(touched.begin(), touched.end());
          probe.begin_row(ra.vec_id(static_cast<Index>(ka)));
          Index cnt = 0;
          for (Index j : touched) {
            if (probe.test(j)) ++cnt;
            present[j] = 0;
          }
          counts[ka] = cnt;
        }
      });

  // --- pointer array: counts becomes each row's start offset ---
  const Index nnz = platform::exclusive_scan(counts);
  t.i.resize(static_cast<std::size_t>(nnz));
  t.x.resize(static_cast<std::size_t>(nnz));

  // --- numeric pass: values, written at the precomputed offsets ---
  platform::parallel_balanced_chunks(
      costs, [&](std::size_t, std::size_t klo, std::size_t khi) {
        auto acc_h = platform::Workspace::checkout<ws_mxm_acc, ZT>(n);
        auto present_h =
            platform::Workspace::checkout<ws_mxm_present, std::uint8_t>(n);
        auto touched_h =
            platform::Workspace::checkout<ws_mxm_touched, Index>();
        auto& acc = *acc_h;
        auto& present = *present_h;
        auto& touched = *touched_h;
        MatrixMaskProbe<MaskArg> probe(mask_rows, desc);
        for (std::size_t ka = klo; ka < khi; ++ka) {
          platform::governor_poll();
          touched.clear();
          for (Index pa = ra.vec_begin(static_cast<Index>(ka));
               pa < ra.vec_end(static_cast<Index>(ka)); ++pa) {
            auto kb = rb.find_vec(ra.i[pa]);
            if (!kb) continue;
            const AT aval = ra.x[pa];
            for (Index pb = rb.vec_begin(*kb); pb < rb.vec_end(*kb); ++pb) {
              Index j = rb.i[pb];
              ZT prod = static_cast<ZT>(sr.mul(aval, rb.x[pb]));
              if (!present[j]) {
                present[j] = 1;
                acc[j] = prod;
                touched.push_back(j);
              } else if constexpr (!always_terminal<typename SR::add_type>) {
                if (!sr.add.is_terminal(acc[j])) acc[j] = sr.add(acc[j], prod);
              }
            }
          }
          std::sort(touched.begin(), touched.end());
          probe.begin_row(ra.vec_id(static_cast<Index>(ka)));
          Index pos = counts[ka];
          for (Index j : touched) {
            if (probe.test(j)) {
              t.i[pos] = j;
              t.x[pos] = acc[j];
              ++pos;
            }
            present[j] = 0;
          }
        }
      });

  // --- hyperlist: rows that produced entries, in order (arrays are already
  // packed contiguously, so this touches only h and p) ---
  for (Index ka = 0; ka < nv; ++ka) {
    if (counts[ka + 1] > counts[ka]) {
      t.h.push_back(ra.vec_id(ka));
      t.p.push_back(counts[ka + 1]);
    }
  }
  return t;
}

/// One dot product A(i,:)·B(:,j) over two sorted index lists, with terminal
/// early exit. Returns true if any term existed.
template <class SR, class AT, class BT>
bool dot_pair(const SparseStore<AT>& ra, Index ka, const SparseStore<BT>& cb,
              Index kb, const SR& sr, typename SR::value_type& out) {
  using ZT = typename SR::value_type;
  Index pa = ra.vec_begin(ka), ea = ra.vec_end(ka);
  Index pb = cb.vec_begin(kb), eb = cb.vec_end(kb);
  bool any = false;
  ZT acc{};
  while (pa < ea && pb < eb) {
    if (ra.i[pa] < cb.i[pb]) {
      ++pa;
    } else if (cb.i[pb] < ra.i[pa]) {
      ++pb;
    } else {
      ZT prod = static_cast<ZT>(sr.mul(ra.x[pa], cb.x[pb]));
      acc = any ? sr.add(acc, prod) : prod;
      any = true;
      if constexpr (always_terminal<typename SR::add_type>) break;
      if (sr.add.is_terminal(acc)) break;
      ++pa;
      ++pb;
    }
  }
  if (any) out = acc;
  return any;
}

/// Dot-product method. With a plain mask it visits only the mask's stored
/// entries; with a complemented (or absent) mask it sweeps all (i, j) pairs
/// with stored rows/columns. Both walks parallelise over cost-balanced
/// chunks of rows (masked: the mask's rows, weighted by their nnz; sweep:
/// A's rows, weighted by their nnz), with per-chunk stores concatenated in
/// chunk order.
template <class SR, class AT, class BT, class MaskArg>
SparseStore<typename SR::value_type> mxm_dot(const SparseStore<AT>& ra,
                                             const SparseStore<BT>& cb,
                                             const SR& sr, const MaskArg& mask,
                                             const Descriptor& desc) {
  using ZT = typename SR::value_type;
  SparseStore<ZT> t(ra.vdim);
  t.hyper = true;
  t.p.assign(1, 0);

  if constexpr (is_masked<MaskArg>) {
    if (!desc.mask_complement) {
      // Visit exactly the mask's allowed entries.
      const auto& ms = mask.by_row();
      using MV = std::decay_t<decltype(ms.x[0])>;
      const Index nm = ms.nvec();
      if (nm == 0) return t;
      auto run_range = [&](Index klo, Index khi, SparseStore<ZT>& out) {
        auto row_h =
            platform::Workspace::checkout<ws_dot_row, std::pair<Index, ZT>>();
        auto& row = *row_h;
        for (Index km = klo; km < khi; ++km) {
          platform::governor_poll();
          Index r = ms.vec_id(km);
          auto ka = ra.find_vec(r);
          if (!ka) continue;
          row.clear();
          for (Index pm = ms.vec_begin(km); pm < ms.vec_end(km); ++pm) {
            if (!desc.mask_structural && ms.x[pm] == MV{}) continue;
            auto kb = cb.find_vec(ms.i[pm]);
            if (!kb) continue;
            ZT val;
            if (dot_pair(ra, *ka, cb, *kb, sr, val))
              row.emplace_back(ms.i[pm], val);
          }
          finish_row(out, r, row);
        }
      };
      // The mask's own pointer array is the cost prefix: work per mask row
      // is proportional to its entry count.
      const std::span<const Index> costs(ms.p.data(),
                                         static_cast<std::size_t>(nm) + 1);
      const std::size_t nchunks =
          platform::chunk_count(static_cast<std::size_t>(nm), costs[nm]);
      if (nchunks <= 1) {
        run_range(0, nm, t);
        return t;
      }
      auto parts_h =
          platform::Workspace::checkout<ws_dot_parts, SparseStore<ZT>>(
              nchunks);
      auto& parts = *parts_h;
      reset_parts(parts, ra.vdim);
      platform::parallel_balanced_chunks_n(
          costs, nchunks, [&](std::size_t c, std::size_t lo, std::size_t hi) {
            run_range(static_cast<Index>(lo), static_cast<Index>(hi),
                      parts[c]);
          });
      concat_parts(t, parts);
      return t;
    }
  }
  // Unmasked or complemented mask: all stored-row × stored-column pairs;
  // the write-back filters complemented positions. Cost per A row: its
  // entry count (each of the cb.nvec() dots walks at most that many terms).
  const Index nv = ra.nvec();
  if (nv == 0) return t;
  const auto* mask_rows = MatrixMaskProbe<MaskArg>::rows(mask);
  auto run_range = [&](Index klo, Index khi, SparseStore<ZT>& out) {
    auto row_h =
        platform::Workspace::checkout<ws_dot_row, std::pair<Index, ZT>>();
    auto& row = *row_h;
    MatrixMaskProbe<MaskArg> probe(mask_rows, desc);
    for (Index ka = klo; ka < khi; ++ka) {
      platform::governor_poll();
      Index r = ra.vec_id(ka);
      row.clear();
      probe.begin_row(r);
      for (Index kb = 0; kb < cb.nvec(); ++kb) {
        Index j = cb.vec_id(kb);
        if (!probe.test(j)) continue;
        ZT val;
        if (dot_pair(ra, ka, cb, kb, sr, val)) row.emplace_back(j, val);
      }
      finish_row(out, r, row);
    }
  };
  auto cost_h = platform::Workspace::checkout<ws_dot_cost, Index>();
  auto& cost = *cost_h;
  cost.assign(static_cast<std::size_t>(nv) + 1, 0);
  for (Index ka = 0; ka < nv; ++ka) {
    cost[ka] = ra.vec_end(ka) - ra.vec_begin(ka) + 1;
  }
  const Index total = platform::exclusive_scan(cost);
  const std::span<const Index> costs(cost.data(), cost.size());
  const std::size_t nchunks =
      platform::chunk_count(static_cast<std::size_t>(nv), total);
  if (nchunks <= 1) {
    run_range(0, nv, t);
    return t;
  }
  auto parts_h =
      platform::Workspace::checkout<ws_dot_parts, SparseStore<ZT>>(nchunks);
  auto& parts = *parts_h;
  reset_parts(parts, ra.vdim);
  platform::parallel_balanced_chunks_n(
      costs, nchunks, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        run_range(static_cast<Index>(lo), static_cast<Index>(hi), parts[c]);
      });
  concat_parts(t, parts);
  return t;
}

/// Heap method: per output row, a k-way merge over the B rows selected by
/// A's row pattern. Produces each row already sorted; memory O(row nnz of
/// A). Rows are independent, so the kernel runs over flop-balanced chunks
/// with a pooled per-thread heap; per-chunk stores concatenate in order.
template <class SR, class AT, class BT, class MaskArg>
SparseStore<typename SR::value_type> mxm_heap(const SparseStore<AT>& ra,
                                              const SparseStore<BT>& rb,
                                              const SR& sr, const MaskArg& mask,
                                              const Descriptor& desc) {
  using ZT = typename SR::value_type;
  SparseStore<ZT> t(ra.vdim);
  t.hyper = true;
  t.p.assign(1, 0);
  const Index nv = ra.nvec();
  if (nv == 0) return t;

  // Heap node: (current column, B cursor, B end, A value, stream order).
  // `ord` is the stream's position in A's row; tie-breaking on it makes the
  // per-column combination order identical to Gustavson's k-ascending order,
  // so all three methods produce bit-identical floating-point results (the
  // paper's "identical floating-point roundoff error" test discipline).
  struct Node {
    Index col;
    Index pos;
    Index end;
    AT aval;
    Index ord;
  };
  auto cmp = [](const Node& x, const Node& y) {
    return x.col > y.col || (x.col == y.col && x.ord > y.ord);
  };
  const auto* mask_rows = MatrixMaskProbe<MaskArg>::rows(mask);

  auto run_range = [&](Index klo, Index khi, SparseStore<ZT>& out) {
    auto row_h =
        platform::Workspace::checkout<ws_heap_row, std::pair<Index, ZT>>();
    auto& row = *row_h;
    // The heap drains every row, so one retained buffer serves the whole
    // chunk (and the thread's next call) instead of a fresh priority_queue
    // per row.
    auto heap_h = platform::Workspace::checkout<ws_heap_nodes, Node>();
    auto& heap = *heap_h;
    MatrixMaskProbe<MaskArg> probe(mask_rows, desc);
    auto heap_push = [&](Node nd) {
      heap.push_back(nd);
      std::push_heap(heap.begin(), heap.end(), cmp);
    };
    auto heap_pop = [&] {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      Node nd = heap.back();
      heap.pop_back();
      return nd;
    };

    for (Index ka = klo; ka < khi; ++ka) {
      platform::governor_poll();
      Index r = ra.vec_id(ka);
      heap.clear();
      Index ord = 0;
      for (Index pa = ra.vec_begin(ka); pa < ra.vec_end(ka); ++pa, ++ord) {
        auto kb = rb.find_vec(ra.i[pa]);
        if (!kb) continue;
        Index begin = rb.vec_begin(*kb), end = rb.vec_end(*kb);
        if (begin < end)
          heap_push(Node{rb.i[begin], begin, end, ra.x[pa], ord});
      }
      row.clear();
      probe.begin_row(r);
      while (!heap.empty()) {
        Node top = heap_pop();
        Index j = top.col;
        ZT acc = static_cast<ZT>(sr.mul(top.aval, rb.x[top.pos]));
        // Advance this stream.
        if (top.pos + 1 < top.end) {
          heap_push(Node{rb.i[top.pos + 1], top.pos + 1, top.end, top.aval,
                         top.ord});
        }
        // Combine all other streams currently at column j.
        while (!heap.empty() && heap.front().col == j) {
          Node nxt = heap_pop();
          if constexpr (!always_terminal<typename SR::add_type>) {
            if (!sr.add.is_terminal(acc)) {
              acc = sr.add(acc,
                           static_cast<ZT>(sr.mul(nxt.aval, rb.x[nxt.pos])));
            }
          }
          if (nxt.pos + 1 < nxt.end) {
            heap_push(Node{rb.i[nxt.pos + 1], nxt.pos + 1, nxt.end, nxt.aval,
                           nxt.ord});
          }
        }
        if (probe.test(j)) row.emplace_back(j, acc);
      }
      finish_row(out, r, row);
    }
  };

  auto cost_h = platform::Workspace::checkout<ws_heap_cost, Index>();
  auto& cost = *cost_h;
  const Index total = mxm_flop_prefix(ra, rb, cost);
  const std::span<const Index> costs(cost.data(), cost.size());
  const std::size_t nchunks =
      platform::chunk_count(static_cast<std::size_t>(nv), total);
  if (nchunks <= 1) {
    run_range(0, nv, t);
    return t;
  }
  auto parts_h =
      platform::Workspace::checkout<ws_heap_parts, SparseStore<ZT>>(nchunks);
  auto& parts = *parts_h;
  reset_parts(parts, ra.vdim);
  platform::parallel_balanced_chunks_n(
      costs, nchunks, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        run_range(static_cast<Index>(lo), static_cast<Index>(hi), parts[c]);
      });
  concat_parts(t, parts);
  return t;
}

}  // namespace detail

/// C<M> accum= op(A) ⊕.⊗ op(B). Returns the method actually used.
template <class CT, class MaskArg, class Accum, class SR, class AT, class BT>
MxmMethod mxm(Matrix<CT>& c, const MaskArg& mask, const Accum& accum,
              const SR& sr, const Matrix<AT>& a, const Matrix<BT>& b,
              const Descriptor& desc = desc_default) {
  const Index m = input_nrows(a, desc.transpose_a);
  const Index ka = input_ncols(a, desc.transpose_a);
  const Index kb = input_nrows(b, desc.transpose_b);
  const Index n = input_ncols(b, desc.transpose_b);
  check_dims(c.nrows() == m && c.ncols() == n && ka == kb, "mxm: shapes");

  MxmMethod method = desc.mxm;
  if (method == MxmMethod::auto_select && platform::low_memory_hint()) {
    // Degradation-ladder hint (lagraph::Runner after a budget trip): skip
    // the cost model and take the O(row nnz) footprint of the heap method
    // over Gustavson's n-wide accumulator. Explicit descriptor choices are
    // still honoured.
    method = MxmMethod::heap;
  }
  if (method == MxmMethod::auto_select) {
    // Masked outputs with a plain mask are cheapest as masked dots when the
    // mask is sparse relative to the full output; otherwise saxpy. The
    // density compare runs in 128 bits: m * n wraps Index for the enormous
    // dimensions hypersparse matrices exist for, silently flipping the
    // verdict.
    if constexpr (is_masked<MaskArg>) {
      if (!desc.mask_complement &&
          static_cast<unsigned __int128>(mask.nvals()) * 4 <
              static_cast<unsigned __int128>(m) * std::max<Index>(n, 1)) {
        method = MxmMethod::dot;
      }
    }
    if (method == MxmMethod::auto_select) {
      method = MxmMethod::gustavson;
      // Heap wins when A's rows are very sparse AND the merged streams are
      // short: the per-row flop estimate (Σ |B(k,:)| over A's row pattern)
      // measures both. For such inputs the k-way merge touches O(flops)
      // memory where Gustavson still pays for an n-wide accumulator.
      const auto& rar = input_rows(a, desc.transpose_a);
      const Index annz = rar.nnz();
      const Index arows = rar.nvec_nonempty();
      if (arows > 0 && annz <= 4 * arows && n >= 64) {
        const auto& rbr = input_rows(b, desc.transpose_b);
        Index flops = 0;
        for (Index k = 0; k < rar.nvec(); ++k) {
          for (Index pa = rar.vec_begin(k); pa < rar.vec_end(k); ++pa) {
            if (auto kbv = rbr.find_vec(rar.i[pa])) {
              flops += rbr.vec_end(*kbv) - rbr.vec_begin(*kbv);
            }
          }
        }
        if (flops <= 16 * arows) method = MxmMethod::heap;
      }
    }
    // Budget-aware fallback: Gustavson's dense accumulator costs
    // ~n * (sizeof(ZT) + 1) bytes per worker thread (acc + present arrays)
    // before the output itself. When a governor's armed byte budget cannot
    // cover even that scratch, fail over to the heap method — whose
    // footprint is O(row nnz) — up front instead of tripping mid-flight.
    // Only the auto-selected method falls back; an explicit descriptor
    // choice is honoured (and trips the budget honestly).
    if (method == MxmMethod::gustavson) {
      if (auto* gov = platform::Governor::current()) {
        using ZTe = typename SR::value_type;
        const std::size_t per_thread =
            static_cast<std::size_t>(n) * (sizeof(ZTe) + 1);
        const std::size_t scratch =
            per_thread * static_cast<std::size_t>(platform::num_threads());
        if (scratch > gov->budget_remaining()) method = MxmMethod::heap;
      }
    }
  }

  // Dense-regime kernel-native output (Gustavson, unmasked, no accumulator):
  // taken when the output's form preference asks for a dense form, or (auto)
  // when both operands already sit in one — the regime where the result is
  // all but certain to be dense too.
  bool dense_native = false;
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    if (dense_form_addressable(m, n)) {
      const FormatMode fm = c.format_mode();
      if (fm == FormatMode::bitmap || fm == FormatMode::full) {
        dense_native = true;
      } else if (fm == FormatMode::auto_fmt) {
        dense_native =
            a.format() != Format::sparse && b.format() != Format::sparse;
      }
    }
  }

  using ZT = typename SR::value_type;
  SparseStore<ZT> t(m);
  switch (method) {
    case MxmMethod::gustavson:
      t = detail::mxm_gustavson(input_rows(a, desc.transpose_a),
                                input_rows(b, desc.transpose_b), n, sr, mask,
                                desc, dense_native);
      break;
    case MxmMethod::dot:
      t = detail::mxm_dot(input_rows(a, desc.transpose_a),
                          input_rows(b, !desc.transpose_b), sr, mask, desc);
      break;
    case MxmMethod::heap:
      t = detail::mxm_heap(input_rows(a, desc.transpose_a),
                           input_rows(b, desc.transpose_b), sr, mask, desc);
      break;
    case MxmMethod::auto_select:
      throw Error(Info::panic, "mxm: unresolved auto method");
  }
  write_back(c, mask, accum, std::move(t), desc);
  return method;
}

/// Kronecker product: C<M> accum= op(A) ⊗kron op(B) (GrB_kronecker).
/// Two-pass: per-(A-row, B-row) pair counts (an O(1) product each) are
/// scanned into final offsets, then the numeric pass fills every block at
/// its precomputed position over cost-balanced chunks of pairs.
template <class CT, class MaskArg, class Accum, class Op, class AT, class BT>
void kronecker(Matrix<CT>& c, const MaskArg& mask, const Accum& accum, Op op,
               const Matrix<AT>& a, const Matrix<BT>& b,
               const Descriptor& desc = desc_default) {
  const Index am = input_nrows(a, desc.transpose_a);
  const Index an = input_ncols(a, desc.transpose_a);
  const Index bm = input_nrows(b, desc.transpose_b);
  const Index bn = input_ncols(b, desc.transpose_b);
  // am*bm / an*bn silently wrap Index for large operands, which would turn
  // the shape check into a comparison against garbage (the same failure
  // class as an unchecked pointer-array scan). GrB_INDEX_OUT_OF_BOUNDS at
  // the C boundary.
  constexpr Index kMax = std::numeric_limits<Index>::max();
  if ((bm != 0 && am > kMax / bm) || (bn != 0 && an > kMax / bn)) {
    throw Error(Info::index_out_of_bounds,
                "kronecker: output dimensions overflow GrB_Index");
  }
  check_dims(c.nrows() == am * bm && c.ncols() == an * bn, "kronecker: shapes");
  const auto& ra = input_rows(a, desc.transpose_a);
  const auto& rb = input_rows(b, desc.transpose_b);

  using ZT = std::decay_t<decltype(op(std::declval<AT>(), std::declval<BT>()))>;
  SparseStore<ZT> t(am * bm);
  t.hyper = true;
  t.p.assign(1, 0);
  const Index na = ra.nvec(), nb = rb.nvec();
  const Index npairs = na * nb;  // na <= am, nb <= bm, so this cannot wrap
  if (npairs == 0) {
    write_back(c, mask, accum, std::move(t), desc);
    return;
  }

  // Pass 1: counts per (ka, kb) pair; the scanned counts double as the
  // cost prefix for balancing the numeric pass.
  auto counts_h = platform::Workspace::checkout<detail::ws_kron_counts, Index>(
      static_cast<std::size_t>(npairs) + 1);
  auto& counts = *counts_h;
  platform::parallel_for(static_cast<std::size_t>(npairs), [&](std::size_t pi) {
    const Index kaa = static_cast<Index>(pi) / nb;
    const Index kbb = static_cast<Index>(pi) % nb;
    counts[pi] = (ra.vec_end(kaa) - ra.vec_begin(kaa)) *
                 (rb.vec_end(kbb) - rb.vec_begin(kbb));
  });
  const Index nnz = platform::exclusive_scan(counts);
  t.i.resize(static_cast<std::size_t>(nnz));
  t.x.resize(static_cast<std::size_t>(nnz));

  // Pass 2: fill each block at its offset.
  const std::span<const Index> costs(counts.data(), counts.size());
  platform::parallel_balanced_chunks(
      costs, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t pi = lo; pi < hi; ++pi) {
          if ((pi & 255) == 0) platform::governor_poll();
          const Index kaa = static_cast<Index>(pi) / nb;
          const Index kbb = static_cast<Index>(pi) % nb;
          Index pos = counts[pi];
          for (Index pa = ra.vec_begin(kaa); pa < ra.vec_end(kaa); ++pa) {
            for (Index pb = rb.vec_begin(kbb); pb < rb.vec_end(kbb); ++pb) {
              t.i[pos] = ra.i[pa] * bn + rb.i[pb];
              t.x[pos] = static_cast<ZT>(op(ra.x[pa], rb.x[pb]));
              ++pos;
            }
          }
        }
      });

  // Hyperlist: pairs that produced entries, in (ka, kb) order — output row
  // ids ia*bm+ib are strictly increasing along that order.
  for (Index pi = 0; pi < npairs; ++pi) {
    if (counts[pi + 1] > counts[pi]) {
      t.h.push_back(ra.vec_id(pi / nb) * bm + rb.vec_id(pi % nb));
      t.p.push_back(counts[pi + 1]);
    }
  }
  write_back(c, mask, accum, std::move(t), desc);
}

}  // namespace gb
