// GrB_mxv / GrB_vxm: matrix-vector product over a semiring, with the
// direction-optimisation machinery of §II-E:
//
//   * pull — dot products of matrix rows with a DENSE input vector (SpMV);
//     wins when the input is dense; terminal monoids short-circuit each dot
//     (§II-A's early-exit, bench C4);
//   * push — saxpy over the columns selected by a SPARSE input vector
//     (SpMSpV, Gustavson); wins when the input is sparse;
//   * auto — the GraphBLAST rule: push when the input vector's density is
//     below the descriptor threshold, pull when above. The two physical
//     vector representations (Fig. 3) are exactly what the two methods need.
//
// This is the paper's flagship example of "abstract enough to let the
// library choose, specific enough that it can" (§II-E).
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "graphblas/mask_accum.hpp"
#include "platform/parallel.hpp"
#include "platform/workspace.hpp"
#include "graphblas/semiring.hpp"
#include "graphblas/store_utils.hpp"

namespace gb {

namespace detail {

// Workspace call-site tags for the mxv kernels.
struct ws_pull_cti;
struct ws_pull_ctv;
struct ws_push_acc;
struct ws_push_present;
struct ws_push_touched;

/// Pull kernel: t(r) = ⊕_j mul(R(r,:), u) for stored rows r. The mask probe
/// lets masked pulls skip whole dot products — the "masked dot" of §II-A.
///
/// Rows are independent, so the kernel parallelises over chunks of stored
/// rows balanced by the store's own pointer array (each row's cost is its
/// entry count — a power-law hub row no longer drags its whole equal-size
/// chunk); per-chunk outputs are concatenated in order, keeping the result
/// bit-identical to the serial pass.
template <class SR, class AT, class UT, class MaskArg>
void mxv_pull(const SparseStore<AT>& rows, const Vector<UT>& u,
              const SR& sr, const VectorMaskProbe<MaskArg>& probe,
              Buf<Index>& ti, Buf<typename SR::value_type>& tv) {
  using ZT = typename SR::value_type;
  auto dv = u.dense_values();
  // A full input has no absent positions: skip the presence test (and don't
  // make it materialise a presence map just for us).
  const bool u_full = u.is_full_rep();
  std::span<const std::uint8_t> pres;
  if (!u_full) pres = u.present();
  const Index nv = rows.nvec();

  auto run_range = [&](Index klo, Index khi, auto& oi, auto& ov) {
    for (Index k = klo; k < khi; ++k) {
      if ((k & 255) == 0) platform::governor_poll();
      Index r = rows.vec_id(k);
      if (!probe.test(r)) continue;
      ZT acc{};
      bool any = false;
      for (Index pos = rows.vec_begin(k); pos < rows.vec_end(k); ++pos) {
        Index j = rows.i[pos];
        if (!u_full && !pres[j]) continue;
        ZT prod = static_cast<ZT>(sr.mul(rows.x[pos], dv[j]));
        acc = any ? sr.add(acc, prod) : prod;
        any = true;
        if constexpr (always_terminal<typename SR::add_type>) break;
        if (sr.add.is_terminal(acc)) break;
      }
      if (any) {
        oi.push_back(r);
        ov.push_back(acc);
      }
    }
  };

  const std::span<const Index> costs(rows.p.data(),
                                     static_cast<std::size_t>(nv) + 1);
  const std::size_t nchunks =
      platform::chunk_count(static_cast<std::size_t>(nv), rows.nnz());
  if (nchunks <= 1) {
    run_range(0, nv, ti, tv);
    return;
  }
  // Per-chunk output buffers. The outer arrays are retained workspace on the
  // calling thread; the inner Bufs are rebuilt per call (each chunk writes
  // only its own slot, concatenated in chunk order below — deterministic).
  auto cti_h = platform::Workspace::checkout<ws_pull_cti, Buf<Index>>(nchunks);
  auto ctv_h = platform::Workspace::checkout<ws_pull_ctv, Buf<ZT>>(nchunks);
  auto& cti = *cti_h;
  auto& ctv = *ctv_h;
  platform::parallel_balanced_chunks_n(
      costs, nchunks, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        run_range(static_cast<Index>(lo), static_cast<Index>(hi), cti[c],
                  ctv[c]);
      });
  for (std::size_t c = 0; c < nchunks; ++c) {
    ti.insert(ti.end(), cti[c].begin(), cti[c].end());
    tv.insert(tv.end(), ctv[c].begin(), ctv[c].end());
  }
}

/// Push kernel: t ⊕= mul(C(:,j), u(j)) for entries u(j). Uses a dense
/// accumulator when the output dimension is addressable, a hash accumulator
/// for hypersparse-scale dimensions.
template <class SR, class AT, class UT, class MaskArg>
void mxv_push(const SparseStore<AT>& cols, Index out_dim, const Vector<UT>& u,
              const SR& sr, const VectorMaskProbe<MaskArg>& probe,
              Buf<Index>& ti, Buf<typename SR::value_type>& tv) {
  using ZT = typename SR::value_type;
  auto ui = u.indices();
  auto uv = u.values();
  // Beyond this dimension a dense accumulator (8n bytes + bitmap) stops
  // being reasonable; fall back to hashing (the hypersparse regime).
  constexpr Index kDenseLimit = Index{1} << 23;
  if (out_dim <= kDenseLimit) {
    auto acc_h = platform::Workspace::checkout<ws_push_acc, ZT>(out_dim);
    auto present_h =
        platform::Workspace::checkout<ws_push_present, std::uint8_t>(out_dim);
    auto touched_h = platform::Workspace::checkout<ws_push_touched, Index>();
    auto& acc = *acc_h;
    auto& present = *present_h;
    auto& touched = *touched_h;
    for (std::size_t k = 0; k < ui.size(); ++k) {
      if ((k & 255) == 0) platform::governor_poll();
      auto ck = cols.find_vec(ui[k]);
      if (!ck) continue;
      const UT uval = uv[k];
      for (Index pos = cols.vec_begin(*ck); pos < cols.vec_end(*ck); ++pos) {
        Index r = cols.i[pos];
        if (!probe.test(r)) continue;
        ZT prod = static_cast<ZT>(sr.mul(cols.x[pos], uval));
        if (!present[r]) {
          present[r] = 1;
          acc[r] = prod;
          touched.push_back(r);
        } else if (!sr.add.is_terminal(acc[r])) {
          if constexpr (!always_terminal<typename SR::add_type>) {
            acc[r] = sr.add(acc[r], prod);
          }
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    ti.reserve(touched.size());
    tv.reserve(touched.size());
    for (Index r : touched) {
      ti.push_back(r);
      tv.push_back(acc[r]);
      present[r] = 0;
    }
    // Every present slot is clear again, and acc is only read where present
    // is set: both go back at size, so the next push skips the 9n-byte fill.
    acc_h.keep_contents();
    present_h.keep_contents();
  } else {
    // Hypersparse regime: hash accumulator, metered + fault-injectable.
    BufMap<Index, ZT> acc;
    for (std::size_t k = 0; k < ui.size(); ++k) {
      if ((k & 255) == 0) platform::governor_poll();
      auto ck = cols.find_vec(ui[k]);
      if (!ck) continue;
      const UT uval = uv[k];
      for (Index pos = cols.vec_begin(*ck); pos < cols.vec_end(*ck); ++pos) {
        Index r = cols.i[pos];
        if (!probe.test(r)) continue;
        ZT prod = static_cast<ZT>(sr.mul(cols.x[pos], uval));
        auto [it, inserted] = acc.try_emplace(r, prod);
        if (!inserted && !sr.add.is_terminal(it->second)) {
          if constexpr (!always_terminal<typename SR::add_type>) {
            it->second = sr.add(it->second, prod);
          }
        }
      }
    }
    // Gather (index, value) pairs once and sort them together — re-probing
    // the hash table per sorted index would do acc.size() extra lookups.
    Buf<std::pair<Index, ZT>> pairs;
    pairs.reserve(acc.size());
    for (const auto& [r, v] : acc) pairs.emplace_back(r, v);
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ti.reserve(pairs.size());
    tv.reserve(pairs.size());
    for (const auto& [r, v] : pairs) {
      ti.push_back(r);
      tv.push_back(v);
    }
  }
}

/// Pull kernel with a kernel-native dense output: each dot product lands
/// straight in acc[r] / present[r], the arrays that *become* the result's
/// bitmap form — no per-chunk buffers, no concatenation, no compaction.
/// Chunks own disjoint stored-row ranges, so slot writes never race, and
/// slot placement is positional: bit-identical for any thread count.
template <class SR, class AT, class UT, class MaskArg>
Index mxv_pull_dense(const SparseStore<AT>& rows, const Vector<UT>& u,
                     const SR& sr, const VectorMaskProbe<MaskArg>& probe,
                     Buf<typename SR::value_type>& acc,
                     Buf<std::uint8_t>& present) {
  using ZT = typename SR::value_type;
  auto dv = u.dense_values();
  const bool u_full = u.is_full_rep();
  std::span<const std::uint8_t> pres;
  if (!u_full) pres = u.present();
  const Index nv = rows.nvec();

  auto run_range = [&](Index klo, Index khi) -> Index {
    Index cnt = 0;
    for (Index k = klo; k < khi; ++k) {
      if ((k & 255) == 0) platform::governor_poll();
      Index r = rows.vec_id(k);
      if (!probe.test(r)) continue;
      ZT a{};
      bool any = false;
      for (Index pos = rows.vec_begin(k); pos < rows.vec_end(k); ++pos) {
        Index j = rows.i[pos];
        if (!u_full && !pres[j]) continue;
        ZT prod = static_cast<ZT>(sr.mul(rows.x[pos], dv[j]));
        a = any ? sr.add(a, prod) : prod;
        any = true;
        if constexpr (always_terminal<typename SR::add_type>) break;
        if (sr.add.is_terminal(a)) break;
      }
      if (any) {
        acc[r] = a;
        present[r] = 1;
        ++cnt;
      }
    }
    return cnt;
  };

  const std::span<const Index> costs(rows.p.data(),
                                     static_cast<std::size_t>(nv) + 1);
  const std::size_t nchunks =
      platform::chunk_count(static_cast<std::size_t>(nv), rows.nnz());
  if (nchunks <= 1) return run_range(0, nv);
  Buf<Index> cnts(nchunks, 0);
  platform::parallel_balanced_chunks_n(
      costs, nchunks, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        cnts[c] = run_range(static_cast<Index>(lo), static_cast<Index>(hi));
      });
  Index cnt = 0;
  for (std::size_t c = 0; c < nchunks; ++c) cnt += cnts[c];
  return cnt;
}

/// Push kernel with a kernel-native dense output: accumulates straight into
/// the result arrays — the `touched` list and its sort disappear entirely.
template <class SR, class AT, class UT, class MaskArg>
Index mxv_push_dense(const SparseStore<AT>& cols, const Vector<UT>& u,
                     const SR& sr, const VectorMaskProbe<MaskArg>& probe,
                     Buf<typename SR::value_type>& acc,
                     Buf<std::uint8_t>& present) {
  using ZT = typename SR::value_type;
  auto ui = u.indices();
  auto uv = u.values();
  Index cnt = 0;
  for (std::size_t k = 0; k < ui.size(); ++k) {
    if ((k & 255) == 0) platform::governor_poll();
    auto ck = cols.find_vec(ui[k]);
    if (!ck) continue;
    const UT uval = uv[k];
    for (Index pos = cols.vec_begin(*ck); pos < cols.vec_end(*ck); ++pos) {
      Index r = cols.i[pos];
      if (!probe.test(r)) continue;
      ZT prod = static_cast<ZT>(sr.mul(cols.x[pos], uval));
      if (!present[r]) {
        present[r] = 1;
        acc[r] = prod;
        ++cnt;
      } else if (!sr.add.is_terminal(acc[r])) {
        if constexpr (!always_terminal<typename SR::add_type>) {
          acc[r] = sr.add(acc[r], prod);
        }
      }
    }
  }
  return cnt;
}

/// Multiply-op wrapper that swaps operand order (vxm sees mul(u, A) where
/// the mxv kernels compute mul(A, u)).
template <class Mul>
struct FlippedMul {
  Mul inner{};
  template <class X, class Y>
  constexpr auto operator()(const X& x, const Y& y) const {
    return inner(y, x);
  }
};

/// Resolve the descriptor's mxv method for op(A)·u: the GraphBLAST
/// direction-optimisation rule under auto_select. Shared by mxv() and the
/// fused epilogue entry points (fused.hpp), which must pick the same
/// traversal for bit-identical floating-point association.
template <class UT>
[[nodiscard]] MxvMethod mxv_pick_method(const Vector<UT>& u,
                                        const Descriptor& desc) {
  MxvMethod method = desc.mxv;
  if (method == MxvMethod::auto_select) {
    method = u.density() < desc.push_pull_threshold ? MxvMethod::push
                                                    : MxvMethod::pull;
  }
  return method;
}

/// Run the sparse-output mxv kernel for op(A)·u into (ti, tv) — the shared
/// compute step behind mxv()'s write-back path and the fused epilogues,
/// which commit the same raw product through a different tail.
template <class SR, class AT, class UT, class MaskArg>
void mxv_sparse_t(const Matrix<AT>& a, const Vector<UT>& u, const SR& sr,
                  const VectorMaskProbe<MaskArg>& probe, MxvMethod method,
                  const Descriptor& desc, Index out_dim, Buf<Index>& ti,
                  Buf<typename SR::value_type>& tv) {
  if (method == MxvMethod::pull) {
    mxv_pull(input_rows(a, desc.transpose_a), u, sr, probe, ti, tv);
  } else {
    // Columns of op(A) = rows of the opposite orientation.
    mxv_push(input_rows(a, !desc.transpose_a), out_dim, u, sr, probe, ti, tv);
  }
}

}  // namespace detail

/// w<m> accum= op(A) ⊕.⊗ u. Returns the traversal direction actually used
/// (so tests and the BFS bench can observe the optimiser's choice).
template <class CT, class MaskArg, class Accum, class SR, class AT, class UT>
MxvMethod mxv(Vector<CT>& w, const MaskArg& mask, const Accum& accum,
              const SR& sr, const Matrix<AT>& a, const Vector<UT>& u,
              const Descriptor& desc = desc_default) {
  const Index out_dim = input_nrows(a, desc.transpose_a);
  const Index in_dim = input_ncols(a, desc.transpose_a);
  check_dims(w.size() == out_dim && u.size() == in_dim, "mxv: shapes");

  MxvMethod method = detail::mxv_pick_method(u, desc);

  using ZT = typename SR::value_type;
  if constexpr (is_masked<MaskArg>) {
    // The probe reads a bitmap or full mask in place, and the mask may be u
    // itself: give u the form its kernel reads first, so no conversion
    // inside the kernel frees the arrays the probe holds.
    if (method == MxvMethod::push) {
      (void)u.indices();
    } else {
      (void)u.dense_values();
    }
  }
  VectorMaskProbe<MaskArg> probe(mask, out_dim, desc);

  // Kernel-native dense output: when nothing stands between the kernel's
  // accumulator and the committed result (no mask, no accumulator) and the
  // output dimension is dense-addressable, the accumulator arrays *are* the
  // result's bitmap form — no touched sort, no compaction, no concat. Taken
  // when the output's form preference asks for a dense form, or (auto) when
  // a pull over a mostly-non-empty row set predicts a dense result. Forced
  // sparse skips it: the dense scan would just compact again.
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    bool native = false;
    if (dense_form_addressable(out_dim, 1)) {
      const FormatMode fm = w.format_mode();
      if (fm == FormatMode::bitmap || fm == FormatMode::full) {
        native = true;
      } else if (fm == FormatMode::auto_fmt && method == MxvMethod::pull) {
        const auto& rows = input_rows(a, desc.transpose_a);
        native = static_cast<double>(rows.nvec_nonempty()) >=
                 0.10 * static_cast<double>(out_dim);
      }
    }
    if (native) {
      Buf<ZT> acc(out_dim, ZT{});
      Buf<std::uint8_t> present(out_dim, 0);
      Index cnt;
      if (method == MxvMethod::pull) {
        cnt = detail::mxv_pull_dense(input_rows(a, desc.transpose_a), u, sr,
                                     probe, acc, present);
      } else {
        cnt = detail::mxv_push_dense(input_rows(a, !desc.transpose_a), u, sr,
                                     probe, acc, present);
      }
      Buf<storage_t<CT>> vals;
      if constexpr (std::is_same_v<storage_t<CT>, ZT>) {
        vals = std::move(acc);
      } else {
        vals.resize(out_dim);
        for (Index i = 0; i < out_dim; ++i)
          vals[i] = static_cast<CT>(acc[i]);
      }
      w.commit_result_dense(std::move(vals), std::move(present), cnt);
      return method;
    }
  }

  Buf<Index> ti;
  Buf<ZT> tv;
  detail::mxv_sparse_t(a, u, sr, probe, method, desc, out_dim, ti, tv);
  write_back(w, mask, accum, std::move(ti), std::move(tv), desc);
  return method;
}

/// w'<m'> accum= u' ⊕.⊗ op(A) — identical to mxv with op(A) transposed.
template <class CT, class MaskArg, class Accum, class SR, class AT, class UT>
MxvMethod vxm(Vector<CT>& w, const MaskArg& mask, const Accum& accum,
              const SR& sr, const Vector<UT>& u, const Matrix<AT>& a,
              const Descriptor& desc = desc_default) {
  Descriptor d = desc;
  d.transpose_a = !desc.transpose_a;
  // vxm's multiplier order is mul(u(k), A(k, j)); mxv computes
  // mul(A(j, k), u(k)). Flip the operand order to preserve semantics for
  // non-commutative multipliers (First/Second, Minus, Div, ...).
  using Flip = detail::FlippedMul<typename SR::mul_type>;
  Semiring<typename SR::add_type, Flip> flipped{sr.add, Flip{sr.mul}};
  return mxv(w, mask, accum, flipped, a, u, d);
}

}  // namespace gb
