// Operator fusion: single-pass combinations of the chained patterns the
// iterative drivers run every round — apply→reduce, ewise→apply→reduce,
// ewise→apply, reduce→apply, and mxv/vxm with an accumulate-into-fill
// epilogue and an against-previous-iterate residual reduction committed
// straight out of the product.
//
// The GraphBLAS execution model explicitly permits this: non-blocking mode
// (§II-C) lets the runtime fuse chained operations instead of materialising
// every intermediate, and GraphBLAST demonstrates that fusion is one of the
// two optimisations that matter most for linear-algebra graph frameworks.
// Our drivers otherwise pay the blocking-mode tax — one PageRank iteration
// is six kernel launches with four committed intermediate vectors.
//
// Contract: every fused entry point computes a result BIT-IDENTICAL to its
// unfused blocking-mode composition, at any thread count and under any
// storage form. The fused kernels therefore replicate the composition's
// exact traversal and fold orders:
//   * vector reductions fold serially in ascending index order, identity-
//     seeded, terminal-tested after each combine — exactly
//     reduce_scalar(Vector);
//   * matrix entry streams fold through detail::reduce_entry_stream, the
//     same fixed-8192-entry-chunk combining tree reduce_scalar(Matrix)
//     uses (including the forced_chunks test hook);
//   * the mxv epilogues run the very same traversal kernels via
//     detail::mxv_sparse_t / mxv_pick_method, then commit through the same
//     value-cast chain write_back's accumulator branch applies.
//
// Every entry point falls back to its unfused composition when fusion is
// off — the LAGRAPH_NO_FUSION environment variable (process-wide) or
// Descriptor::no_fusion (per call). Drivers call the fused names
// unconditionally; the toggle keeps the equivalence testable forever.
#pragma once

#include <cstdlib>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "graphblas/apply.hpp"
#include "graphblas/ewise.hpp"
#include "platform/env.hpp"
#include "graphblas/mxv.hpp"
#include "graphblas/reduce.hpp"

namespace gb {

/// Process-wide fusion switch, read once: fusion is on unless
/// LAGRAPH_NO_FUSION is set to a non-empty value other than "0". The parse
/// goes through platform::EnvOnce (std::call_once) so concurrent first calls
/// from two client threads cannot race the initialisation.
[[nodiscard]] inline bool fusion_env_enabled() noexcept {
  static platform::EnvOnce<bool> off{"LAGRAPH_NO_FUSION", platform::env_parse_flag};
  return !off.get();
}

/// Effective fusion switch for one call: the environment default, vetoed by
/// the descriptor.
[[nodiscard]] inline bool fusion_enabled(const Descriptor& desc) noexcept {
  return !desc.no_fusion && fusion_env_enabled();
}

namespace detail {

template <class T>
struct is_gb_vector : std::false_type {};
template <class T>
struct is_gb_vector<Vector<T>> : std::true_type {};

/// A mask argument a fused vector kernel accepts: GrB_NULL or a vector.
template <class MA>
concept VectorMaskArg = std::is_same_v<std::decay_t<MA>, NoMask> ||
                        is_gb_vector<std::decay_t<MA>>::value;

/// One-pass ewise(+post)+reduce over two vectors. Union selects pattern
/// union (eWiseAdd) vs intersection (eWiseMult). The fold is serial in
/// ascending index order — the order reduce_scalar(Vector) folds the
/// committed intermediate in the unfused composition — so the result is
/// bit-identical to ewise → apply(post) → reduce_scalar by construction.
template <bool Union, class M, class Post, class Op, class UT, class VT>
[[nodiscard]] typename M::value_type fused_ewise_reduce_vec(
    const M& monoid, Post post, Op op, const Vector<UT>& u,
    const Vector<VT>& v) {
  using RT = typename M::value_type;
  using ZZ = std::decay_t<decltype(op(std::declval<UT>(), std::declval<VT>()))>;
  RT acc = monoid.identity;
  if (u.is_dense_rep() && v.is_dense_rep()) {
    const Index n = u.size();
    auto ud = u.dense_values();
    auto vd = v.dense_values();
    const bool uf = u.is_full_rep();
    const bool vf = v.is_full_rep();
    std::span<const std::uint8_t> up;
    std::span<const std::uint8_t> vp;
    if (!uf) up = u.present();
    if (!vf) vp = v.present();
    for (Index i = 0; i < n; ++i) {
      if ((i & 1023) == 0) platform::governor_poll();
      const bool a = uf || up[i];
      const bool b = vf || vp[i];
      ZZ z;
      if (a && b) {
        z = static_cast<ZZ>(op(static_cast<UT>(ud[i]), static_cast<VT>(vd[i])));
      } else if (Union && a) {
        z = static_cast<ZZ>(static_cast<UT>(ud[i]));
      } else if (Union && b) {
        z = static_cast<ZZ>(static_cast<VT>(vd[i]));
      } else {
        continue;
      }
      // The unfused composition stores z in the intermediate (domain RT)
      // before post sees it; replicate that cast.
      const storage_t<RT> mid = static_cast<RT>(z);
      acc = monoid(acc, static_cast<RT>(post(mid)));
      if (monoid.is_terminal(acc)) break;
    }
  } else {
    auto ui = u.indices();
    auto uv = u.values();
    auto vi = v.indices();
    auto vv = v.values();
    std::size_t a = 0, b = 0;
    while (a < ui.size() || b < vi.size()) {
      if (((a + b) & 1023) == 0) platform::governor_poll();
      ZZ z;
      if (b >= vi.size() || (a < ui.size() && ui[a] < vi[b])) {
        if constexpr (!Union) {
          ++a;
          continue;
        }
        z = static_cast<ZZ>(uv[a]);
        ++a;
      } else if (a >= ui.size() || vi[b] < ui[a]) {
        if constexpr (!Union) {
          ++b;
          continue;
        }
        z = static_cast<ZZ>(vv[b]);
        ++b;
      } else {
        z = static_cast<ZZ>(op(uv[a], vv[b]));
        ++a;
        ++b;
      }
      const storage_t<RT> mid = static_cast<RT>(z);
      acc = monoid(acc, static_cast<RT>(post(mid)));
      if (monoid.is_terminal(acc)) break;
    }
  }
  return acc;
}

// Workspace call-site tag for the fused matrix ewise+reduce value stream.
struct ws_fused_mat_vals;

}  // namespace detail

// ---------------------------------------------------------------------------
// apply + reduce
// ---------------------------------------------------------------------------

/// ⊕ f(u(i)) over the entries of u that pass the mask — one pass, no output
/// vector. Equivalent composition: apply a fresh w<mask,desc> = f(u), then
/// reduce_scalar(monoid, w). (With a mask, the equivalence assumes the
/// composition's target starts empty or desc.replace is set — the only
/// shapes the drivers use.)
template <class M, class F, class UT, detail::VectorMaskArg MaskArg>
[[nodiscard]] typename M::value_type fused_apply_reduce(
    const M& monoid, F f, const Vector<UT>& u, const MaskArg& mask,
    const Descriptor& desc = desc_default) {
  using ZT = typename M::value_type;
  if (!fusion_enabled(desc)) {
    Vector<ZT> t(u.size());
    apply(t, mask, no_accum, f, u, desc);
    return reduce_scalar(monoid, t);
  }
  VectorMaskCursor<MaskArg> allowed(mask, desc);  // tested in index order
  ZT acc = monoid.identity;
  if (u.is_dense_rep()) {
    const bool u_full = u.is_full_rep();
    std::span<const std::uint8_t> present;
    if (!u_full) present = u.present();
    auto values = u.dense_values();
    for (Index i = 0; i < u.size(); ++i) {
      if ((i & 1023) == 0) platform::governor_poll();
      if (!u_full && !present[i]) continue;
      if (!allowed.test(i)) continue;
      const storage_t<ZT> mid = static_cast<ZT>(f(values[i]));
      acc = monoid(acc, static_cast<ZT>(mid));
      if (monoid.is_terminal(acc)) break;
    }
  } else {
    auto idx = u.indices();
    auto val = u.values();
    for (std::size_t k = 0; k < val.size(); ++k) {
      if ((k & 1023) == 0) platform::governor_poll();
      if (!allowed.test(idx[k])) continue;
      const storage_t<ZT> mid = static_cast<ZT>(f(val[k]));
      acc = monoid(acc, static_cast<ZT>(mid));
      if (monoid.is_terminal(acc)) break;
    }
  }
  return acc;
}

/// Unmasked convenience form.
template <class M, class F, class UT>
[[nodiscard]] typename M::value_type fused_apply_reduce(
    const M& monoid, F f, const Vector<UT>& u,
    const Descriptor& desc = desc_default) {
  return fused_apply_reduce(monoid, f, u, no_mask, desc);
}

// ---------------------------------------------------------------------------
// ewise + apply + reduce
// ---------------------------------------------------------------------------

/// ⊕ post(op-union(u, v)) — kills the `next − rank → abs → sum` residual
/// pattern. Equivalent composition: t = ewise_add(op, u, v); apply(post, t);
/// reduce_scalar(monoid, t).
template <class M, class Post, class Op, class UT, class VT>
[[nodiscard]] typename M::value_type fused_ewise_add_reduce(
    const M& monoid, Post post, Op op, const Vector<UT>& u,
    const Vector<VT>& v, const Descriptor& desc = desc_default) {
  check_dims(u.size() == v.size(), "fused_ewise_add_reduce: sizes");
  using RT = typename M::value_type;
  if (!fusion_enabled(desc)) {
    Vector<RT> t(u.size());
    ewise_add(t, no_mask, no_accum, op, u, v);
    apply(t, no_mask, no_accum, post, t);
    return reduce_scalar(monoid, t);
  }
  return detail::fused_ewise_reduce_vec<true>(monoid, post, op, u, v);
}

/// ⊕ post(op-intersection(u, v)).
template <class M, class Post, class Op, class UT, class VT>
[[nodiscard]] typename M::value_type fused_ewise_mult_reduce(
    const M& monoid, Post post, Op op, const Vector<UT>& u,
    const Vector<VT>& v, const Descriptor& desc = desc_default) {
  check_dims(u.size() == v.size(), "fused_ewise_mult_reduce: sizes");
  using RT = typename M::value_type;
  if (!fusion_enabled(desc)) {
    Vector<RT> t(u.size());
    ewise_mult(t, no_mask, no_accum, op, u, v);
    apply(t, no_mask, no_accum, post, t);
    return reduce_scalar(monoid, t);
  }
  return detail::fused_ewise_reduce_vec<false>(monoid, post, op, u, v);
}

/// Matrix form: ⊕ post(op-union(A, B)) without committing the difference
/// matrix (MCL's L1 distance between successive iterates). The merged value
/// stream is collected in row-major entry order — the order the unfused
/// intermediate's by_row() store holds — then folded through the same
/// fixed-chunk combining tree reduce_scalar(Matrix) uses.
template <class M, class Post, class Op, class AT, class BT>
[[nodiscard]] typename M::value_type fused_ewise_add_reduce(
    const M& monoid, Post post, Op op, const Matrix<AT>& a,
    const Matrix<BT>& b, const Descriptor& desc = desc_default) {
  check_dims(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
             "fused_ewise_add_reduce: shapes");
  using RT = typename M::value_type;
  if (!fusion_enabled(desc)) {
    Matrix<RT> t(a.nrows(), a.ncols());
    ewise_add(t, no_mask, no_accum, op, a, b);
    apply(t, no_mask, no_accum, post, t);
    return reduce_scalar(monoid, t);
  }
  using ZZ = std::decay_t<decltype(op(std::declval<AT>(), std::declval<BT>()))>;
  const auto& as = a.by_row();
  const auto& bs = b.by_row();
  auto vals_h =
      platform::Workspace::checkout<detail::ws_fused_mat_vals, storage_t<RT>>();
  auto& vals = *vals_h;
  vals.reserve(as.nnz() + bs.nnz());
  auto push = [&](ZZ z) {
    const storage_t<RT> mid = static_cast<RT>(z);
    vals.push_back(static_cast<RT>(post(mid)));
  };
  Index ka = 0, kb = 0;  // stored-vector cursors
  while (ka < as.nvec() || kb < bs.nvec()) {
    platform::governor_poll();
    const Index ra = ka < as.nvec() ? as.vec_id(ka) : all_indices;
    const Index rb = kb < bs.nvec() ? bs.vec_id(kb) : all_indices;
    const Index r = ra < rb ? ra : rb;
    Index aa = 0, ae = 0, ba = 0, be = 0;
    if (ra == r) {
      aa = as.vec_begin(ka);
      ae = as.vec_end(ka);
      ++ka;
    }
    if (rb == r) {
      ba = bs.vec_begin(kb);
      be = bs.vec_end(kb);
      ++kb;
    }
    while (aa < ae || ba < be) {
      if (ba >= be || (aa < ae && as.i[aa] < bs.i[ba])) {
        push(static_cast<ZZ>(as.x[aa]));
        ++aa;
      } else if (aa >= ae || bs.i[ba] < as.i[aa]) {
        push(static_cast<ZZ>(bs.x[ba]));
        ++ba;
      } else {
        push(static_cast<ZZ>(op(as.x[aa], bs.x[ba])));
        ++aa;
        ++ba;
      }
    }
  }
  return detail::reduce_entry_stream(monoid, vals);
}

// ---------------------------------------------------------------------------
// ewise + apply
// ---------------------------------------------------------------------------

/// w = post(op-intersection(u, v)) in one pass (PageRank's
/// `damping · rank ./ outdeg`). Equivalent composition:
/// ewise_mult(w, op, u, v); apply(w, post, w).
template <class CT, class Op, class Post, class UT, class VT>
void fused_ewise_mult_apply(Vector<CT>& w, Op op, Post post,
                            const Vector<UT>& u, const Vector<VT>& v,
                            const Descriptor& desc = desc_default) {
  check_dims(w.size() == u.size() && u.size() == v.size(),
             "fused_ewise_mult_apply: sizes");
  if (!fusion_enabled(desc)) {
    ewise_mult(w, no_mask, no_accum, op, u, v);
    apply(w, no_mask, no_accum, post, w);
    return;
  }
  using ZZ = std::decay_t<decltype(op(std::declval<UT>(), std::declval<VT>()))>;
  if (detail::ewise_vec_dense_native(w, u, v)) {
    const Index n = w.size();
    auto ud = u.dense_values();
    auto vd = v.dense_values();
    const bool uf = u.is_full_rep();
    const bool vf = v.is_full_rep();
    std::span<const std::uint8_t> up;
    std::span<const std::uint8_t> vp;
    if (!uf) up = u.present();
    if (!vf) vp = v.present();
    Buf<storage_t<CT>> out(static_cast<std::size_t>(n), storage_t<CT>{});
    Buf<std::uint8_t> pres(static_cast<std::size_t>(n), 0);
    Index cnt = 0;
    for (Index i = 0; i < n; ++i) {
      if ((i & 1023) == 0) platform::governor_poll();
      if ((uf || up[i]) && (vf || vp[i])) {
        const storage_t<CT> mid = static_cast<CT>(static_cast<ZZ>(
            op(static_cast<UT>(ud[i]), static_cast<VT>(vd[i]))));
        out[i] = static_cast<CT>(post(mid));
        pres[i] = 1;
        ++cnt;
      }
    }
    w.commit_result_dense(std::move(out), std::move(pres), cnt);
    return;
  }
  auto ui = u.indices();
  auto uv = u.values();
  auto vi = v.indices();
  auto vv = v.values();
  Buf<Index> ti;
  Buf<storage_t<CT>> tv;
  std::size_t a = 0, b = 0;
  while (a < ui.size() && b < vi.size()) {
    if (((a + b) & 1023) == 0) platform::governor_poll();
    if (ui[a] < vi[b]) {
      ++a;
    } else if (vi[b] < ui[a]) {
      ++b;
    } else {
      const storage_t<CT> mid =
          static_cast<CT>(static_cast<ZZ>(op(uv[a], vv[b])));
      ti.push_back(ui[a]);
      tv.push_back(static_cast<CT>(post(mid)));
      ++a;
      ++b;
    }
  }
  w.commit_result(std::move(ti), std::move(tv));
}

// ---------------------------------------------------------------------------
// reduce + apply
// ---------------------------------------------------------------------------

/// w(i) = post(⊕_j op(A)(i, j)) — matrix row-reduce with the unary epilogue
/// applied as each row's fold commits (MCL's column-sum → reciprocal, GCN's
/// degree → 1/√d). Equivalent composition: reduce(w, monoid, A, desc);
/// apply(w, post, w). Mirrors reduce()'s dense-native and two-pass sparse
/// paths, so the fold order (left-to-right within each row) is untouched.
template <class CT, class M, class Post, class AT>
void fused_reduce_apply(Vector<CT>& w, const M& monoid, Post post,
                        const Matrix<AT>& a,
                        const Descriptor& desc = desc_default) {
  check_dims(w.size() == input_nrows(a, desc.transpose_a),
             "fused_reduce_apply: w/A shape");
  if (!fusion_enabled(desc)) {
    reduce(w, no_mask, no_accum, monoid, a, desc);
    apply(w, no_mask, no_accum, post, w);
    return;
  }
  using ZT = typename M::value_type;
  {
    const auto& rs = a.raw_store();
    const bool rows_major =
        (desc.transpose_a ? flip(a.layout()) : a.layout()) == Layout::by_row;
    if (rs.form != Format::sparse && rows_major &&
        dense_form_addressable(w.size(), 1)) {
      const Index n = w.size();
      const Index mdim = rs.mdim;
      Buf<storage_t<CT>> out(static_cast<std::size_t>(n), storage_t<CT>{});
      Buf<std::uint8_t> pres(static_cast<std::size_t>(n), 0);
      platform::parallel_for(static_cast<std::size_t>(n), [&](std::size_t k) {
        if ((k & 255) == 0) platform::governor_poll();
        const std::size_t base = k * static_cast<std::size_t>(mdim);
        bool seen = false;
        ZT acc{};
        for (Index j = 0; j < mdim; ++j) {
          const std::size_t slot = base + static_cast<std::size_t>(j);
          if (rs.form != Format::full && !rs.b[slot]) continue;
          if (!seen) {
            acc = static_cast<ZT>(rs.x[slot]);
            seen = true;
            continue;
          }
          if constexpr (always_terminal<M>) break;
          if (monoid.is_terminal(acc)) break;
          acc = monoid(acc, static_cast<ZT>(rs.x[slot]));
        }
        if (seen) {
          const storage_t<CT> red = static_cast<CT>(acc);
          out[k] = static_cast<CT>(post(red));
          pres[k] = 1;
        }
      });
      Index cnt = 0;
      for (Index i = 0; i < static_cast<Index>(w.size()); ++i) cnt += pres[i];
      w.commit_result_dense(std::move(out), std::move(pres), cnt);
      return;
    }
  }
  const auto& s = input_rows(a, desc.transpose_a);
  Buf<Index> ti;
  Buf<storage_t<CT>> tv;
  const std::size_t nv = static_cast<std::size_t>(s.nvec());
  if (nv == 0) {
    w.commit_result(std::move(ti), std::move(tv));
    return;
  }
  const std::span<const Index> costs(s.p.data(), nv + 1);
  auto counts_h =
      platform::Workspace::checkout<detail::ws_reduce_counts, Index>(nv + 1);
  auto& counts = *counts_h;
  for (std::size_t k = 0; k < nv; ++k) {
    counts[k] =
        s.vec_end(static_cast<Index>(k)) > s.vec_begin(static_cast<Index>(k))
            ? 1
            : 0;
  }
  const Index nout = platform::exclusive_scan(counts);
  ti.resize(static_cast<std::size_t>(nout));
  tv.resize(static_cast<std::size_t>(nout));
  platform::parallel_balanced_chunks(
      costs, [&](std::size_t, std::size_t klo, std::size_t khi) {
        for (std::size_t k = klo; k < khi; ++k) {
          if ((k & 255) == 0) platform::governor_poll();
          Index begin = s.vec_begin(static_cast<Index>(k));
          Index end = s.vec_end(static_cast<Index>(k));
          if (begin == end) continue;
          ZT acc = static_cast<ZT>(s.x[begin]);
          for (Index pos = begin + 1; pos < end; ++pos) {
            if constexpr (always_terminal<M>) break;
            if (monoid.is_terminal(acc)) break;
            acc = monoid(acc, static_cast<ZT>(s.x[pos]));
          }
          ti[counts[k]] = s.vec_id(static_cast<Index>(k));
          const storage_t<CT> red = static_cast<CT>(acc);
          tv[counts[k]] = static_cast<CT>(post(red));
        }
      });
  w.commit_result(std::move(ti), std::move(tv));
}

// ---------------------------------------------------------------------------
// mxv / vxm epilogues
// ---------------------------------------------------------------------------

/// w = accum(fill, op(A) ⊕.⊗ u) at every position: positions the product
/// reaches hold accum(fill, t(i)), the rest hold fill — a fully-dense
/// result committed straight off the kernel accumulator. Equivalent
/// composition: w = Vector::full(fill); mxv(w, no_mask, accum, sr, A, u),
/// without the n-entry union merge against the fill vector.
template <class CT, class Accum, class SR, class AT, class UT>
void mxv_fill_accum(Vector<CT>& w, const Accum& accum, const SR& sr,
                    const Matrix<AT>& a, const Vector<UT>& u, const CT& fill,
                    const Descriptor& desc = desc_default) {
  const Index out_dim = input_nrows(a, desc.transpose_a);
  const Index in_dim = input_ncols(a, desc.transpose_a);
  check_dims(w.size() == out_dim && u.size() == in_dim,
             "mxv_fill_accum: shapes");
  if (!fusion_enabled(desc)) {
    w = Vector<CT>::full(out_dim, fill);
    mxv(w, no_mask, accum, sr, a, u, desc);
    return;
  }
  using ZT = typename SR::value_type;
  VectorMaskProbe<NoMask> probe(no_mask, out_dim, desc);
  const MxvMethod method = detail::mxv_pick_method(u, desc);
  Buf<Index> ti;
  Buf<ZT> tv;
  detail::mxv_sparse_t(a, u, sr, probe, method, desc, out_dim, ti, tv);
  const storage_t<CT> fillv = static_cast<CT>(fill);
  Buf<storage_t<CT>> out(static_cast<std::size_t>(out_dim), fillv);
  for (std::size_t k = 0; k < ti.size(); ++k) {
    if ((k & 1023) == 0) platform::governor_poll();
    out[ti[k]] = static_cast<CT>(accum(fillv, tv[k]));
  }
  Buf<std::uint8_t> pres(static_cast<std::size_t>(out_dim), 1);
  w.commit_result_dense(std::move(out), std::move(pres), out_dim);
}

/// mxv_fill_accum plus a fused residual: returns
/// ⊕_r runary(rbinary(w_new(i), prev(i))) over the union pattern — the
/// `|next − rank| → sum` L1 residual folded out of the epilogue instead of
/// committing a difference vector. Equivalent composition: mxv_fill_accum,
/// then d = ewise_add(rbinary, w, prev); apply(runary, d);
/// reduce_scalar(rmonoid, d).
template <class CT, class Accum, class SR, class AT, class UT, class RM,
          class RUnary, class RBinary, class PT>
[[nodiscard]] typename RM::value_type mxv_fill_accum_residual(
    Vector<CT>& w, const Accum& accum, const SR& sr, const Matrix<AT>& a,
    const Vector<UT>& u, const CT& fill, const RM& rmonoid, RUnary runary,
    RBinary rbinary, const Vector<PT>& prev,
    const Descriptor& desc = desc_default) {
  const Index out_dim = input_nrows(a, desc.transpose_a);
  const Index in_dim = input_ncols(a, desc.transpose_a);
  check_dims(w.size() == out_dim && u.size() == in_dim &&
                 prev.size() == out_dim,
             "mxv_fill_accum_residual: shapes");
  using RT = typename RM::value_type;
  if (!fusion_enabled(desc)) {
    w = Vector<CT>::full(out_dim, fill);
    mxv(w, no_mask, accum, sr, a, u, desc);
    Vector<RT> d(out_dim);
    ewise_add(d, no_mask, no_accum, rbinary, w, prev);
    apply(d, no_mask, no_accum, runary, d);
    return reduce_scalar(rmonoid, d);
  }
  using ZT = typename SR::value_type;
  VectorMaskProbe<NoMask> probe(no_mask, out_dim, desc);
  const MxvMethod method = detail::mxv_pick_method(u, desc);
  Buf<Index> ti;
  Buf<ZT> tv;
  detail::mxv_sparse_t(a, u, sr, probe, method, desc, out_dim, ti, tv);
  const storage_t<CT> fillv = static_cast<CT>(fill);
  Buf<storage_t<CT>> out(static_cast<std::size_t>(out_dim), fillv);
  for (std::size_t k = 0; k < ti.size(); ++k) {
    if ((k & 1023) == 0) platform::governor_poll();
    out[ti[k]] = static_cast<CT>(accum(fillv, tv[k]));
  }
  // Residual fold against the previous iterate, serial in ascending index
  // order — exactly how reduce_scalar(Vector) folds the committed diff in
  // the unfused composition. w_new is full, so the union pattern is [0, n).
  // All scratch first: a governor trip during the fold leaves w untouched.
  using ZZ = std::decay_t<decltype(rbinary(std::declval<CT>(),
                                           std::declval<PT>()))>;
  RT racc = rmonoid.identity;
  auto pd = prev.dense_values();
  const bool pf = prev.is_full_rep();
  std::span<const std::uint8_t> pp;
  if (!pf) pp = prev.present();
  for (Index i = 0; i < out_dim; ++i) {
    if ((i & 1023) == 0) platform::governor_poll();
    const ZZ z = (pf || pp[i])
                     ? static_cast<ZZ>(rbinary(static_cast<CT>(out[i]),
                                               static_cast<PT>(pd[i])))
                     : static_cast<ZZ>(static_cast<CT>(out[i]));
    const storage_t<RT> mid = static_cast<RT>(z);
    racc = rmonoid(racc, static_cast<RT>(runary(mid)));
    if (rmonoid.is_terminal(racc)) break;
  }
  Buf<std::uint8_t> pres(static_cast<std::size_t>(out_dim), 1);
  w.commit_result_dense(std::move(out), std::move(pres), out_dim);
  return racc;
}

/// w accum= op(A) ⊕.⊗ u (unmasked), reporting whether w changed — the
/// Bellman-Ford relaxation step with the convergence test fused into the
/// write-back instead of a post-hoc isequal sweep. Equivalent composition:
/// before = w; mxv(w, no_mask, accum, sr, A, u); changed = (w != before).
template <class CT, class Accum, class SR, class AT, class UT>
[[nodiscard]] bool mxv_accum_changed(Vector<CT>& w, const Accum& accum,
                                     const SR& sr, const Matrix<AT>& a,
                                     const Vector<UT>& u,
                                     const Descriptor& desc = desc_default) {
  const Index out_dim = input_nrows(a, desc.transpose_a);
  const Index in_dim = input_ncols(a, desc.transpose_a);
  check_dims(w.size() == out_dim && u.size() == in_dim,
             "mxv_accum_changed: shapes");
  if (!fusion_enabled(desc)) {
    const auto before = detail::read_content(w);
    mxv(w, no_mask, accum, sr, a, u, desc);
    const auto after = detail::read_content(w);
    if (before.i.size() != after.i.size()) return true;
    for (std::size_t k = 0; k < before.i.size(); ++k) {
      if (before.i[k] != after.i[k] || before.v[k] != after.v[k]) return true;
    }
    return false;
  }
  using ZT = typename SR::value_type;
  VectorMaskProbe<NoMask> probe(no_mask, out_dim, desc);
  const MxvMethod method = detail::mxv_pick_method(u, desc);
  Buf<Index> ti;
  Buf<ZT> tv;
  detail::mxv_sparse_t(a, u, sr, probe, method, desc, out_dim, ti, tv);
  return write_back_accum_changed(w, accum, std::move(ti), std::move(tv));
}

/// vxm variants of the epilogue entries — identical to the mxv forms with
/// op(A) transposed and the multiplier operand order flipped, exactly as
/// vxm() itself lowers onto mxv().
template <class CT, class Accum, class SR, class UT, class AT>
void vxm_fill_accum(Vector<CT>& w, const Accum& accum, const SR& sr,
                    const Vector<UT>& u, const Matrix<AT>& a, const CT& fill,
                    const Descriptor& desc = desc_default) {
  Descriptor d = desc;
  d.transpose_a = !desc.transpose_a;
  using Flip = detail::FlippedMul<typename SR::mul_type>;
  Semiring<typename SR::add_type, Flip> flipped{sr.add, Flip{sr.mul}};
  mxv_fill_accum(w, accum, flipped, a, u, fill, d);
}

template <class CT, class Accum, class SR, class UT, class AT, class RM,
          class RUnary, class RBinary, class PT>
[[nodiscard]] typename RM::value_type vxm_fill_accum_residual(
    Vector<CT>& w, const Accum& accum, const SR& sr, const Vector<UT>& u,
    const Matrix<AT>& a, const CT& fill, const RM& rmonoid, RUnary runary,
    RBinary rbinary, const Vector<PT>& prev,
    const Descriptor& desc = desc_default) {
  Descriptor d = desc;
  d.transpose_a = !desc.transpose_a;
  using Flip = detail::FlippedMul<typename SR::mul_type>;
  Semiring<typename SR::add_type, Flip> flipped{sr.add, Flip{sr.mul}};
  return mxv_fill_accum_residual(w, accum, flipped, a, u, fill, rmonoid,
                                 runary, rbinary, prev, d);
}

template <class CT, class Accum, class SR, class UT, class AT>
[[nodiscard]] bool vxm_accum_changed(Vector<CT>& w, const Accum& accum,
                                     const SR& sr, const Vector<UT>& u,
                                     const Matrix<AT>& a,
                                     const Descriptor& desc = desc_default) {
  Descriptor d = desc;
  d.transpose_a = !desc.transpose_a;
  using Flip = detail::FlippedMul<typename SR::mul_type>;
  Semiring<typename SR::add_type, Flip> flipped{sr.add, Flip{sr.mul}};
  return mxv_accum_changed(w, accum, flipped, a, u, d);
}

}  // namespace gb
