// GrB_assign: C(I,J)<M> accum= A, w(I)<m> accum= u, and the scalar-expansion
// variants — Table I "assign".
//
// Semantics follow the C API: the accumulator applies *inside* the assigned
// region (entries of C(I,J) absent from A are deleted when there is no
// accumulator, kept when there is one); the mask and replace flag then apply
// over the WHOLE of C. We build the full-shape intermediate T ("C with the
// region assigned") and reuse the shared write-back with no accumulator,
// which implements exactly that rule.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>

#include "graphblas/mask_accum.hpp"
#include "graphblas/store_utils.hpp"
#include "platform/governor.hpp"
#include "platform/workspace.hpp"

namespace gb {

namespace detail {

// Workspace call-site tags for the assign kernels.
struct ws_assign_rpos;
struct ws_assign_affected;
struct ws_assign_rcols;
struct ws_assign_rowbuf;
struct ws_assign_arow;
struct ws_assign_uniq;

/// Region description for a vector assign: position -> (has_value, value).
/// Later duplicate indices in I win.
template <class UT>
struct VecRegion {
  Buf<Index> pos;                        // sorted affected positions
  Buf<std::optional<UT>> val;            // parallel to pos
};

template <class UT>
VecRegion<UT> make_vec_region(const IndexSel& isel, Index wsize,
                              const Vector<UT>* u) {
  BufMap<Index, std::optional<UT>> m;
  m.reserve(isel.size());
  for (Index k = 0; k < isel.size(); ++k) {
    Index i = isel[k];
    check_index(i < wsize, "assign: index out of range");
    std::optional<UT> v;
    if (u) v = u->extract_element(k);
    m[i] = v;
  }
  VecRegion<UT> r;
  r.pos.reserve(m.size());
  for (const auto& [i, _] : m) r.pos.push_back(i);
  std::sort(r.pos.begin(), r.pos.end());
  r.val.reserve(r.pos.size());
  for (Index i : r.pos) r.val.push_back(m[i]);
  return r;
}

}  // namespace detail

/// w(I)<m> accum= u. u.size() must equal |I|.
template <class CT, class MaskArg, class Accum, class UT>
void assign(Vector<CT>& w, const MaskArg& mask, const Accum& accum,
            const Vector<UT>& u, const IndexSel& isel,
            const Descriptor& desc = desc_default) {
  check_dims(u.size() == isel.size(), "assign: u size vs index list");
  auto region = detail::make_vec_region<UT>(isel, w.size(), &u);

  const auto wc = detail::read_content(w);
  const auto& wi = wc.i;
  const auto& wv = wc.v;
  Buf<Index> ti;
  Buf<CT> tv;
  ti.reserve(wi.size() + region.pos.size());
  tv.reserve(wi.size() + region.pos.size());
  std::size_t a = 0, b = 0;
  while (a < wi.size() || b < region.pos.size()) {
    if (((a + b) & 1023) == 0) platform::governor_poll();
    bool in_w = false, in_r = false;
    Index i;
    if (b >= region.pos.size() || (a < wi.size() && wi[a] < region.pos[b])) {
      i = wi[a];
      in_w = true;
    } else if (a >= wi.size() || region.pos[b] < wi[a]) {
      i = region.pos[b];
      in_r = true;
    } else {
      i = wi[a];
      in_w = in_r = true;
    }
    if (!in_r) {
      ti.push_back(i);  // outside the region: unchanged
      tv.push_back(wv[a]);
    } else {
      const auto& uval = region.val[b];
      if (uval.has_value()) {
        CT z;
        if constexpr (is_accum<Accum>) {
          z = in_w ? static_cast<CT>(accum(wv[a], *uval))
                   : static_cast<CT>(*uval);
        } else {
          z = static_cast<CT>(*uval);
        }
        ti.push_back(i);
        tv.push_back(z);
      } else if (in_w) {
        // u has no entry here: delete without accum, keep with accum.
        if constexpr (is_accum<Accum>) {
          ti.push_back(i);
          tv.push_back(wv[a]);
        }
      }
    }
    if (in_w) ++a;
    if (in_r) ++b;
  }
  write_back(w, mask, no_accum, std::move(ti), std::move(tv), desc);
}

/// w(I)<m> accum= s (scalar expansion): every position in I receives s.
template <class CT, class MaskArg, class Accum, class S>
void assign_scalar(Vector<CT>& w, const MaskArg& mask, const Accum& accum,
                   const S& s, const IndexSel& isel,
                   const Descriptor& desc = desc_default) {
  // Full-native path: w(GrB_ALL) = s with no mask and no accumulator makes
  // every position present with the same value — exactly the full form. The
  // value array is built before w is touched (strong guarantee) and
  // commit_result_dense applies the storage-form policy (a forced-sparse
  // vector still compacts to index/value arrays).
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    if (isel.is_all() && dense_form_addressable(w.size(), 1)) {
      const Index n = w.size();
      Buf<storage_t<CT>> vals(static_cast<std::size_t>(n),
                              static_cast<CT>(s));
      Buf<std::uint8_t> pres(static_cast<std::size_t>(n), 1);
      w.commit_result_dense(std::move(vals), std::move(pres), n);
      return;
    }
  }
  // Masked whole-vector expansion (Fig. 2's level record, w<m> = s): the
  // result is w with s written (accum'd) where the mask allows, so a plain
  // mask needs only the mask's allowed positions. A bitmap or full w takes
  // them in place; otherwise one merge of w with those positions builds the
  // result — no n-entry region list, no second pass through write_back.
  if constexpr (is_masked<MaskArg>) {
    if (isel.is_all() && !desc.mask_complement) {
      check_dims(mask.size() == w.size(), "assign_scalar: mask size");
      const detail::VectorMaskArrays<MaskArg> m(mask, desc);
      auto z_at = [&](bool in_w, const storage_t<CT>& old) -> CT {
        if constexpr (is_accum<Accum>) {
          if (in_w) return static_cast<CT>(accum(old, s));
        } else {
          (void)in_w;
          (void)old;
        }
        return static_cast<CT>(s);
      };
      Buf<Index> ti;
      Buf<storage_t<CT>> tv;
      if (detail::stores_in_place(w, mask, desc)) {
        const auto wv = w.dense_values();
        const bool w_full = w.is_full_rep();
        std::span<const std::uint8_t> wp;
        if (!w_full) wp = w.present();
        detail::for_each_allowed(m, [&](Index i) {
          ti.push_back(i);
          tv.push_back(z_at(w_full || wp[i], wv[i]));
        });
        w.store_dense(ti, tv, {});
        return;
      }
      const auto wc = detail::read_content(w);
      const auto& wi = wc.i;
      const auto& wv = wc.v;
      ti.reserve(wi.size());
      tv.reserve(wi.size());
      std::size_t a = 0;
      auto keep_until = [&](Index end) {
        for (; a < wi.size() && wi[a] < end; ++a) {
          if ((a & 1023) == 0) platform::governor_poll();
          if (!desc.replace) {  // outside the mask
            ti.push_back(wi[a]);
            tv.push_back(wv[a]);
          }
        }
      };
      detail::for_each_allowed(m, [&](Index i) {
        keep_until(i);
        const bool in_w = a < wi.size() && wi[a] == i;
        ti.push_back(i);
        tv.push_back(z_at(in_w, in_w ? wv[a] : storage_t<CT>{}));
        if (in_w) ++a;
      });
      keep_until(all_indices);
      w.commit_result(std::move(ti), std::move(tv));
      return;
    }
  }
  const auto wc = detail::read_content(w);
  const auto& wi = wc.i;
  const auto& wv = wc.v;
  auto rpos_h =
      platform::Workspace::checkout<detail::ws_assign_rpos, Index>();
  auto& rpos = *rpos_h;
  if (isel.is_all()) {
    rpos.resize(w.size());
    for (Index i = 0; i < w.size(); ++i) rpos[i] = i;
  } else {
    rpos.reserve(isel.size());
    for (Index k = 0; k < isel.size(); ++k) {
      check_index(isel[k] < w.size(), "assign_scalar: index");
      rpos.push_back(isel[k]);
    }
    std::sort(rpos.begin(), rpos.end());
    rpos.erase(std::unique(rpos.begin(), rpos.end()), rpos.end());
  }
  Buf<Index> ti;
  Buf<CT> tv;
  ti.reserve(wi.size() + rpos.size());
  tv.reserve(wi.size() + rpos.size());
  std::size_t a = 0, b = 0;
  while (a < wi.size() || b < rpos.size()) {
    if (((a + b) & 1023) == 0) platform::governor_poll();
    bool in_w = false, in_r = false;
    Index i;
    if (b >= rpos.size() || (a < wi.size() && wi[a] < rpos[b])) {
      i = wi[a];
      in_w = true;
    } else if (a >= wi.size() || rpos[b] < wi[a]) {
      i = rpos[b];
      in_r = true;
    } else {
      i = wi[a];
      in_w = in_r = true;
    }
    if (!in_r) {
      ti.push_back(i);
      tv.push_back(wv[a]);
    } else {
      CT z;
      if constexpr (is_accum<Accum>) {
        z = in_w ? static_cast<CT>(accum(wv[a], s)) : static_cast<CT>(s);
      } else {
        z = static_cast<CT>(s);
      }
      ti.push_back(i);
      tv.push_back(z);
    }
    if (in_w) ++a;
    if (in_r) ++b;
  }
  write_back(w, mask, no_accum, std::move(ti), std::move(tv), desc);
}

/// C(I,J)<M> accum= A. A must be |I|-by-|J|.
template <class CT, class MaskArg, class Accum, class AT>
void assign(Matrix<CT>& c, const MaskArg& mask, const Accum& accum,
            const Matrix<AT>& a, const IndexSel& isel, const IndexSel& jsel,
            const Descriptor& desc = desc_default) {
  check_dims(a.nrows() == isel.size() && a.ncols() == jsel.size(),
             "assign: A shape vs index lists");
  const auto& cs = c.by_row();
  const auto& as = a.by_row();

  // row -> source row k in A (later duplicates in I win).
  BufMap<Index, Index> rowmap;
  rowmap.reserve(isel.size());
  for (Index k = 0; k < isel.size(); ++k) {
    check_index(isel[k] < c.nrows(), "assign: I out of range");
    rowmap[isel[k]] = k;
  }
  auto affected_h =
      platform::Workspace::checkout<detail::ws_assign_affected, Index>();
  auto& affected = *affected_h;
  affected.reserve(rowmap.size());
  for (const auto& [r, _] : rowmap) affected.push_back(r);
  std::sort(affected.begin(), affected.end());

  // column -> source column l in A (later duplicates in J win); and the
  // sorted list of region columns.
  BufMap<Index, Index> colmap;
  auto rcols_h =
      platform::Workspace::checkout<detail::ws_assign_rcols, Index>();
  auto& rcols = *rcols_h;
  if (jsel.is_all()) {
    check_dims(jsel.size() == c.ncols(), "assign: J=ALL shape");
  } else {
    colmap.reserve(jsel.size());
    for (Index l = 0; l < jsel.size(); ++l) {
      check_index(jsel[l] < c.ncols(), "assign: J out of range");
      colmap[jsel[l]] = l;
    }
    rcols.reserve(colmap.size());
    for (const auto& [j, _] : colmap) rcols.push_back(j);
    std::sort(rcols.begin(), rcols.end());
  }

  SparseStore<CT> t(c.nrows());
  t.hyper = true;
  t.p.assign(1, 0);

  auto rowbuf_h = platform::Workspace::checkout<detail::ws_assign_rowbuf,
                                                std::pair<Index, CT>>();
  auto arow_h = platform::Workspace::checkout<detail::ws_assign_arow,
                                              std::pair<Index, AT>>();
  auto uniq_h = platform::Workspace::checkout<detail::ws_assign_uniq,
                                              std::pair<Index, AT>>();
  auto& rowbuf = *rowbuf_h;
  auto& arow = *arow_h;
  auto& uniq = *uniq_h;
  Index kc = 0;          // cursor over C's stored vectors
  std::size_t kr = 0;    // cursor over affected rows
  while (kc < cs.nvec() || kr < affected.size()) {
    platform::governor_poll();
    Index rc = kc < cs.nvec() ? cs.vec_id(kc) : all_indices;
    Index rr = kr < affected.size() ? affected[kr] : all_indices;
    Index r = rc < rr ? rc : rr;
    Index ca = 0, ce = 0;
    bool is_affected = false;
    if (rc == r) {
      ca = cs.vec_begin(kc);
      ce = cs.vec_end(kc);
      ++kc;
    }
    if (rr == r) {
      is_affected = true;
      ++kr;
    }

    rowbuf.clear();
    if (!is_affected) {
      for (Index pos = ca; pos < ce; ++pos)
        rowbuf.emplace_back(cs.i[pos], cs.x[pos]);
    } else {
      Index k = rowmap.at(r);
      // Gather A row k as (region column, value), sorted by region column.
      arow.clear();
      if (auto av = as.find_vec(k)) {
        for (Index pos = as.vec_begin(*av); pos < as.vec_end(*av); ++pos) {
          Index j = jsel.is_all() ? as.i[pos] : jsel[as.i[pos]];
          arow.emplace_back(j, as.x[pos]);
        }
        if (!jsel.is_all()) {
          std::sort(arow.begin(), arow.end(), [](const auto& x, const auto& y) {
            return x.first < y.first;
          });
          // Duplicate region columns (J repeats): keep the one whose source
          // column wins the colmap. Rare; drop all but the mapped winner.
          uniq.clear();
          for (const auto& [j, v] : arow) {
            if (!uniq.empty() && uniq.back().first == j) {
              uniq.back().second = v;
            } else {
              uniq.emplace_back(j, v);
            }
          }
          std::swap(arow, uniq);
        }
      }
      // Merge C row with region: columns in the region take A's value
      // (accum'd); region columns absent from A delete (no accum) or keep
      // (accum); columns outside the region are unchanged.
      auto in_region = [&](Index j) {
        return jsel.is_all() || colmap.count(j) > 0;
      };
      Index pos = ca;
      std::size_t ap = 0;
      while (pos < ce || ap < arow.size()) {
        bool in_c = false, in_a = false;
        Index j;
        if (ap >= arow.size() || (pos < ce && cs.i[pos] < arow[ap].first)) {
          j = cs.i[pos];
          in_c = true;
        } else if (pos >= ce || arow[ap].first < cs.i[pos]) {
          j = arow[ap].first;
          in_a = true;
        } else {
          j = cs.i[pos];
          in_c = in_a = true;
        }
        if (in_a) {
          CT z;
          if constexpr (is_accum<Accum>) {
            z = in_c ? static_cast<CT>(accum(cs.x[pos], arow[ap].second))
                     : static_cast<CT>(arow[ap].second);
          } else {
            z = static_cast<CT>(arow[ap].second);
          }
          rowbuf.emplace_back(j, z);
        } else if (in_c) {
          if (!in_region(j)) {
            rowbuf.emplace_back(j, cs.x[pos]);
          } else if constexpr (is_accum<Accum>) {
            rowbuf.emplace_back(j, cs.x[pos]);
          }
        }
        if (in_c) ++pos;
        if (in_a) ++ap;
      }
    }
    if (!rowbuf.empty()) {
      for (const auto& [j, v] : rowbuf) {
        t.i.push_back(j);
        t.x.push_back(v);
      }
      t.h.push_back(r);
      t.p.push_back(static_cast<Index>(t.i.size()));
    }
  }
  write_back(c, mask, no_accum, std::move(t), desc);
  (void)accum;
}

/// C(I,J)<M> accum= s (scalar expansion over the region).
template <class CT, class MaskArg, class Accum, class S>
void assign_scalar(Matrix<CT>& c, const MaskArg& mask, const Accum& accum,
                   const S& s, const IndexSel& isel, const IndexSel& jsel,
                   const Descriptor& desc = desc_default) {
  // Full-native path: C(GrB_ALL, GrB_ALL) = s with no mask and no
  // accumulator is a full-form store of s — built directly, no tuple list,
  // no merge. adopt() applies the storage-form policy afterwards.
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    if (isel.is_all() && jsel.is_all() && isel.size() == c.nrows() &&
        jsel.size() == c.ncols() &&
        dense_form_addressable(c.nrows(), c.ncols())) {
      const std::size_t slots =
          static_cast<std::size_t>(c.nrows()) * c.ncols();
      SparseStore<CT> t(c.nrows());
      t.hyper = false;
      Buf<Index>().swap(t.p);
      t.form = Format::full;
      t.mdim = c.ncols();
      t.x.assign(slots, static_cast<CT>(s));
      c.adopt(std::move(t), Layout::by_row);
      return;
    }
  }
  // Masked whole-matrix expansion (the multi-source level/distance stamp:
  // C(ALL, ALL)<M> = s): the result is exactly C with s written (accum'd)
  // at the mask's truthy pattern, so build that store in ONE sorted merge
  // of C's rows with the mask's rows and adopt it — no dense |I|x|J| scalar
  // matrix, no general-assign machinery, no second write_back merge. Only
  // for the plain (non-complemented, non-replace) masked form; everything
  // else falls through to the general path.
  if constexpr (is_masked<MaskArg>) {
    if (!desc.mask_complement && !desc.replace && isel.is_all() &&
        jsel.is_all() && isel.size() == c.nrows() &&
        jsel.size() == c.ncols()) {
      check_dims(mask.nrows() == c.nrows() && mask.ncols() == c.ncols(),
                 "assign_scalar: mask shape");
      const auto& ms = mask.by_row();
      const auto& cs = c.by_row();
      SparseStore<CT> t(c.nrows());
      t.hyper = true;
      t.p.assign(1, 0);
      t.i.reserve(cs.nnz() + ms.nnz());
      t.x.reserve(cs.nnz() + ms.nnz());
      auto truthy = [&](Index pos) {
        return desc.mask_structural ||
               ms.x[pos] != std::decay_t<decltype(ms.x[pos])>{};
      };
      Index km = 0, kc = 0;
      while (km < ms.nvec() || kc < cs.nvec()) {
        platform::governor_poll();
        const Index rm = km < ms.nvec() ? ms.vec_id(km) : all_indices;
        const Index rc = kc < cs.nvec() ? cs.vec_id(kc) : all_indices;
        const Index r = rm < rc ? rm : rc;
        Index mp = 0, me = 0, cp = 0, ce = 0;
        if (rm == r) {
          mp = ms.vec_begin(km);
          me = ms.vec_end(km);
          ++km;
        }
        if (rc == r) {
          cp = cs.vec_begin(kc);
          ce = cs.vec_end(kc);
          ++kc;
        }
        const std::size_t row_start = t.i.size();
        while (mp < me || cp < ce) {
          bool in_m = false, in_c = false;
          Index j;
          if (mp >= me || (cp < ce && cs.i[cp] < ms.i[mp])) {
            j = cs.i[cp];
            in_c = true;
          } else if (cp >= ce || ms.i[mp] < cs.i[cp]) {
            j = ms.i[mp];
            in_m = true;
          } else {
            j = cs.i[cp];
            in_c = in_m = true;
          }
          if (in_m && truthy(mp)) {
            CT z;
            if constexpr (is_accum<Accum>) {
              z = in_c ? static_cast<CT>(accum(cs.x[cp], static_cast<CT>(s)))
                       : static_cast<CT>(s);
            } else {
              z = static_cast<CT>(s);
            }
            t.i.push_back(j);
            t.x.push_back(z);
          } else if (in_c) {
            t.i.push_back(j);
            t.x.push_back(cs.x[cp]);
          }
          if (in_c) ++cp;
          if (in_m) ++mp;
        }
        if (t.i.size() > row_start) {
          t.h.push_back(r);
          t.p.push_back(static_cast<Index>(t.i.size()));
        }
      }
      c.adopt(std::move(t), Layout::by_row);
      return;
    }
  }
  // Build a dense |I|x|J| matrix of s and delegate. The benchmark-relevant
  // assigns (C2/C3) use the matrix form above; scalar expansion is a
  // convenience for algorithms with small regions.
  Matrix<CT> sa(isel.size(), jsel.size());
  Buf<Index> ri(isel.size() * jsel.size());
  Buf<Index> cj(ri.size());
  Buf<CT> vv(ri.size(), static_cast<CT>(s));
  std::size_t k = 0;
  for (Index i = 0; i < isel.size(); ++i) {
    for (Index j = 0; j < jsel.size(); ++j, ++k) {
      ri[k] = i;
      cj[k] = j;
    }
  }
  sa.build(ri, cj, vv, Second{});
  assign(c, mask, accum, sa, isel, jsel, desc);
}

}  // namespace gb
