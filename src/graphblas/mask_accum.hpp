// The GraphBLAS write-back rule, implemented once and shared by every
// operation: C<M, replace> accum= T.
//
//   1. Z = T if no accumulator, else the elementwise union of C and T with
//      accum applied where both have entries;
//   2. for every position: if the (possibly complemented, possibly
//      structural) mask allows, C gets Z's entry (or becomes empty there if
//      Z has none); if the mask forbids, C keeps its old entry unless
//      `replace` is set, in which case the entry is deleted.
//
// This is the subtlest part of the C API specification; concentrating it
// here means each of the ~14 operations only has to produce its raw result
// T. Kernels deliver T as sorted coordinate arrays (vectors) or a row-major
// SparseStore (matrices).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>

#include "graphblas/descriptor.hpp"
#include "graphblas/matrix.hpp"
#include "graphblas/vector.hpp"
#include "platform/governor.hpp"
#include "platform/workspace.hpp"

namespace gb {

namespace detail {
// Workspace call-site tags for the mask probe and the matrix write-back.
struct ws_vec_mask_allow;
struct ws_wb_zi;
struct ws_wb_zv;

/// A vector's current content as sorted index/value arrays, read without
/// touching its storage form. The sparse accessors (indices()/values())
/// convert a dense rep in place — a footprint change that must not happen
/// inside a call that can still fail (the OOM soaks assert failed calls are
/// exactly memory-neutral), and a wasted round trip besides (merge results
/// are recommitted through the format policy anyway).
template <class CT>
struct VecContent {
  Buf<Index> i;
  Buf<storage_t<CT>> v;
};

template <class CT>
VecContent<CT> read_content(const Vector<CT>& w) {
  VecContent<CT> out;
  const std::size_t cnt = static_cast<std::size_t>(w.nvals());
  out.i.reserve(cnt);
  out.v.reserve(cnt);
  if (w.is_dense_rep()) {
    auto dv = w.dense_values();
    const bool full = w.is_full_rep();  // full keeps no presence map
    std::span<const std::uint8_t> p;
    if (!full) p = w.present();
    for (Index k = 0; k < w.size(); ++k) {
      if (full || p[k]) {
        out.i.push_back(k);
        out.v.push_back(dv[k]);
      }
    }
  } else {
    auto wi = w.indices();
    auto wv = w.values();
    out.i.assign(wi.begin(), wi.end());
    out.v.assign(wv.begin(), wv.end());
  }
  return out;
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Vector masks, read in place
// ---------------------------------------------------------------------------

namespace detail {

/// The stored value type of a mask argument (int for GrB_NULL).
template <class M>
struct mask_value {
  using type = int;
};
template <class M>
  requires requires { typename M::value_type; }
struct mask_value<M> {
  using type = storage_t<typename M::value_type>;
};
template <class MaskArg>
using mask_value_t = typename mask_value<std::decay_t<MaskArg>>::type;

/// A vector mask's own arrays, never copied: the presence and value arrays
/// of a bitmap or full mask, the sorted index and value arrays of a sparse
/// one. Complement is left to the reader.
template <class MaskArg>
struct VectorMaskArrays {
  using MV = mask_value_t<MaskArg>;

  VectorMaskArrays(const MaskArg& mask, const Descriptor& desc)
      : n(mask.size()),
        dense(mask.is_dense_rep()),
        structural(desc.mask_structural) {
    if (dense) {
      full = mask.is_full_rep();  // a full mask keeps no presence map
      if (!full) present = mask.present();
      val = mask.dense_values();
    } else {
      idx = mask.indices();
      val = mask.values();
    }
  }

  /// Dense form: does position i hold a truthy entry?
  [[nodiscard]] bool truthy_at(Index i) const noexcept {
    return (full || present[i]) && (structural || val[i] != MV{});
  }
  /// Sparse form: is stored entry k truthy?
  [[nodiscard]] bool truthy_entry(std::size_t k) const noexcept {
    return structural || val[k] != MV{};
  }

  Index n;
  bool dense;
  bool structural;
  bool full = false;
  std::span<const std::uint8_t> present;  // dense and not full
  std::span<const Index> idx;             // sparse
  std::span<const MV> val;  // dense: by position; sparse: by entry
};

/// f(i) for every position i a plain (non-complemented) mask allows, in
/// increasing order: one walk of the stored entries of a sparse mask, one
/// scan of a bitmap or full one.
template <class MaskArg, class F>
void for_each_allowed(const VectorMaskArrays<MaskArg>& m, F&& f) {
  if (m.dense) {
    for (Index i = 0; i < m.n; ++i) {
      if ((i & 1023) == 0) platform::governor_poll();
      if (m.truthy_at(i)) f(i);
    }
  } else {
    for (std::size_t k = 0; k < m.idx.size(); ++k) {
      if ((k & 1023) == 0) platform::governor_poll();
      if (m.truthy_entry(k)) f(m.idx[k]);
    }
  }
}

/// The first k >= from with idx[k] >= i, for sorted idx: an exponential
/// probe, then a binary search — O(log distance), so a cursor that skips
/// far ahead does not walk every entry it passes.
inline std::size_t gallop(std::span<const Index> idx, std::size_t from,
                          Index i) noexcept {
  // An ordered merge mostly stays put or steps to the next entry.
  if (from >= idx.size() || idx[from] >= i) return from;
  if (++from >= idx.size() || idx[from] >= i) return from;
  std::size_t lo = from;  // idx[lo] < i
  std::size_t step = 1;
  std::size_t hi = from + 1;
  while (hi < idx.size() && idx[hi] < i) {
    lo = hi;
    step *= 2;
    hi = lo + step;
  }
  if (hi > idx.size()) hi = idx.size();
  const auto first = idx.begin() + static_cast<std::ptrdiff_t>(lo + 1);
  const auto last = idx.begin() + static_cast<std::ptrdiff_t>(hi);
  return static_cast<std::size_t>(std::lower_bound(first, last, i) -
                                  idx.begin());
}

}  // namespace detail

/// Forward cursor over a vector mask for merges: test(i) with i
/// non-decreasing between calls. A bitmap or full mask answers from its
/// arrays in O(1); a sparse mask advances a galloping cursor over its stored
/// entries. Nothing is allocated and the mask is never copied.
template <class MaskArg>
class VectorMaskCursor {
 public:
  VectorMaskCursor(const MaskArg& mask, const Descriptor& desc)
      : m_(mask, desc), complement_(desc.mask_complement) {}

  [[nodiscard]] bool test(Index i) noexcept {
    bool hit;
    if (m_.dense) {
      hit = m_.truthy_at(i);
    } else {
      pos_ = detail::gallop(m_.idx, pos_, i);
      hit = pos_ < m_.idx.size() && m_.idx[pos_] == i &&
            m_.truthy_entry(pos_);
    }
    return hit != complement_;
  }

 private:
  detail::VectorMaskArrays<MaskArg> m_;
  bool complement_;
  std::size_t pos_ = 0;
};

template <>
class VectorMaskCursor<NoMask> {
 public:
  VectorMaskCursor(const NoMask&, const Descriptor&) noexcept {}
  [[nodiscard]] static bool test(Index) noexcept { return true; }
};

/// O(1)-testable view of a vector mask for the kernels, which test
/// positions in any order (several threads may share it read-only). A
/// bitmap or full mask is read in place through its arrays. A sparse mask
/// is expanded into a byte per position, 1 = writable: O(n + nvals(mask)),
/// and complemented masks cost nothing extra.
template <class MaskArg>
class VectorMaskProbe {
 public:
  VectorMaskProbe(const MaskArg& mask, Index n, const Descriptor& desc) {
    if constexpr (is_masked<MaskArg>) {
      complement_ = desc.mask_complement;
      const auto& m = arrays_.emplace(mask, desc);
      if (m.dense) return;
      auto& allow_ = *allow_h_;
      allow_.assign(n, complement_ ? std::uint8_t{1} : std::uint8_t{0});
      const std::uint8_t on = complement_ ? 0 : 1;
      for (std::size_t k = 0; k < m.idx.size(); ++k) {
        if (m.truthy_entry(k)) allow_[m.idx[k]] = on;
      }
    }
  }

  [[nodiscard]] bool test(Index i) const noexcept {
    if constexpr (is_masked<MaskArg>) {
      if (arrays_->dense) return arrays_->truthy_at(i) != complement_;
      return (*allow_h_)[i] != 0;
    } else {
      (void)i;
      return true;
    }
  }

 private:
  std::optional<detail::VectorMaskArrays<MaskArg>> arrays_;
  bool complement_ = false;
  // Retained workspace; empty unless the mask is sparse. The probe must be
  // destroyed on the thread that built it (kernels only share it read-only).
  platform::WsBuf<std::uint8_t, detail::ws_vec_mask_allow> allow_h_;
};

/// Row-cursor probe over a matrix mask stored by row. `begin_row(r)` then
/// `test(j)` with non-decreasing j within the row.
template <class MaskArg>
class MatrixMaskProbe {
  template <class M>
  struct value_of {
    using type = int;
  };
  template <class M>
    requires requires { typename M::value_type; }
  struct value_of<M> {
    using type = typename M::value_type;
  };
  using mask_value_t = typename value_of<std::decay_t<MaskArg>>::type;

 public:
  using store_type =
      std::conditional_t<is_masked<MaskArg>, SparseStore<mask_value_t>, int>;

  /// The mask's row-major store (nullptr when unmasked). Matrix::by_row()
  /// may materialise a cache on first use (the sparse view of a bitmap
  /// mask), so it must not run inside a parallel region: kernels resolve
  /// it once on the calling thread and build each chunk's probe from the
  /// pointer, and the chunks then only read it.
  static const store_type* rows(const MaskArg& mask) {
    if constexpr (is_masked<MaskArg>) {
      return &mask.by_row();
    } else {
      (void)mask;
      return nullptr;
    }
  }

  MatrixMaskProbe(const store_type* rows, const Descriptor& desc) noexcept
      : store_(rows),
        structural_(desc.mask_structural),
        complement_(desc.mask_complement) {}

  void begin_row(Index r) noexcept {
    if constexpr (is_masked<MaskArg>) {
      auto k = store_->find_vec(r);
      pos_ = k ? store_->vec_begin(*k) : 0;
      end_ = k ? store_->vec_end(*k) : 0;
    } else {
      (void)r;
    }
  }

  /// Mask verdict at (current row, column j). j must not decrease between
  /// calls within a row.
  [[nodiscard]] bool test(Index j) noexcept {
    if constexpr (is_masked<MaskArg>) {
      while (pos_ < end_ && store_->i[pos_] < j) ++pos_;
      bool m = false;
      if (pos_ < end_ && store_->i[pos_] == j) {
        m = structural_ || store_->x[pos_] != mask_value_t{};
      }
      return complement_ ? !m : m;
    } else {
      (void)j;
      return true;
    }
  }

 private:
  const store_type* store_ = nullptr;
  Index pos_ = 0;
  Index end_ = 0;
  bool structural_ = false;
  bool complement_ = false;
};

// ---------------------------------------------------------------------------
// Vector write-back
// ---------------------------------------------------------------------------

namespace detail {

/// Whether a masked write into `c` may store straight into c's arrays
/// (Fig. 3's dense side), touching only the positions the mask allows: c
/// is held in bitmap or full form, is not a frozen snapshot and does not
/// prefer the sparse form; the mask is plain (not complemented), there is
/// no replace, and the mask is not c itself.
template <class CT, class MaskArg>
[[nodiscard]] bool stores_in_place(const Vector<CT>& c, const MaskArg& mask,
                                   const Descriptor& desc) {
  if (static_cast<const void*>(&mask) == static_cast<const void*>(&c))
    return false;
  return !desc.mask_complement && !desc.replace && !c.frozen() &&
         c.format_mode() != FormatMode::sparse && c.is_dense_rep();
}

/// The in-place write-back, O(nvals(mask) + |T|) for a sparse mask: the
/// positions the mask allows take Z's entry, or lose C's where Z has none.
/// Everything that can fail (reads, casts, polls, the scratch lists and, on
/// a full C that loses entries, its presence map) happens before
/// store_dense(), which only stores.
template <class CT, class ZT, class MaskArg, class Accum>
void write_back_in_place(Vector<CT>& c, const MaskArg& mask,
                         const Accum& accum, const Buf<Index>& ti,
                         const Buf<ZT>& tv, const Descriptor& desc) {
  const auto cv = c.dense_values();
  const bool c_full = c.is_full_rep();
  std::span<const std::uint8_t> cp;
  if (!c_full) cp = c.present();
  Buf<Index> si;
  Buf<storage_t<CT>> sv;
  Buf<Index> di;
  if constexpr (is_accum<Accum>) {
    // Z = C wherever T has no entry, so only T's entries can change C.
    VectorMaskCursor<MaskArg> allowed(mask, desc);
    si.reserve(ti.size());
    sv.reserve(ti.size());
    for (std::size_t k = 0; k < ti.size(); ++k) {
      if ((k & 1023) == 0) platform::governor_poll();
      const Index i = ti[k];
      if (!allowed.test(i)) continue;
      si.push_back(i);
      sv.push_back(c_full || cp[i] ? static_cast<CT>(accum(cv[i], tv[k]))
                                   : static_cast<CT>(tv[k]));
    }
  } else {
    (void)accum;
    const VectorMaskArrays<MaskArg> m(mask, desc);
    std::size_t b = 0;
    for_each_allowed(m, [&](Index i) {
      b = gallop(std::span<const Index>(ti), b, i);
      if (b < ti.size() && ti[b] == i) {
        si.push_back(i);
        sv.push_back(static_cast<CT>(tv[b]));
      } else if (c_full || cp[i]) {
        di.push_back(i);
      }
    });
    if (!di.empty() && c_full) (void)c.present();  // last step that allocates
  }
  c.store_dense(si, sv, di);
}

}  // namespace detail

/// C<M, replace> accum= T, where T arrives as sorted, duplicate-free
/// coordinate arrays (ti, tv) in metered storage. All scratch that will be
/// committed into C is assembled first; commit_result applies C's
/// storage-form preference *before* touching C, so an allocation failure
/// anywhere in here (including the form conversion) leaves C untouched.
/// A plain masked write into a bitmap or full C stores in place instead
/// (detail::stores_in_place), costing the mask's entries rather than n.
template <class CT, class ZT, class MaskArg, class Accum>
void write_back(Vector<CT>& c, const MaskArg& mask, const Accum& accum,
                Buf<Index>&& ti, Buf<ZT>&& tv, const Descriptor& desc) {
  // Fast path: unmasked, no accumulator — C simply becomes T.
  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    (void)mask;
    (void)accum;
    (void)desc;
    Buf<storage_t<CT>> cast(tv.size());
    for (std::size_t k = 0; k < tv.size(); ++k) cast[k] = static_cast<CT>(tv[k]);
    c.commit_result(std::move(ti), std::move(cast));
    return;
  } else {
    if constexpr (is_masked<MaskArg>) {
      if (detail::stores_in_place(c, mask, desc)) {
        detail::write_back_in_place(c, mask, accum, ti, tv, desc);
        return;
      }
    }
    const auto cc = detail::read_content(c);
    const auto& ci = cc.i;
    const auto& cv = cc.v;

    // Step 1: Z = accum ? union(C, T, accum) : T   (in C's domain).
    Buf<Index> zi;
    Buf<storage_t<CT>> zv;
    if constexpr (is_accum<Accum>) {
      zi.reserve(ci.size() + ti.size());
      zv.reserve(ci.size() + ti.size());
      std::size_t a = 0, b = 0;
      while (a < ci.size() || b < ti.size()) {
        if (b >= ti.size() || (a < ci.size() && ci[a] < ti[b])) {
          zi.push_back(ci[a]);
          zv.push_back(cv[a]);
          ++a;
        } else if (a >= ci.size() || ti[b] < ci[a]) {
          zi.push_back(ti[b]);
          zv.push_back(static_cast<CT>(tv[b]));
          ++b;
        } else {
          zi.push_back(ci[a]);
          zv.push_back(static_cast<CT>(accum(cv[a], tv[b])));
          ++a;
          ++b;
        }
      }
    } else {
      (void)accum;
      zi.assign(ti.begin(), ti.end());
      zv.resize(tv.size());
      for (std::size_t k = 0; k < tv.size(); ++k)
        zv[k] = static_cast<CT>(tv[k]);
    }

    // Step 2: mask filter over union(Z, C_old).
    VectorMaskCursor<MaskArg> allowed(mask, desc);
    Buf<Index> oi;
    Buf<storage_t<CT>> ov;
    oi.reserve(zi.size());
    ov.reserve(zi.size());
    std::size_t a = 0, b = 0;  // a: C_old, b: Z
    while (a < ci.size() || b < zi.size()) {
      // Build phase only: everything up to load_sorted below is scratch, so
      // a poll trip here still leaves C bit-identical.
      if (((a + b) & 1023) == 0) platform::governor_poll();
      Index i;
      bool in_c = false, in_z = false;
      if (b >= zi.size() || (a < ci.size() && ci[a] < zi[b])) {
        i = ci[a];
        in_c = true;
      } else if (a >= ci.size() || zi[b] < ci[a]) {
        i = zi[b];
        in_z = true;
      } else {
        i = ci[a];
        in_c = in_z = true;
      }
      if (allowed.test(i)) {
        if (in_z) {
          oi.push_back(i);
          ov.push_back(zv[b]);
        }
        // mask allows but Z has no entry -> position ends up empty
      } else if (in_c && !desc.replace) {
        oi.push_back(i);
        ov.push_back(cv[a]);
      }
      if (in_c) ++a;
      if (in_z) ++b;
    }
    c.commit_result(std::move(oi), std::move(ov));
  }
}

/// C accum= T (unmasked), reporting whether C changed: a fresh entry
/// appeared, or an accumulated value differs from the old one. This is the
/// union merge of write_back's accumulator branch with the change test
/// fused in, so iterate-until-fixpoint drivers (Bellman-Ford relaxation)
/// stop paying a full isequal() sweep after every accumulation. All scratch
/// is assembled before commit_result publishes, preserving the
/// transactional contract.
template <class CT, class ZT, class Accum>
bool write_back_accum_changed(Vector<CT>& c, const Accum& accum,
                              Buf<Index>&& ti, Buf<ZT>&& tv) {
  const auto cc = detail::read_content(c);
  const auto& ci = cc.i;
  const auto& cv = cc.v;
  Buf<Index> zi;
  Buf<storage_t<CT>> zv;
  zi.reserve(ci.size() + ti.size());
  zv.reserve(ci.size() + ti.size());
  bool changed = false;
  std::size_t a = 0, b = 0;
  while (a < ci.size() || b < ti.size()) {
    // Build phase only: a poll trip here leaves C bit-identical.
    if (((a + b) & 1023) == 0) platform::governor_poll();
    if (b >= ti.size() || (a < ci.size() && ci[a] < ti[b])) {
      zi.push_back(ci[a]);
      zv.push_back(cv[a]);
      ++a;
    } else if (a >= ci.size() || ti[b] < ci[a]) {
      zi.push_back(ti[b]);
      zv.push_back(static_cast<CT>(tv[b]));
      changed = true;
      ++b;
    } else {
      zi.push_back(ci[a]);
      const storage_t<CT> merged = static_cast<CT>(accum(cv[a], tv[b]));
      changed = changed || merged != cv[a];
      zv.push_back(merged);
      ++a;
      ++b;
    }
  }
  c.commit_result(std::move(zi), std::move(zv));
  return changed;
}

// ---------------------------------------------------------------------------
// Matrix write-back
// ---------------------------------------------------------------------------

/// C<M, replace> accum= T, where T arrives as a row-major store (standard or
/// hypersparse) with vdim == C.nrows(). The result is published row-major;
/// layout is an implementation detail of the opaque object. The row loop
/// walks the union of C's and T's *stored* vectors (not all of [0, nrows)),
/// so hypersparse matrices with enormous dimensions stay O(e).
template <class CT, class ZT, class MaskArg, class Accum>
void write_back(Matrix<CT>& c, const MaskArg& mask, const Accum& accum,
                SparseStore<ZT>&& t, const Descriptor& desc) {
  const Index nrows = c.nrows();

  if constexpr (!is_masked<MaskArg> && !is_accum<Accum>) {
    (void)mask;
    (void)accum;
    (void)desc;
    SparseStore<CT> out(nrows);
    if (t.form != Format::sparse) {
      // Kernel-native dense output: the accumulator arrays *are* the store.
      out.hyper = false;
      Buf<Index>().swap(out.p);
      out.form = t.form;
      out.mdim = t.mdim;
      out.bnvals = t.bnvals;
      out.b = std::move(t.b);
      if constexpr (std::is_same_v<CT, ZT>) {
        out.x = std::move(t.x);
      } else {
        out.x.resize(t.x.size());
        for (std::size_t k = 0; k < t.x.size(); ++k)
          out.x[k] = static_cast<CT>(t.x[k]);
      }
      c.adopt(std::move(out), Layout::by_row);
      return;
    }
    out.hyper = t.hyper;
    out.h = std::move(t.h);
    out.p = std::move(t.p);
    out.i = std::move(t.i);
    out.x.resize(t.x.size());
    for (std::size_t k = 0; k < t.x.size(); ++k)
      out.x[k] = static_cast<CT>(t.x[k]);
    c.adopt(std::move(out), Layout::by_row);
    return;
  } else {
    const auto& cs = c.by_row();
    MatrixMaskProbe<MaskArg> probe(MatrixMaskProbe<MaskArg>::rows(mask), desc);

    // Output is built hypersparse (rows appear as they produce entries);
    // adopt()'s policy inflates it back to standard when dense enough.
    SparseStore<CT> out(nrows);
    out.hyper = true;
    out.p.assign(1, 0);
    out.i.reserve(cs.nnz() + t.nnz());
    out.x.reserve(cs.nnz() + t.nnz());

    // Scratch row for Z = accum(Crow, Trow); retained workspace.
    auto zi_h = platform::Workspace::checkout<detail::ws_wb_zi, Index>();
    auto zv_h =
        platform::Workspace::checkout<detail::ws_wb_zv, storage_t<CT>>();
    auto& zi = *zi_h;
    auto& zv = *zv_h;

    Index kc = 0, kt = 0;  // stored-vector cursors in cs and t
    while (kc < cs.nvec() || kt < t.nvec()) {
      // Build phase only: `out` is scratch until adopt() publishes it, so a
      // poll trip here still leaves C bit-identical.
      platform::governor_poll();
      Index rc = kc < cs.nvec() ? cs.vec_id(kc) : all_indices;
      Index rt = kt < t.nvec() ? t.vec_id(kt) : all_indices;
      Index r = rc < rt ? rc : rt;
      Index ca = 0, ce = 0, ta = 0, te = 0;
      if (rc == r) {
        ca = cs.vec_begin(kc);
        ce = cs.vec_end(kc);
        ++kc;
      }
      if (rt == r) {
        ta = t.vec_begin(kt);
        te = t.vec_end(kt);
        ++kt;
      }

      zi.clear();
      zv.clear();
      if constexpr (is_accum<Accum>) {
        Index a = ca, b = ta;
        while (a < ce || b < te) {
          if (b >= te || (a < ce && cs.i[a] < t.i[b])) {
            zi.push_back(cs.i[a]);
            zv.push_back(cs.x[a]);
            ++a;
          } else if (a >= ce || t.i[b] < cs.i[a]) {
            zi.push_back(t.i[b]);
            zv.push_back(static_cast<CT>(t.x[b]));
            ++b;
          } else {
            zi.push_back(cs.i[a]);
            zv.push_back(static_cast<CT>(accum(cs.x[a], t.x[b])));
            ++a;
            ++b;
          }
        }
      } else {
        (void)accum;
        for (Index b = ta; b < te; ++b) {
          zi.push_back(t.i[b]);
          zv.push_back(static_cast<CT>(t.x[b]));
        }
      }

      probe.begin_row(r);
      Index a = ca;
      std::size_t b = 0;
      while (a < ce || b < zi.size()) {
        Index j;
        bool in_c = false, in_z = false;
        if (b >= zi.size() || (a < ce && cs.i[a] < zi[b])) {
          j = cs.i[a];
          in_c = true;
        } else if (a >= ce || zi[b] < cs.i[a]) {
          j = zi[b];
          in_z = true;
        } else {
          j = cs.i[a];
          in_c = in_z = true;
        }
        if (probe.test(j)) {
          if (in_z) {
            out.i.push_back(j);
            out.x.push_back(zv[b]);
          }
        } else if (in_c && !desc.replace) {
          out.i.push_back(j);
          out.x.push_back(cs.x[a]);
        }
        if (in_c) ++a;
        if (in_z) ++b;
      }
      if (static_cast<Index>(out.i.size()) > out.p.back()) {
        out.h.push_back(r);
        out.p.push_back(static_cast<Index>(out.i.size()));
      }
    }
    c.adopt(std::move(out), Layout::by_row);
  }
}

}  // namespace gb
