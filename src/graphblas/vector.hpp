// GrB_Vector: an opaque sparse vector of dimension n.
//
// Following the GraphBLAST design the paper highlights (Fig. 3), a Vector
// keeps one of three physical representations and converts between them:
//   * sparse  — sorted index array + value array (SpMSpV "push" side);
//   * bitmap  — value array of length n + presence byte map (SpMV "pull"
//               side; historically called the "dense" representation here);
//   * full    — the bitmap form with every position present, so the
//               presence map is dropped entirely.
// Conversion is driven explicitly (kernels force the layout they need), by
// the density auto rule, or by a storage-form preference (set_format /
// GxB_SPARSITY_CONTROL) applied when kernels commit results.
//
// Non-blocking mode: setElement appends to an unordered pending-tuple list
// and removeElement tags zombies, exactly as §II-A describes for matrices;
// `wait()` folds both into the main representation in one sort-and-merge
// step. All read accessors call wait() first, so callers always observe
// materialised state (the C API's as-if rule). Storage is `mutable` because
// materialisation is a logically-const cache fold, the same trick
// SuiteSparse plays behind its opaque handles.
//
// Exception safety: every mutation that can allocate builds its result in
// scratch storage first and commits with noexcept moves, so a bad_alloc
// (real or injected via gb::platform::Alloc) leaves the observable value
// exactly as it was. All storage lives in gb::Buf, so it is metered and
// fault-injectable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graphblas/types.hpp"
#include "platform/alloc.hpp"
#include "platform/memory.hpp"

namespace gb {

template <class U>
struct DebugAccess;  // validator / test backdoor, defined in validate.hpp

template <class T>
class Vector {
 public:
  using value_type = T;

  Vector() = default;

  /// An empty (no entries) vector of dimension n.
  explicit Vector(Index n) : n_(n) {}

  /// A dense vector of dimension n with every entry = fill. Built directly
  /// in the full form: every position present, so no presence map is kept.
  static Vector full(Index n, const T& fill) {
    Vector v(n);
    v.dense_ = true;
    v.full_ = true;
    v.dval_.assign(n, static_cast<storage_t<T>>(fill));
    v.dnvals_ = n;
    return v;
  }

  // --- shape and counts ------------------------------------------------------

  [[nodiscard]] Index size() const noexcept { return n_; }

  [[nodiscard]] Index nvals() const {
    wait();
    return dense_ ? dnvals_ : static_cast<Index>(ind_.size());
  }

  [[nodiscard]] bool empty() const { return nvals() == 0; }

  /// Fraction of positions holding an entry.
  [[nodiscard]] double density() const {
    return n_ == 0 ? 0.0 : static_cast<double>(nvals()) / static_cast<double>(n_);
  }

  // --- element access --------------------------------------------------------

  /// GrB_Vector_setElement. O(1) amortised via the pending list.
  void set_element(Index i, const T& v) {
    check_index(i < n_, "Vector::set_element");
    unsnap();
    if (dense_) {
      if (full_) {  // every position already present
        dval_[i] = v;
        return;
      }
      if (!dpresent_[i]) ++dnvals_;
      dpresent_[i] = 1;
      dval_[i] = v;
      return;
    }
    pending_.emplace_back(i, v);
  }

  /// GrB_Vector_removeElement. O(1) via zombie tagging (sparse) or the
  /// bitmap (dense).
  void remove_element(Index i) {
    check_index(i < n_, "Vector::remove_element");
    unsnap();
    if (dense_) {
      if (full_) {  // a hole appears: demote full -> bitmap first
        ensure_present_map();
        full_ = false;
      }
      if (dpresent_[i]) --dnvals_;
      dpresent_[i] = 0;
      return;
    }
    // Cheap path: drop pending inserts at i, then zombie-tag a stored entry.
    std::erase_if(pending_, [i](const auto& t) { return t.first == i; });
    auto it = std::lower_bound(ind_.begin(), ind_.end(), i,
                               [](Index stored, Index key) {
                                 return unzombie(stored) < key;
                               });
    if (it != ind_.end() && unzombie(*it) == i && !is_zombie(*it)) {
      *it |= kZombieBit;
      ++nzombies_;
    }
  }

  /// GrB_Vector_extractElement: nullopt encodes GrB_NO_VALUE.
  [[nodiscard]] std::optional<T> extract_element(Index i) const {
    check_index(i < n_, "Vector::extract_element");
    wait();
    if (dense_) {
      if (!full_ && !dpresent_[i]) return std::nullopt;
      return static_cast<T>(dval_[i]);
    }
    auto it = std::lower_bound(ind_.begin(), ind_.end(), i);
    if (it == ind_.end() || *it != i) return std::nullopt;
    return static_cast<T>(val_[static_cast<std::size_t>(it - ind_.begin())]);
  }

  // --- bulk construction ------------------------------------------------------

  /// GrB_Vector_build: indices may be unsorted and may repeat; duplicates are
  /// combined with `dup`. Strong guarantee: assembled in scratch first.
  template <class Dup, class ValueContainer>
  void build(std::span<const Index> indices, const ValueContainer& values,
             Dup dup) {
    check_value(indices.size() == values.size(), "Vector::build sizes");
    check_value(nvals() == 0, "Vector::build on non-empty vector");
    bool increasing = true;
    for (std::size_t k = 0; k < indices.size(); ++k) {
      check_index(indices[k] < n_, "Vector::build index");
      if (k > 0 && indices[k] <= indices[k - 1]) increasing = false;
    }
    if (increasing) {
      // Strictly increasing input is already the stored order, with no
      // duplicates to combine: copy it straight in, no sort.
      Buf<Index> ni(indices.begin(), indices.end());
      Buf<storage_t<T>> nv;
      nv.reserve(indices.size());
      for (std::size_t k = 0; k < indices.size(); ++k)
        nv.push_back(static_cast<storage_t<T>>(values[k]));
      commit_sparse(std::move(ni), std::move(nv));
      return;
    }
    Buf<std::pair<Index, storage_t<T>>> tuples;
    tuples.reserve(indices.size());
    for (std::size_t k = 0; k < indices.size(); ++k)
      tuples.emplace_back(indices[k], static_cast<storage_t<T>>(values[k]));
    std::stable_sort(tuples.begin(), tuples.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    Buf<Index> ni;
    Buf<storage_t<T>> nv;
    ni.reserve(tuples.size());
    nv.reserve(tuples.size());
    for (const auto& [i, v] : tuples) {
      if (!ni.empty() && ni.back() == i) {
        nv.back() = dup(nv.back(), v);
      } else {
        ni.push_back(i);
        nv.push_back(v);
      }
    }
    commit_sparse(std::move(ni), std::move(nv));
  }

  /// GrB_Vector_extractTuples.
  void extract_tuples(std::vector<Index>& indices, std::vector<T>& values) const {
    wait();
    indices.clear();
    values.clear();
    if (dense_) {
      for (Index i = 0; i < n_; ++i) {
        if (full_ || dpresent_[i]) {
          indices.push_back(i);
          values.push_back(static_cast<T>(dval_[i]));
        }
      }
    } else {
      indices.assign(ind_.begin(), ind_.end());
      values.reserve(val_.size());
      for (const auto& v : val_) values.push_back(static_cast<T>(v));
    }
  }

  /// GrB_Vector_clear: remove all entries, keep the dimension. noexcept —
  /// never allocates.
  void clear() noexcept {
    unsnap();
    ind_.clear();
    val_.clear();
    dval_.clear();
    dpresent_.clear();
    pending_.clear();
    nzombies_ = 0;
    dnvals_ = 0;
    dense_ = false;
    full_ = false;
  }

  /// GrB_Vector_resize. Entries beyond the new dimension are dropped.
  void resize(Index n) {
    wait();
    unsnap();
    if (dense_ && full_) {
      if (n <= n_) {  // a shrink keeps every remaining position present
        dval_.resize(n);
        if (!dpresent_.empty()) dpresent_.resize(n);
        dnvals_ = n;
        n_ = n;
        return;
      }
      // Growing adds absent positions: demote to bitmap, then fall through.
      ensure_present_map();
      full_ = false;
    }
    if (dense_) {
      // Reserve both arrays before resizing either, so an allocation failure
      // leaves the dense-rep invariants (sizes == n_) intact.
      dval_.reserve(n);
      dpresent_.reserve(n);
      if (n < n_) {
        for (Index i = n; i < n_; ++i)
          if (dpresent_[i]) --dnvals_;
      }
      dval_.resize(n);
      dpresent_.resize(n, 0);
    } else if (n < n_) {
      auto it = std::lower_bound(ind_.begin(), ind_.end(), n);
      auto keep = static_cast<std::size_t>(it - ind_.begin());
      ind_.resize(keep);
      val_.resize(keep);
    }
    n_ = n;
  }

  // --- representation control (Fig. 3) ----------------------------------------

  [[nodiscard]] bool is_dense_rep() const {
    wait();
    return dense_;
  }

  [[nodiscard]] bool is_full_rep() const {
    wait();
    return full_;
  }

  /// The current physical storage form (GxB_Vector_Option_get).
  [[nodiscard]] Format format() const {
    wait();
    return full_ ? Format::full : dense_ ? Format::bitmap : Format::sparse;
  }

  [[nodiscard]] FormatMode format_mode() const noexcept { return fmt_mode_; }

  /// Set the storage-form preference (GxB_SPARSITY_CONTROL) and apply it to
  /// the current contents. A preference that cannot hold the value degrades
  /// gracefully (full -> bitmap -> sparse); observable results never change.
  void set_format(FormatMode mode) {
    wait();
    fmt_mode_ = mode;
    switch (mode) {
      case FormatMode::sparse:
        to_sparse();
        break;
      case FormatMode::bitmap:
        if (dense_form_addressable(n_, 1)) {
          to_dense();
          if (full_) {  // demote an existing full rep to an explicit bitmap
            ensure_present_map();
            full_ = false;
          }
        } else {
          to_sparse();
        }
        break;
      case FormatMode::full:
        if (dense_form_addressable(n_, 1)) {
          to_dense();
          try_full();
        } else {
          to_sparse();
        }
        break;
      case FormatMode::auto_fmt:
        break;  // keep the current form; future commits follow the auto rule
    }
  }

  /// Force the sparse (index list) representation. Strong guarantee.
  /// On a frozen vector this is a no-op: the accessors serve the secondary
  /// view instead, so concurrent const readers never convert in place.
  void to_sparse() const {
    if (faux_.frozen) return;
    wait();
    if (!dense_) return;
    Buf<Index> ni;
    Buf<storage_t<T>> nv;
    ni.reserve(dnvals_);
    nv.reserve(dnvals_);
    for (Index i = 0; i < n_; ++i) {
      if (full_ || dpresent_[i]) {
        ni.push_back(i);
        nv.push_back(dval_[i]);
      }
    }
    // Commit: nothing below can throw.
    ind_ = std::move(ni);
    val_ = std::move(nv);
    Buf<storage_t<T>>().swap(dval_);
    Buf<std::uint8_t>().swap(dpresent_);
    dnvals_ = 0;
    dense_ = false;
    full_ = false;
  }

  /// Force a dense (value array) representation. A full rep already is one,
  /// so this never demotes full -> bitmap (set_format does that explicitly).
  /// Strong guarantee. No-op on a frozen vector (see to_sparse).
  void to_dense() const {
    if (faux_.frozen) return;
    wait();
    if (dense_) return;
    Buf<storage_t<T>> dv(n_, storage_t<T>{});
    Buf<std::uint8_t> dp(n_, 0);
    for (std::size_t k = 0; k < ind_.size(); ++k) {
      dv[ind_[k]] = val_[k];
      dp[ind_[k]] = 1;
    }
    // Commit: nothing below can throw.
    dnvals_ = static_cast<Index>(ind_.size());
    dval_ = std::move(dv);
    dpresent_ = std::move(dp);
    Buf<Index>().swap(ind_);
    Buf<storage_t<T>>().swap(val_);
    dense_ = true;
  }

  /// Pick the representation by density (the GraphBLAST auto rule).
  void auto_rep(double threshold = 0.10) const {
    if (density() >= threshold) {
      to_dense();
    } else {
      to_sparse();
    }
  }

  // --- raw views for kernels ---------------------------------------------------
  // Sparse views are valid only when !is_dense_rep(); dense views only when
  // is_dense_rep(). Kernels force the layout first.

  [[nodiscard]] std::span<const Index> indices() const {
    if (faux_.frozen && dense_) return faux_.ind;  // secondary view, no convert
    to_sparse();
    return ind_;
  }
  [[nodiscard]] std::span<const storage_t<T>> values() const {
    if (faux_.frozen && dense_) return faux_.val;
    to_sparse();
    return val_;
  }
  [[nodiscard]] std::span<const storage_t<T>> dense_values() const {
    if (faux_.frozen && !dense_) {
      check_value(faux_.has_dense,
                  "Vector: frozen dense view exceeds addressable cap");
      return faux_.dval;
    }
    to_dense();
    return dval_;
  }
  [[nodiscard]] std::span<const std::uint8_t> present() const {
    if (faux_.frozen) {
      if (!dense_) {
        check_value(faux_.has_dense,
                    "Vector: frozen dense view exceeds addressable cap");
        return faux_.dpresent;
      }
      return dpresent_;  // freeze() materialised the full rep's map
    }
    to_dense();
    // A full rep keeps no presence map; materialise an all-ones one for
    // kernels that iterate it (the rep stays full — the map is a cache).
    if (full_) ensure_present_map();
    return dpresent_;
  }

  // --- snapshot isolation (serving layer) --------------------------------------

  /// True when this object is an immutable published snapshot: every lazy
  /// form any kernel can demand was materialised by freeze(), so concurrent
  /// const reads touch no mutable state.
  [[nodiscard]] bool frozen() const noexcept { return faux_.frozen; }

  /// Pre-materialise every representation a const reader could demand —
  /// pending work is folded, and the *other* physical form is built into a
  /// secondary view so indices()/values()/dense_values()/present() all serve
  /// without in-place conversion. After freeze(), concurrent reads through
  /// the const interface are race-free. (The dense secondary of a sparse
  /// vector is built only under the addressable cap, matching the auto
  /// rule's own gate — kernels that honour the cap never miss it.)
  void freeze() const {
    wait();
    if (faux_.frozen) return;
    if (dense_) {
      if (full_) ensure_present_map();
      Buf<Index> ni;
      Buf<storage_t<T>> nv;
      ni.reserve(dnvals_);
      nv.reserve(dnvals_);
      for (Index i = 0; i < n_; ++i) {
        if (full_ || dpresent_[i]) {
          ni.push_back(i);
          nv.push_back(dval_[i]);
        }
      }
      faux_.ind = std::move(ni);
      faux_.val = std::move(nv);
    } else if (dense_form_addressable(n_, 1)) {
      Buf<storage_t<T>> dv(n_, storage_t<T>{});
      Buf<std::uint8_t> dp(n_, 0);
      for (std::size_t k = 0; k < ind_.size(); ++k) {
        dv[ind_[k]] = val_[k];
        dp[ind_[k]] = 1;
      }
      faux_.dval = std::move(dv);
      faux_.dpresent = std::move(dp);
      faux_.has_dense = true;
    }
    faux_.frozen = true;
  }

  /// Cheap copy-on-write snapshot: an immutable, frozen copy of the current
  /// value, cached until the next mutation (repeat snapshots of an unchanged
  /// vector share one frozen object). Call only from the owning thread, like
  /// every other method on a mutable container; the returned object itself
  /// is safe for any number of concurrent readers.
  [[nodiscard]] std::shared_ptr<const Vector<T>> snapshot() const {
    wait();
    if (!snap_) {
      auto s = std::make_shared<Vector<T>>(*this);
      s->freeze();
      snap_ = std::move(s);
    }
    return snap_;
  }

  /// Replace all contents with sorted (indices, values). Used by kernels to
  /// publish results without per-element churn. Indices must be sorted and
  /// duplicate-free. noexcept: takes ownership by move, frees old storage.
  void load_sorted(Buf<Index>&& indices, Buf<storage_t<T>>&& values) noexcept {
    commit_sparse(std::move(indices), std::move(values));
  }

  /// Replace all contents with a dense value array + presence bitmap.
  void load_dense(Buf<storage_t<T>>&& values, Buf<std::uint8_t>&& present) {
    check_value(values.size() == n_ && present.size() == n_,
                "Vector::load_dense size");
    Index cnt = 0;
    for (Index i = 0; i < n_; ++i)
      if (present[i]) ++cnt;
    // Commit: nothing below can throw.
    clear();
    dval_ = std::move(values);
    dpresent_ = std::move(present);
    dnvals_ = cnt;
    dense_ = true;
    maybe_collapse_to_full();
  }

  /// Replace all contents with a dense value array in which *every* position
  /// is present (the full form). noexcept: takes ownership by move.
  void load_full(Buf<storage_t<T>>&& values) noexcept {
    clear();
    dval_ = std::move(values);
    dnvals_ = n_;
    dense_ = true;
    full_ = true;
  }

  /// Kernel result commit with the storage-form policy applied: the scratch
  /// arrays are sorted, duplicate-free (index, value) pairs. Under auto and
  /// forced-sparse the commit is the plain noexcept sparse adoption; under a
  /// forced dense form the dense arrays are built *before* the old value is
  /// touched, preserving the strong guarantee.
  void commit_result(Buf<Index>&& ti, Buf<storage_t<T>>&& tv) {
    const bool want_dense =
        (fmt_mode_ == FormatMode::bitmap || fmt_mode_ == FormatMode::full) &&
        dense_form_addressable(n_, 1);
    if (!want_dense) {
      commit_sparse(std::move(ti), std::move(tv));
      return;
    }
    Buf<storage_t<T>> dv(n_, storage_t<T>{});
    Buf<std::uint8_t> dp(n_, 0);
    for (std::size_t k = 0; k < ti.size(); ++k) {
      dv[ti[k]] = tv[k];
      dp[ti[k]] = 1;
    }
    const auto cnt = static_cast<Index>(ti.size());
    // Commit: nothing below can throw.
    clear();
    dval_ = std::move(dv);
    dpresent_ = std::move(dp);
    dnvals_ = cnt;
    dense_ = true;
    maybe_collapse_to_full();
  }

  /// Kernel result commit from a dense accumulator, with the storage-form
  /// policy applied. `values`/`present` are freshly built scratch of size n.
  /// Forced-sparse (and the auto rule below its density threshold) compacts
  /// to the index list *before* committing — no sort needed, the scan is
  /// already in index order.
  void commit_result_dense(Buf<storage_t<T>>&& values,
                           Buf<std::uint8_t>&& present, Index cnt,
                           double dense_threshold = 0.10) {
    const bool addressable = dense_form_addressable(n_, 1);
    bool want_dense = false;
    switch (fmt_mode_) {
      case FormatMode::sparse: want_dense = false; break;
      case FormatMode::bitmap:
      case FormatMode::full: want_dense = addressable; break;
      case FormatMode::auto_fmt:
        want_dense = addressable &&
                     n_ > 0 &&
                     static_cast<double>(cnt) >=
                         dense_threshold * static_cast<double>(n_);
        break;
    }
    if (!want_dense) {
      Buf<Index> ni;
      Buf<storage_t<T>> nv;
      ni.reserve(cnt);
      nv.reserve(cnt);
      for (Index i = 0; i < n_; ++i) {
        if (present[i]) {
          ni.push_back(i);
          nv.push_back(values[i]);
        }
      }
      commit_sparse(std::move(ni), std::move(nv));
      return;
    }
    // Commit: nothing below can throw.
    clear();
    dval_ = std::move(values);
    dpresent_ = std::move(present);
    dnvals_ = cnt;
    dense_ = true;
    maybe_collapse_to_full();
  }

  /// In-place commit into the bitmap/full form, O(|si| + |di|) instead of
  /// O(n): position si[k] takes sv[k], and each position in di loses its
  /// entry. The masked writes use it once everything that can fail is done:
  /// the rep must be dense and not frozen, and when di is non-empty on a
  /// full rep the caller has materialised the presence map (present()).
  void store_dense(std::span<const Index> si,
                   std::span<const storage_t<T>> sv,
                   std::span<const Index> di) noexcept {
    unsnap();
    for (std::size_t k = 0; k < si.size(); ++k) {
      const Index i = si[k];
      dval_[i] = sv[k];
      if (!full_ && !dpresent_[i]) {
        dpresent_[i] = 1;
        ++dnvals_;
      }
    }
    if (!di.empty()) full_ = false;  // the map is already all ones
    for (Index i : di) {
      if (dpresent_[i]) {
        dpresent_[i] = 0;
        dval_[i] = storage_t<T>{};
        --dnvals_;
      }
    }
    maybe_collapse_to_full();
  }

  // --- non-blocking materialisation --------------------------------------------

  /// GrB_Vector_wait: kill zombies, assemble pending tuples. One
  /// O(e + p log p) pass. Strong guarantee: the zombie sweep is an in-place
  /// shrink (never allocates); the pending merge assembles into scratch and
  /// clears `pending_` only after the noexcept commit.
  void wait() const {
    if (pending_.empty() && nzombies_ == 0) return;
    // 1. Kill zombies in the stored arrays (in place; shrinking resize only).
    if (nzombies_ > 0) {
      std::size_t out = 0;
      for (std::size_t k = 0; k < ind_.size(); ++k) {
        if (!is_zombie(ind_[k])) {
          ind_[out] = ind_[k];
          val_[out] = val_[k];
          ++out;
        }
      }
      ind_.resize(out);
      val_.resize(out);
      nzombies_ = 0;
    }
    // 2. Sort pending tuples (stable: later set wins) and merge.
    if (!pending_.empty()) {
      std::stable_sort(
          pending_.begin(), pending_.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      Buf<Index> mi;
      Buf<storage_t<T>> mv;
      mi.reserve(ind_.size() + pending_.size());
      mv.reserve(ind_.size() + pending_.size());
      std::size_t a = 0, b = 0;
      while (a < ind_.size() || b < pending_.size()) {
        // Collapse a run of pending tuples at one index: last write wins
        // (setElement semantics: overwrite).
        if (b < pending_.size() &&
            (a >= ind_.size() || pending_[b].first <= ind_[a])) {
          Index i = pending_[b].first;
          auto v = static_cast<storage_t<T>>(pending_[b].second);
          ++b;
          while (b < pending_.size() && pending_[b].first == i) {
            v = static_cast<storage_t<T>>(pending_[b].second);
            ++b;
          }
          if (a < ind_.size() && ind_[a] == i) ++a;  // pending overwrites stored
          mi.push_back(i);
          mv.push_back(v);
        } else {
          mi.push_back(ind_[a]);
          mv.push_back(val_[a]);
          ++a;
        }
      }
      // Commit: nothing below can throw.
      ind_ = std::move(mi);
      val_ = std::move(mv);
      pending_.clear();
    }
  }

  /// True if a wait() would do work (used by tests of non-blocking mode).
  [[nodiscard]] bool has_pending_work() const noexcept {
    return !pending_.empty() || nzombies_ > 0;
  }

  /// Approximate bytes held (for the memory meter and tests).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return ind_.capacity() * sizeof(Index) + val_.capacity() * sizeof(T) +
           dval_.capacity() * sizeof(T) + dpresent_.capacity() +
           pending_.capacity() * sizeof(std::pair<Index, T>) +
           faux_.ind.capacity() * sizeof(Index) +
           faux_.val.capacity() * sizeof(T) +
           faux_.dval.capacity() * sizeof(T) + faux_.dpresent.capacity();
  }

 private:
  template <class U>
  friend struct DebugAccess;

  static constexpr Index kZombieBit = Index{1} << 63;
  [[nodiscard]] static constexpr bool is_zombie(Index i) noexcept {
    return (i & kZombieBit) != 0;
  }
  [[nodiscard]] static constexpr Index unzombie(Index i) noexcept {
    return i & ~kZombieBit;
  }

  /// Adopt fully-assembled sparse arrays; frees every other representation.
  void commit_sparse(Buf<Index>&& ni, Buf<storage_t<T>>&& nv) const noexcept {
    unsnap();
    ind_ = std::move(ni);
    val_ = std::move(nv);
    Buf<storage_t<T>>().swap(dval_);
    Buf<std::uint8_t>().swap(dpresent_);
    pending_.clear();
    nzombies_ = 0;
    dnvals_ = 0;
    dense_ = false;
    full_ = false;
  }

  /// Materialise the all-ones presence map of a full rep (strong guarantee).
  /// The rep stays full — the map is a cache for map-iterating kernels.
  void ensure_present_map() const {
    if (!full_ || dpresent_.size() == n_) return;
    Buf<std::uint8_t> dp(n_, 1);
    dpresent_ = std::move(dp);  // noexcept
  }

  /// After a dense commit: collapse bitmap -> full when every position is
  /// present, unless the form preference pins the bitmap (or sparse) form.
  void maybe_collapse_to_full() const noexcept {
    if (dnvals_ != n_ || !dense_) return;
    if (fmt_mode_ == FormatMode::bitmap || fmt_mode_ == FormatMode::sparse)
      return;
    full_ = true;
    Buf<std::uint8_t>().swap(dpresent_);
  }

  /// Promote an all-present bitmap rep to full (noexcept; no-op otherwise).
  void try_full() const noexcept {
    if (!dense_ || full_ || dnvals_ != n_) return;
    full_ = true;
    Buf<std::uint8_t>().swap(dpresent_);
  }

  /// Secondary views of a frozen vector: the physical form the primary rep
  /// is *not*, materialised once by freeze() so concurrent const readers can
  /// demand either layout without converting in place. Copies start unfrozen
  /// (a copy is a fresh mutable value); moves carry the state along.
  struct FrozenAux {
    bool frozen = false;
    bool has_dense = false;
    Buf<Index> ind;
    Buf<storage_t<T>> val;
    Buf<storage_t<T>> dval;
    Buf<std::uint8_t> dpresent;
    FrozenAux() = default;
    FrozenAux(const FrozenAux&) noexcept : FrozenAux() {}
    FrozenAux& operator=(const FrozenAux&) noexcept {
      *this = FrozenAux{};
      return *this;
    }
    FrozenAux(FrozenAux&&) noexcept = default;
    FrozenAux& operator=(FrozenAux&&) noexcept = default;
  };

  /// Drop the cached snapshot (and any frozen views) — called by every
  /// mutation so published snapshots keep the pre-write value. noexcept.
  void unsnap() const noexcept {
    snap_.reset();
    faux_ = FrozenAux{};
  }

  Index n_ = 0;

  /// Storage-form preference; applied when results are committed.
  FormatMode fmt_mode_ = default_format_mode();

  // Mutable: materialisation (wait, representation changes) is logically
  // const — observable value semantics never change, only the physical form.
  mutable bool dense_ = false;
  mutable bool full_ = false;  // dense rep with every position present
  mutable Buf<Index> ind_;  // sparse: sorted entry indices
  mutable Buf<storage_t<T>> val_;   // sparse: entry values
  mutable Buf<storage_t<T>> dval_;  // dense: values
  mutable Buf<std::uint8_t> dpresent_;  // dense: presence bitmap
  mutable Index dnvals_ = 0;
  mutable Buf<std::pair<Index, T>> pending_;  // unordered inserts
  mutable Index nzombies_ = 0;
  mutable FrozenAux faux_;  // secondary views when frozen
  mutable std::shared_ptr<const Vector<T>> snap_;  // cached COW snapshot
};

}  // namespace gb
