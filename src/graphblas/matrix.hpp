// GrB_Matrix: the opaque sparse matrix object.
//
// Features reproduced from SuiteSparse:GraphBLAS as described in §II-A / §IV
// of the paper:
//   * four storage formats — CSR, CSC, hypersparse-CSR, hypersparse-CSC —
//     with automatic hypersparsity (all methods accept any format);
//   * non-blocking incremental updates: removeElement tags *zombies*,
//     setElement appends *pending tuples*; wait() folds both in a single
//     O(n + e + p log p) step, which is why a loop of e setElement calls is
//     as fast as one build of e tuples (bench C2);
//   * O(1) import/export of the raw arrays by move construction (bench C6);
//   * a cached opposite-orientation copy (the CSR+CSC doubling GraphBLAST
//     uses for push/pull), built on demand and invalidated on mutation;
//   * a generation number naming the current value, so a caller can keep
//     objects derived from a matrix and reuse them while it is unchanged.
//
// Exception safety: every mutation that can allocate assembles its result in
// scratch storage (or pre-reserves exactly) and commits with noexcept moves.
// A bad_alloc — real or injected through gb::platform::Alloc — leaves the
// observable value of the matrix exactly as it was before the call. All
// storage lives in gb::Buf so it is metered and fault-injectable.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "graphblas/ops.hpp"
#include "graphblas/sparse_store.hpp"
#include "graphblas/types.hpp"
#include "platform/alloc.hpp"

namespace gb {

template <class U>
struct DebugAccess;  // validator / test backdoor, defined in validate.hpp

/// Storage orientation of the primary representation.
enum class Layout : std::uint8_t { by_row, by_col };

/// The opposite orientation (a by-row store reinterpreted is the by-col
/// store of the transpose, and vice versa).
[[nodiscard]] constexpr Layout flip(Layout l) noexcept {
  return l == Layout::by_row ? Layout::by_col : Layout::by_row;
}

namespace detail {

/// A matrix's generation number. Numbers come from one process-wide
/// counter, so no two values ever share one — not even two matrices that
/// live at the same address one after the other. A copy keeps its source's
/// number (the value is the same); a move hands the number over and gives
/// the moved-from source a fresh one.
struct Generation {
  static std::uint64_t fresh() noexcept {
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Generation() = default;
  Generation(const Generation&) = default;
  Generation& operator=(const Generation&) = default;
  Generation(Generation&& o) noexcept : value(o.value) { o.value = fresh(); }
  Generation& operator=(Generation&& o) noexcept {
    value = o.value;
    o.value = fresh();
    return *this;
  }

  std::uint64_t value = fresh();

 private:
  static inline std::atomic<std::uint64_t> next{1};
};

}  // namespace detail

/// Hypersparsity policy. `auto_mode` switches to hypersparse when fewer than
/// vdim / kHyperRatio major vectors are non-empty (SuiteSparse's default
/// heuristic shape).
enum class HyperMode : std::uint8_t { auto_mode, always, never };

template <class T>
class Matrix {
 public:
  using value_type = T;
  static constexpr Index kHyperRatio = 8;

  Matrix() = default;

  Matrix(Index nrows, Index ncols, Layout layout = Layout::by_row,
         HyperMode hyper = HyperMode::auto_mode)
      : nrows_(nrows),
        ncols_(ncols),
        layout_(layout),
        hyper_mode_(hyper),
        format_mode_(default_format_mode()),
        main_(major_dim()) {}

  /// n-by-n identity with the given diagonal value.
  static Matrix identity(Index n, const T& v = T{1}) {
    Matrix m(n, n);
    m.main_.hyper = false;
    m.main_.h.clear();
    m.main_.p.resize(n + 1);
    m.main_.i.resize(n);
    m.main_.x.resize(n);
    for (Index k = 0; k < n; ++k) {
      m.main_.p[k] = k;
      m.main_.i[k] = k;
      m.main_.x[k] = v;
    }
    m.main_.p[n] = n;
    return m;
  }

  /// Square diagonal matrix from a vector's entries.
  template <class VecT>
  static Matrix diag(const VecT& v) {
    Matrix m(v.size(), v.size());
    auto idx = v.indices();
    auto val = v.values();
    Buf<std::tuple<Index, Index, T>> t;
    t.reserve(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k)
      t.emplace_back(idx[k], idx[k], static_cast<T>(val[k]));
    m.build_tuples(t, Second{});
    return m;
  }

  // --- shape and counts -------------------------------------------------------

  [[nodiscard]] Index nrows() const noexcept { return nrows_; }
  [[nodiscard]] Index ncols() const noexcept { return ncols_; }
  [[nodiscard]] Layout layout() const noexcept { return layout_; }
  [[nodiscard]] HyperMode hyper_mode() const noexcept { return hyper_mode_; }
  [[nodiscard]] FormatMode format_mode() const noexcept { return format_mode_; }

  /// The storage form the matrix currently sits in (GxB_SPARSITY_STATUS).
  [[nodiscard]] Format format() const {
    wait();
    return main_.form;
  }

  /// Set the storage-form preference (GxB_SPARSITY_CONTROL) and apply it
  /// now. A preference, not a mandate: full falls back to bitmap when
  /// entries are absent, bitmap to sparse when the dense arrays would not
  /// be addressable — the observable value never changes. Strong guarantee:
  /// the conversion assembles its arrays before the noexcept commit.
  void set_format(FormatMode mode) {
    wait();
    format_mode_ = mode;
    apply_format_policy_to(main_, major_dim(), minor_dim());
    if (main_.form == Format::sparse) apply_hyper_policy();
    invalidate_views();
  }

  [[nodiscard]] Index nvals() const {
    wait();
    return main_.nnz();
  }

  [[nodiscard]] bool is_hyper() const {
    wait();
    return main_.hyper;
  }

  /// The generation number of the current value: fresh at construction and
  /// after every mutation, shared with copies, never reused in the process.
  /// Equal numbers mean equal values, so a caller may key a cache of
  /// anything derived from the matrix on it.
  [[nodiscard]] std::uint64_t generation() const {
    wait();
    return gen_.value;
  }

  // --- element access ---------------------------------------------------------

  /// GrB_Matrix_setElement: O(1) amortised — appends a pending tuple
  /// (sparse forms) or writes the dense slot directly (bitmap/full).
  void set_element(Index r, Index c, const T& v) {
    check_index(r < nrows_ && c < ncols_, "Matrix::set_element");
    invalidate_other();
    if (main_.form != Format::sparse) {
      auto [major, minor] = to_major_minor(r, c);
      const std::size_t s = main_.slot(major, minor);
      if (main_.form == Format::bitmap && !main_.b[s]) {
        main_.b[s] = 1;
        ++main_.bnvals;
      }
      main_.x[s] = v;
      return;
    }
    pending_.emplace_back(r, c, v);
  }

  /// GrB_Matrix_removeElement: O(log) — tags a zombie or drops a pending
  /// tuple; no array shuffling.
  void remove_element(Index r, Index c) {
    check_index(r < nrows_ && c < ncols_, "Matrix::remove_element");
    invalidate_other();
    if (main_.form != Format::sparse) {
      // A removal breaks the full form's every-slot-present invariant:
      // demote to bitmap first (strong guarantee inside to_bitmap).
      if (main_.form == Format::full) main_.to_bitmap(minor_dim());
      auto [major, minor] = to_major_minor(r, c);
      const std::size_t s = main_.slot(major, minor);
      if (main_.b[s]) {
        main_.b[s] = 0;
        --main_.bnvals;
      }
      return;
    }
    std::erase_if(pending_, [&](const auto& t) {
      return std::get<0>(t) == r && std::get<1>(t) == c;
    });
    auto [major, minor] = to_major_minor(r, c);
    auto k = main_.find_vec(major);
    if (!k) return;
    for (Index pos = main_.p[*k]; pos < main_.p[*k + 1]; ++pos) {
      Index stored = main_.i[pos];
      if (!is_zombie(stored) && stored == minor) {
        main_.i[pos] |= kZombieBit;
        ++nzombies_;
        return;
      }
    }
  }

  /// GrB_Matrix_extractElement; nullopt encodes GrB_NO_VALUE.
  [[nodiscard]] std::optional<T> extract_element(Index r, Index c) const {
    check_index(r < nrows_ && c < ncols_, "Matrix::extract_element");
    wait();
    auto [major, minor] = to_major_minor(r, c);
    if (main_.form != Format::sparse) {
      // Dense forms: O(1) slot lookup, the point of the bitmap layout.
      const std::size_t s = main_.slot(major, minor);
      if (!main_.slot_present(s)) return std::nullopt;
      return main_.x[s];
    }
    auto k = main_.find_vec(major);
    if (!k) return std::nullopt;
    auto b = main_.i.begin() + static_cast<std::ptrdiff_t>(main_.p[*k]);
    auto e = main_.i.begin() + static_cast<std::ptrdiff_t>(main_.p[*k + 1]);
    auto it = std::lower_bound(b, e, minor);
    if (it == e || *it != minor) return std::nullopt;
    return main_.x[static_cast<std::size_t>(it - main_.i.begin())];
  }

  // --- bulk construction -------------------------------------------------------

  /// GrB_Matrix_build: duplicates combined with `dup`.
  template <class Dup>
  void build(std::span<const Index> rows, std::span<const Index> cols,
             std::span<const T> vals, Dup dup) {
    check_value(rows.size() == cols.size() && rows.size() == vals.size(),
                "Matrix::build sizes");
    check_value(nvals() == 0 && pending_.empty(),
                "Matrix::build on non-empty matrix");
    Buf<std::tuple<Index, Index, T>> t;
    t.reserve(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      check_index(rows[k] < nrows_ && cols[k] < ncols_, "Matrix::build index");
      t.emplace_back(rows[k], cols[k], vals[k]);
    }
    build_tuples(t, dup);
  }

  /// GrB_Matrix_extractTuples (always row, col, value regardless of layout).
  void extract_tuples(std::vector<Index>& rows, std::vector<Index>& cols,
                      std::vector<T>& vals) const {
    // Row-major sorted output regardless of storage orientation (spec:
    // order is implementation-defined; we fix it for determinism).
    const auto& s = by_row();
    rows.clear();
    cols.clear();
    vals.clear();
    rows.reserve(s.nnz());
    cols.reserve(s.nnz());
    vals.reserve(s.nnz());
    for (Index k = 0; k < s.nvec(); ++k) {
      Index r = s.vec_id(k);
      for (Index pos = s.p[k]; pos < s.p[k + 1]; ++pos) {
        rows.push_back(r);
        cols.push_back(s.i[pos]);
        vals.push_back(s.x[pos]);
      }
    }
  }

  /// GrB_Matrix_clear. Strong guarantee: the fresh (one-allocation) empty
  /// store is built before anything is released.
  void clear() {
    SparseStore<T> fresh(major_dim());
    main_ = std::move(fresh);
    pending_.clear();
    nzombies_ = 0;
    invalidate_other();
  }

  /// GrB_Matrix_resize (entries outside the new shape are dropped).
  /// Strong guarantee: the resized matrix is assembled separately and
  /// committed by a noexcept move.
  void resize(Index nrows, Index ncols) {
    wait();
    const auto& s = by_row();
    Matrix m(nrows, ncols, layout_, hyper_mode_);
    m.format_mode_ = format_mode_;
    Buf<std::tuple<Index, Index, T>> keep;
    keep.reserve(s.nnz());
    for (Index k = 0; k < s.nvec(); ++k) {
      Index r = s.vec_id(k);
      if (r >= nrows) continue;
      for (Index pos = s.p[k]; pos < s.p[k + 1]; ++pos)
        if (s.i[pos] < ncols) keep.emplace_back(r, s.i[pos], s.x[pos]);
    }
    m.build_tuples(keep, Second{});
    *this = std::move(m);
  }

  /// GrB_Matrix_dup is just the copy constructor; provided for API parity.
  [[nodiscard]] Matrix dup() const {
    wait();
    return *this;
  }

  // --- orientation views (push/pull duality) ------------------------------------

  /// The matrix in row-major *sparse* form: store.vec_id(k) is a row id,
  /// store.i holds column ids. Built on demand and cached if the primary
  /// layout is by_col or the primary store sits in a dense form (kernels
  /// that walk compressed vectors read through this sparse view).
  [[nodiscard]] const SparseStore<T>& by_row() const {
    wait();
    if (layout_ == Layout::by_row) return main_view();
    return other_store();
  }

  /// The matrix in column-major sparse form.
  [[nodiscard]] const SparseStore<T>& by_col() const {
    wait();
    if (layout_ == Layout::by_col) return main_view();
    return other_store();
  }

  /// The primary store in whatever form it sits in (dense forms included).
  /// Kernels with bitmap-native paths read this; everyone else goes through
  /// by_row()/by_col().
  [[nodiscard]] const SparseStore<T>& raw_store() const {
    wait();
    return main_;
  }

  /// True if asking for this orientation costs O(1) right now (already the
  /// primary layout, or the dual cache is valid).
  [[nodiscard]] bool orientation_ready(Layout want) const noexcept {
    return layout_ == want || other_valid_;
  }

  /// Precompute and keep both orientations (GraphBLAST's dual-format mode;
  /// doubles memory, enables free push/pull switching).
  void ensure_dual_format() const { (void)other_store(); }

  /// Drop the cached dual orientation (memory-lean single-format mode).
  /// No-op on a frozen matrix: concurrent readers rely on the warm caches.
  void drop_dual_format() const {
    if (frozen_) return;
    other_.reset();
    other_valid_ = false;
  }

  // --- snapshot isolation (serving layer) --------------------------------------

  /// True when this object is an immutable published snapshot (see freeze).
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// Pre-materialise every logically-const cache a reader could demand —
  /// pending work, the sparse view of a dense-form store, and the dual
  /// orientation — so concurrent reads through the const interface touch no
  /// mutable state. The accessors need no changes: their lazy branches all
  /// observe valid caches after this.
  void freeze() const {
    wait();
    if (frozen_) return;
    (void)main_view();
    (void)other_store();
    frozen_ = true;
  }

  /// Cheap copy-on-write snapshot: an immutable, frozen copy of the current
  /// value, cached until the next mutation (repeat snapshots of an unchanged
  /// matrix share one frozen object). Call only from the owning thread; the
  /// returned object is safe for any number of concurrent readers.
  [[nodiscard]] std::shared_ptr<const Matrix> snapshot() const {
    wait();
    if (!snap_) {
      auto s = std::make_shared<Matrix>(*this);
      s->freeze();
      snap_ = std::move(s);
    }
    return snap_;
  }

  // --- import / export (§IV, bench C6) ------------------------------------------

  /// O(1) import of CSR arrays: the buffers are *moved* in, no copy. `p` has
  /// size nrows+1, `i[p[r]..p[r+1])` are the (sorted) column ids of row r.
  static Matrix import_csr(Index nrows, Index ncols, Buf<Index>&& p,
                           Buf<Index>&& i, Buf<T>&& x) {
    return import_any(nrows, ncols, Layout::by_row, std::move(p), std::move(i),
                      std::move(x));
  }

  /// O(1) import of CSC arrays (`p` has size ncols+1, `i` holds row ids).
  static Matrix import_csc(Index nrows, Index ncols, Buf<Index>&& p,
                           Buf<Index>&& i, Buf<T>&& x) {
    return import_any(nrows, ncols, Layout::by_col, std::move(p), std::move(i),
                      std::move(x));
  }

  /// O(1) export: moves the arrays out; the matrix is left empty, exactly as
  /// the "move constructor" strategy in §IV describes. If the matrix is
  /// hypersparse it is first inflated to the standard pointer array (O(n));
  /// if stored by column it is transposed first (O(e)) — "only the
  /// performance differs" (§IV).
  struct CsArrays {
    Index nrows = 0, ncols = 0;
    Buf<Index> p, i;
    Buf<T> x;
  };

  [[nodiscard]] CsArrays export_csr() {
    wait();
    main_.to_sparse_form();
    if (layout_ != Layout::by_row) {
      main_ = main_.transposed(major_dim() == nrows_ ? ncols_ : nrows_);
      layout_ = Layout::by_row;
      invalidate_other();
    }
    main_.unhyperize();
    return export_current();
  }

  [[nodiscard]] CsArrays export_csc() {
    wait();
    main_.to_sparse_form();
    if (layout_ != Layout::by_col) {
      main_ = main_.transposed(ncols_);
      layout_ = Layout::by_col;
      invalidate_other();
    }
    main_.unhyperize();
    return export_current();
  }

  /// O(1) export of the dense (bitmap/full) arrays; the matrix must sit in a
  /// dense form (convert with set_format first). `b` is empty for full. The
  /// matrix is left empty, mirroring export_csr.
  struct DenseArrays {
    Index nrows = 0, ncols = 0;
    Format form = Format::bitmap;
    Index bnvals = 0;
    Buf<std::uint8_t> b;
    Buf<T> x;
  };

  [[nodiscard]] DenseArrays export_dense() {
    wait();
    check_value(main_.form != Format::sparse,
                "Matrix::export_dense on a sparse matrix");
    if (layout_ != Layout::by_row) {
      main_ = main_.transposed(nrows_);
      layout_ = Layout::by_row;
    }
    SparseStore<T> fresh(major_dim());
    DenseArrays out;
    out.nrows = nrows_;
    out.ncols = ncols_;
    out.form = main_.form;
    out.bnvals = main_.bnvals;
    out.b = std::move(main_.b);
    out.x = std::move(main_.x);
    main_ = std::move(fresh);
    pending_.clear();
    nzombies_ = 0;
    invalidate_other();
    return out;
  }

  /// O(1) import of row-major dense arrays: x has nrows*ncols slots; b is a
  /// presence byte per slot for bitmap, empty for full.
  static Matrix import_dense(Index nrows, Index ncols, Format form,
                             Buf<std::uint8_t>&& b, Buf<T>&& x) {
    check_value(form != Format::sparse, "Matrix::import_dense form");
    check_value(dense_form_addressable(nrows, ncols),
                "Matrix::import_dense dimensions");
    const std::size_t slots = static_cast<std::size_t>(nrows) * ncols;
    check_value(x.size() == slots, "Matrix::import_dense value array size");
    check_value(form == Format::full ? b.empty() : b.size() == slots,
                "Matrix::import_dense presence array size");
    Matrix m(nrows, ncols, Layout::by_row);
    SparseStore<T> s(nrows);
    s.hyper = false;
    Buf<Index>().swap(s.p);
    s.mdim = ncols;
    s.form = form;
    if (form == Format::bitmap) {
      Index cnt = 0;
      for (std::uint8_t v : b)
        if (v) ++cnt;
      s.bnvals = cnt;
    }
    s.b = std::move(b);
    s.x = std::move(x);
    m.main_ = std::move(s);
    return m;
  }

  // --- kernel publication API -----------------------------------------------

  /// Replace contents with a ready-made store of the given orientation.
  /// Kernels build results as stores and publish them here; the storage-form
  /// and hypersparsity policies are applied. Strong guarantee: the policies
  /// (which may allocate) run on the incoming store *before* the noexcept
  /// commit.
  void adopt(SparseStore<T>&& s, Layout layout) {
    const Index mdim = layout == Layout::by_row ? nrows_ : ncols_;
    const Index ndim = layout == Layout::by_row ? ncols_ : nrows_;
    apply_format_policy_to(s, mdim, ndim);
    if (s.form == Format::sparse) apply_hyper_policy_to(s, mdim);
    // Commit: nothing below can throw.
    layout_ = layout;
    main_ = std::move(s);
    nzombies_ = 0;
    pending_.clear();
    invalidate_other();
  }

  // --- non-blocking materialisation ----------------------------------------

  /// GrB_Matrix_wait: kill zombies + assemble pending tuples in one pass.
  /// Strong guarantee: each step either pre-reserves exactly before touching
  /// the store in place, or builds scratch and commits by move; `pending_`
  /// survives until its merge has committed.
  void wait() const {
    if (pending_.empty() && nzombies_ == 0) return;
    // Zombie sweep: compact in place, rebuilding the pointer array. The
    // exact reserve up front is the only allocation; after it, the loop
    // cannot throw.
    if (nzombies_ > 0) {
      Buf<Index> np;
      np.reserve(main_.p.size());
      np.push_back(0);
      std::size_t out = 0;
      for (Index k = 0; k < main_.nvec(); ++k) {
        for (Index pos = main_.p[k]; pos < main_.p[k + 1]; ++pos) {
          if (!is_zombie(main_.i[pos])) {
            main_.i[out] = main_.i[pos];
            main_.x[out] = main_.x[pos];
            ++out;
          }
        }
        np.push_back(static_cast<Index>(out));
      }
      main_.i.resize(out);
      main_.x.resize(out);
      main_.p = std::move(np);
      if (main_.hyper) {
        // Drop now-empty hyper vectors (exact reserve, then nofail pushes).
        Buf<Index> nh;
        Buf<Index> np2;
        nh.reserve(main_.h.size());
        np2.reserve(main_.p.size());
        np2.push_back(0);
        for (std::size_t k = 0; k < main_.h.size(); ++k) {
          if (main_.p[k + 1] > main_.p[k]) {
            nh.push_back(main_.h[k]);
            np2.push_back(main_.p[k + 1]);
          }
        }
        main_.h = std::move(nh);
        main_.p = std::move(np2);
      }
      nzombies_ = 0;
    }
    // Pending assembly: sort the pending list in place (reordering does not
    // change the observable value), merge into a scratch store, and only
    // clear `pending_` once the merge has committed.
    if (!pending_.empty()) {
      const bool by_row = layout_ == Layout::by_row;
      std::stable_sort(pending_.begin(), pending_.end(),
                       [by_row](const auto& a, const auto& b) {
                         Index am = by_row ? std::get<0>(a) : std::get<1>(a);
                         Index bm = by_row ? std::get<0>(b) : std::get<1>(b);
                         Index an = by_row ? std::get<1>(a) : std::get<0>(a);
                         Index bn = by_row ? std::get<1>(b) : std::get<0>(b);
                         return std::tie(am, an) < std::tie(bm, bn);
                       });
      merge_sorted_tuples(pending_);
      pending_.clear();
    }
    apply_hyper_policy();
  }

  [[nodiscard]] bool has_pending_work() const noexcept {
    return !pending_.empty() || nzombies_ > 0;
  }

  [[nodiscard]] Index pending_count() const noexcept {
    return static_cast<Index>(pending_.size());
  }
  [[nodiscard]] Index zombie_count() const noexcept { return nzombies_; }

  /// Bytes held by the opaque object (primary + cached dual + pending).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t b = main_.memory_bytes() +
                    pending_.capacity() * sizeof(std::tuple<Index, Index, T>);
    if (other_) b += other_->memory_bytes();
    if (sview_) b += sview_->memory_bytes();
    return b;
  }

 private:
  template <class U>
  friend struct DebugAccess;

  static constexpr Index kZombieBit = Index{1} << 63;
  [[nodiscard]] static constexpr bool is_zombie(Index i) noexcept {
    return (i & kZombieBit) != 0;
  }

  [[nodiscard]] Index major_dim() const noexcept {
    return layout_ == Layout::by_row ? nrows_ : ncols_;
  }
  [[nodiscard]] Index minor_dim() const noexcept {
    return layout_ == Layout::by_row ? ncols_ : nrows_;
  }

  [[nodiscard]] std::pair<Index, Index> to_major_minor(Index r,
                                                       Index c) const noexcept {
    return layout_ == Layout::by_row ? std::pair{r, c} : std::pair{c, r};
  }
  [[nodiscard]] std::pair<Index, Index> from_major_minor(
      Index major, Index minor) const noexcept {
    return layout_ == Layout::by_row ? std::pair{major, minor}
                                     : std::pair{minor, major};
  }

  static Matrix import_any(Index nrows, Index ncols, Layout layout,
                           Buf<Index>&& p, Buf<Index>&& i, Buf<T>&& x) {
    check_value(p.size() == (layout == Layout::by_row ? nrows : ncols) + 1,
                "Matrix::import pointer array size");
    check_value(i.size() == x.size(), "Matrix::import index/value size");
    Matrix m(nrows, ncols, layout, HyperMode::never);
    m.main_.hyper = false;
    m.main_.h.clear();
    m.main_.p = std::move(p);
    m.main_.i = std::move(i);
    m.main_.x = std::move(x);
    m.hyper_mode_ = HyperMode::auto_mode;
    return m;
  }

  /// Move the standard-format arrays out and leave the matrix empty. The
  /// replacement empty store is constructed *before* the moves so nothing
  /// can throw once extraction starts.
  [[nodiscard]] CsArrays export_current() {
    SparseStore<T> fresh(major_dim());
    CsArrays out;
    out.nrows = nrows_;
    out.ncols = ncols_;
    out.p = std::move(main_.p);
    out.i = std::move(main_.i);
    out.x = std::move(main_.x);
    main_ = std::move(fresh);
    pending_.clear();
    nzombies_ = 0;
    invalidate_other();
    return out;
  }

  /// Sort-and-dedup tuple list into the main store. Tuples are (r, c, v).
  /// Strong guarantee: assembles a scratch store, commits by move.
  template <class Dup>
  void build_tuples(Buf<std::tuple<Index, Index, T>>& t, Dup dup) {
    const bool by_row = layout_ == Layout::by_row;
    std::stable_sort(t.begin(), t.end(), [by_row](const auto& a, const auto& b) {
      Index am = by_row ? std::get<0>(a) : std::get<1>(a);
      Index bm = by_row ? std::get<0>(b) : std::get<1>(b);
      Index an = by_row ? std::get<1>(a) : std::get<0>(a);
      Index bn = by_row ? std::get<1>(b) : std::get<0>(b);
      return std::tie(am, an) < std::tie(bm, bn);
    });
    // Build hypersparse (O(nnz) regardless of the dimension); the policy
    // inflates to standard afterwards when dense enough.
    SparseStore<T> s(major_dim());
    s.i.reserve(t.size());
    s.x.reserve(t.size());
    Index prev_major = all_indices, prev_minor = all_indices;
    for (const auto& [r, c, v] : t) {
      auto [major, minor] = to_major_minor(r, c);
      if (major == prev_major && minor == prev_minor) {
        s.x.back() = dup(s.x.back(), v);
        continue;
      }
      if (major != prev_major) {
        if (prev_major != all_indices) {
          s.p.push_back(static_cast<Index>(s.i.size()));
        }
        s.h.push_back(major);
      }
      s.i.push_back(minor);
      s.x.push_back(v);
      prev_major = major;
      prev_minor = minor;
    }
    if (prev_major != all_indices) {
      s.p.push_back(static_cast<Index>(s.i.size()));
    }
    apply_format_policy_to(s, major_dim(), minor_dim());
    if (s.form == Format::sparse) apply_hyper_policy_to(s, major_dim());
    // Commit: nothing below can throw.
    main_ = std::move(s);
    pending_.clear();
    nzombies_ = 0;
    invalidate_other();
  }

  /// Merge tuples (sorted by major, minor; later duplicates overwrite) into
  /// the existing store. setElement semantics: new value replaces old.
  /// Builds a scratch store and commits by move; the caller clears the
  /// pending list afterwards.
  void merge_sorted_tuples(
      std::span<const std::tuple<Index, Index, T>> t) const {
    const bool by_row = layout_ == Layout::by_row;
    SparseStore<T> out(major_dim());  // empty hypersparse
    out.i.reserve(main_.nnz() + t.size());
    out.x.reserve(main_.nnz() + t.size());

    Index ks = 0;       // cursor over stored vectors
    std::size_t b = 0;  // cursor into tuples
    while (ks < main_.nvec() || b < t.size()) {
      Index ms = ks < main_.nvec() ? main_.vec_id(ks) : all_indices;
      Index mt = b < t.size() ? tuple_major(t[b], by_row) : all_indices;
      Index major = ms < mt ? ms : mt;
      Index pos = 0, end = 0;
      if (ms == major) {
        pos = main_.vec_begin(ks);
        end = main_.vec_end(ks);
        ++ks;
      }
      while (pos < end || (b < t.size() && tuple_major(t[b], by_row) == major)) {
        bool take_tuple;
        Index tminor = 0;
        if (b < t.size() && tuple_major(t[b], by_row) == major) {
          tminor = tuple_minor(t[b], by_row);
          take_tuple = (pos >= end) || tminor <= main_.i[pos];
        } else {
          take_tuple = false;
        }
        if (take_tuple) {
          // Collapse duplicate pending writes at one slot: last wins.
          T v = std::get<2>(t[b]);
          ++b;
          while (b < t.size() && tuple_major(t[b], by_row) == major &&
                 tuple_minor(t[b], by_row) == tminor) {
            v = std::get<2>(t[b]);
            ++b;
          }
          if (pos < end && main_.i[pos] == tminor) ++pos;  // overwrite stored
          out.i.push_back(tminor);
          out.x.push_back(v);
        } else {
          out.i.push_back(main_.i[pos]);
          out.x.push_back(main_.x[pos]);
          ++pos;
        }
      }
      if (static_cast<Index>(out.i.size()) > out.p.back()) {
        out.h.push_back(major);
        out.p.push_back(static_cast<Index>(out.i.size()));
      }
    }
    main_ = std::move(out);
  }

  [[nodiscard]] static Index tuple_major(
      const std::tuple<Index, Index, T>& t, bool by_row) noexcept {
    return by_row ? std::get<0>(t) : std::get<1>(t);
  }
  [[nodiscard]] static Index tuple_minor(
      const std::tuple<Index, Index, T>& t, bool by_row) noexcept {
    return by_row ? std::get<1>(t) : std::get<0>(t);
  }

  /// The storage-form policy applied to a store before it is committed
  /// (adopt, build, set_format). Forced modes convert with graceful
  /// degradation (full -> bitmap -> sparse when the preferred form cannot
  /// represent the value or address its dense arrays); auto mode applies the
  /// density thresholds — promote to bitmap at >= kBitmapSwitch, demote back
  /// to sparse below kSparseSwitch (hysteresis so results oscillating around
  /// one threshold do not convert every call), and collapse bitmap -> full
  /// when every slot is present.
  static constexpr double kBitmapSwitch = 0.25;
  static constexpr double kSparseSwitch = 1.0 / 16.0;

  void apply_format_policy_to(SparseStore<T>& s, Index mdim,
                              Index ndim) const {
    const bool addressable = dense_form_addressable(mdim, ndim);
    const Index cnt = s.nnz();
    const double density =
        addressable && cnt > 0
            ? static_cast<double>(cnt) /
                  (static_cast<double>(mdim) * static_cast<double>(ndim))
            : 0.0;
    switch (format_mode_) {
      case FormatMode::sparse:
        s.to_sparse_form();
        break;
      case FormatMode::bitmap:
        if (addressable && cnt > 0) {
          s.to_bitmap(ndim);
        } else {
          s.to_sparse_form();
        }
        break;
      case FormatMode::full:
        if (addressable && cnt == mdim * ndim && cnt > 0) {
          s.to_full(ndim);
        } else if (addressable && cnt > 0) {
          s.to_bitmap(ndim);
        } else {
          s.to_sparse_form();
        }
        break;
      case FormatMode::auto_fmt:
        if (s.form == Format::sparse) {
          // An explicit always-hypersparse request outranks auto promotion:
          // the caller asked for the compressed layout by name.
          if (addressable && density >= kBitmapSwitch &&
              hyper_mode_ != HyperMode::always) {
            if (cnt == mdim * ndim) {
              s.to_full(ndim);
            } else {
              s.to_bitmap(ndim);
            }
          }
        } else if (s.form == Format::bitmap) {
          if (cnt == mdim * ndim && cnt > 0) {
            s.to_full(ndim);
          } else if (density < kSparseSwitch) {
            s.to_sparse_form();
          }
        }
        // full stays full until entries are removed (remove_element demotes).
        break;
    }
  }

  /// The hypersparsity policy applied to an arbitrary store with the given
  /// major dimension's policy target. Used to prepare scratch stores before
  /// they are committed. Dense forms are outside its jurisdiction.
  void apply_hyper_policy_to(SparseStore<T>& s, Index mdim) const {
    if (s.form != Format::sparse) return;
    switch (hyper_mode_) {
      case HyperMode::always:
        s.hyperize();
        break;
      case HyperMode::never:
        s.unhyperize();
        break;
      case HyperMode::auto_mode: {
        Index nonempty = s.nvec_nonempty();
        if (!s.hyper && mdim >= kHyperRatio &&
            nonempty < mdim / kHyperRatio) {
          s.hyperize();
        } else if (s.hyper && nonempty >= mdim / kHyperRatio) {
          s.unhyperize();
        }
        break;
      }
    }
  }

  void apply_hyper_policy() const { apply_hyper_policy_to(main_, major_dim()); }

  /// The primary store in sparse form: main_ itself when sparse, else a
  /// cached sparse copy (kernels that walk compressed vectors read through
  /// this; the cache is a logically-const materialisation like other_).
  [[nodiscard]] const SparseStore<T>& main_view() const {
    if (main_.form == Format::sparse) return main_;
    if (!sview_valid_) {
      sview_ = main_.sparse_form_copy();
      apply_hyper_policy_to(*sview_, major_dim());
      sview_valid_ = true;
    }
    return *sview_;
  }

  [[nodiscard]] const SparseStore<T>& other_store() const {
    wait();
    if (!other_valid_) {
      other_ = main_view().transposed(minor_dim());
      if (hyper_mode_ == HyperMode::always ||
          (hyper_mode_ == HyperMode::auto_mode && minor_dim() >= kHyperRatio &&
           other_->nvec_nonempty() < minor_dim() / kHyperRatio)) {
        other_->hyperize();
      }
      other_valid_ = true;
    }
    return *other_;
  }

  void invalidate_other() const {
    other_.reset();
    other_valid_ = false;
    invalidate_views();
  }

  /// Every mutation reaches here: it names the new value and drops the
  /// caches of the old one.
  void invalidate_views() const {
    sview_.reset();
    sview_valid_ = false;
    frozen_ = false;    // mutation: this object is no longer a published view
    snap_.reset();      // and any cached snapshot keeps the pre-write value
    gen_.value = detail::Generation::fresh();
  }

  Index nrows_ = 0;
  Index ncols_ = 0;
  Layout layout_ = Layout::by_row;
  HyperMode hyper_mode_ = HyperMode::auto_mode;

  FormatMode format_mode_ = default_format_mode();

  // Mutable: wait(), format changes, the dual-orientation cache, and the
  // sparse view of a dense-form store are all logically-const
  // materialisations of the same opaque value.
  mutable SparseStore<T> main_{};
  mutable std::optional<SparseStore<T>> other_{};
  mutable bool other_valid_ = false;
  mutable std::optional<SparseStore<T>> sview_{};
  mutable bool sview_valid_ = false;
  mutable Buf<std::tuple<Index, Index, T>> pending_;
  mutable Index nzombies_ = 0;
  mutable bool frozen_ = false;  // immutable published snapshot
  mutable std::shared_ptr<const Matrix<T>> snap_;  // cached COW snapshot
  mutable detail::Generation gen_;
};

}  // namespace gb
