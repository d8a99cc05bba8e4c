// GrB_Matrix object semantics.
#include <gtest/gtest.h>

#include "graphblas/graphblas.hpp"

using gb::Index;
using gb::Matrix;
using gb::Vector;

TEST(Matrix, EmptyAndShape) {
  Matrix<double> a(3, 5);
  EXPECT_EQ(a.nrows(), 3u);
  EXPECT_EQ(a.ncols(), 5u);
  EXPECT_EQ(a.nvals(), 0u);
}

TEST(Matrix, SetExtractRemove) {
  Matrix<double> a(4, 4);
  a.set_element(1, 2, 1.5);
  a.set_element(3, 0, 3.5);
  EXPECT_EQ(a.nvals(), 2u);
  EXPECT_EQ(a.extract_element(1, 2).value(), 1.5);
  EXPECT_FALSE(a.extract_element(0, 0).has_value());
  a.remove_element(1, 2);
  EXPECT_EQ(a.nvals(), 1u);
  EXPECT_FALSE(a.extract_element(1, 2).has_value());
  EXPECT_THROW(a.set_element(4, 0, 1.0), gb::Error);
  EXPECT_THROW((void)a.extract_element(0, 9), gb::Error);
}

TEST(Matrix, SetOverwritesAndRemoveAfterWait) {
  Matrix<int> a(3, 3);
  a.set_element(0, 0, 1);
  a.set_element(0, 0, 2);
  EXPECT_EQ(a.nvals(), 1u);  // forces the wait
  EXPECT_EQ(a.extract_element(0, 0).value(), 2);
  // Now the entry is in the materialised store; removal uses a zombie.
  a.remove_element(0, 0);
  EXPECT_EQ(a.nvals(), 0u);
}

TEST(Matrix, BuildWithDuplicates) {
  Matrix<double> a(3, 3);
  std::vector<Index> r = {0, 1, 0, 2, 0};
  std::vector<Index> c = {1, 2, 1, 0, 2};
  std::vector<double> v = {1, 2, 3, 4, 5};
  a.build(r, c, v, gb::Plus{});
  EXPECT_EQ(a.nvals(), 4u);
  EXPECT_EQ(a.extract_element(0, 1).value(), 4.0);  // 1+3
  EXPECT_EQ(a.extract_element(2, 0).value(), 4.0);
}

TEST(Matrix, BuildRejectsNonEmpty) {
  Matrix<double> a(2, 2);
  a.set_element(0, 0, 1.0);
  std::vector<Index> r = {1}, c = {1};
  std::vector<double> v = {1.0};
  EXPECT_THROW(a.build(r, c, v, gb::Plus{}), gb::Error);
}

TEST(Matrix, ExtractTuplesRowMajorSorted) {
  Matrix<int> a(3, 3);
  a.set_element(2, 0, 1);
  a.set_element(0, 2, 2);
  a.set_element(0, 1, 3);
  std::vector<Index> r, c;
  std::vector<int> v;
  a.extract_tuples(r, c, v);
  EXPECT_EQ(r, (std::vector<Index>{0, 0, 2}));
  EXPECT_EQ(c, (std::vector<Index>{1, 2, 0}));
  EXPECT_EQ(v, (std::vector<int>{3, 2, 1}));
}

TEST(Matrix, IdentityAndDiag) {
  auto i3 = Matrix<double>::identity(3, 2.0);
  EXPECT_EQ(i3.nvals(), 3u);
  EXPECT_EQ(i3.extract_element(1, 1).value(), 2.0);
  EXPECT_FALSE(i3.extract_element(0, 1).has_value());

  Vector<double> v(4);
  v.set_element(1, 5.0);
  v.set_element(3, 7.0);
  auto d = Matrix<double>::diag(v);
  EXPECT_EQ(d.nvals(), 2u);
  EXPECT_EQ(d.extract_element(3, 3).value(), 7.0);
}

TEST(Matrix, ResizeDropsOutOfRange) {
  Matrix<double> a(4, 4);
  a.set_element(0, 0, 1.0);
  a.set_element(3, 3, 2.0);
  a.set_element(1, 3, 3.0);
  a.resize(2, 2);
  EXPECT_EQ(a.nrows(), 2u);
  EXPECT_EQ(a.nvals(), 1u);
  a.resize(8, 8);
  EXPECT_EQ(a.nvals(), 1u);
  EXPECT_EQ(a.extract_element(0, 0).value(), 1.0);
}

TEST(Matrix, DupIsDeepCopy) {
  Matrix<double> a(2, 2);
  a.set_element(0, 1, 1.0);
  auto b = a.dup();
  b.set_element(1, 0, 2.0);
  EXPECT_EQ(a.nvals(), 1u);
  EXPECT_EQ(b.nvals(), 2u);
}

TEST(Matrix, ClearKeepsShape) {
  Matrix<double> a(5, 7);
  a.set_element(4, 6, 1.0);
  a.clear();
  EXPECT_EQ(a.nvals(), 0u);
  EXPECT_EQ(a.nrows(), 5u);
  EXPECT_EQ(a.ncols(), 7u);
}

TEST(Matrix, MemoryBytesGrowsWithEntries) {
  Matrix<double> a(100, 100);
  auto empty_bytes = a.memory_bytes();
  std::vector<Index> r, c;
  std::vector<double> v;
  for (Index i = 0; i < 100; ++i) {
    r.push_back(i);
    c.push_back((i * 7) % 100);
    v.push_back(1.0);
  }
  a.build(r, c, v, gb::Plus{});
  EXPECT_GT(a.memory_bytes(), empty_bytes);
}

TEST(Matrix, BoolMatrixWorks) {
  Matrix<bool> a(3, 3);
  a.set_element(0, 1, true);
  a.set_element(1, 2, true);
  EXPECT_EQ(a.nvals(), 2u);
  EXPECT_EQ(a.extract_element(0, 1).value(), true);
}

// --- the generation contract ---------------------------------------------------
// generation() names a matrix's value: it must change at every mutation (a
// cache keyed on it would otherwise serve a stale value) and must not change
// on a read (a cache keyed on it would otherwise never hit).

namespace {

Matrix<double> small_matrix() {
  Matrix<double> a(4, 4);
  a.set_element(0, 1, 1.0);
  a.set_element(1, 2, 2.0);
  a.set_element(3, 0, 3.0);
  return a;
}

template <class F>
bool mutation_changes_generation(Matrix<double>& a, F&& mutate) {
  const std::uint64_t before = a.generation();
  mutate(a);
  return a.generation() != before;
}

}  // namespace

TEST(MatrixGeneration, EveryMutatorChangesIt) {
  auto a = small_matrix();
  EXPECT_TRUE(mutation_changes_generation(
      a, [](auto& m) { m.set_element(2, 2, 5.0); }));
  EXPECT_TRUE(mutation_changes_generation(
      a, [](auto& m) { m.remove_element(2, 2); }));
  EXPECT_TRUE(mutation_changes_generation(a, [](auto& m) { m.clear(); }));
  std::vector<Index> r = {0, 2}, c = {3, 1};
  std::vector<double> v = {4.0, 6.0};
  EXPECT_TRUE(mutation_changes_generation(
      a, [&](auto& m) { m.build(r, c, v, gb::Plus{}); }));
  EXPECT_TRUE(mutation_changes_generation(
      a, [](auto& m) { m.resize(6, 6); }));
  EXPECT_TRUE(mutation_changes_generation(
      a, [](auto& m) { m.set_format(gb::FormatMode::bitmap); }));
  // A store committed through adopt, directly and as a kernel's output.
  EXPECT_TRUE(mutation_changes_generation(a, [](auto& m) {
    gb::SparseStore<double> s = small_matrix().by_row();
    m.adopt(std::move(s), gb::Layout::by_row);
  }));
  const auto b = Matrix<double>::identity(6, 2.0);  // a is 6 x 6 by now
  EXPECT_TRUE(mutation_changes_generation(a, [&](auto& m) {
    gb::mxm(m, gb::no_mask, gb::no_accum, gb::plus_times<double>(), b, b);
  }));
  // Elementwise writes into a dense form change it too.
  EXPECT_TRUE(mutation_changes_generation(
      a, [](auto& m) { m.set_element(0, 0, 8.0); }));
}

TEST(MatrixGeneration, ExportsChangeIt) {
  auto a = small_matrix();
  EXPECT_TRUE(mutation_changes_generation(
      a, [](auto& m) { (void)m.export_csr(); }));
  a = small_matrix();
  EXPECT_TRUE(mutation_changes_generation(
      a, [](auto& m) { (void)m.export_csc(); }));
  a = small_matrix();
  a.set_format(gb::FormatMode::bitmap);
  EXPECT_TRUE(mutation_changes_generation(
      a, [](auto& m) { (void)m.export_dense(); }));
}

TEST(MatrixGeneration, MovesHandTheNumberOverAndRenewTheSource) {
  auto a = small_matrix();
  const std::uint64_t ga = a.generation();
  Matrix<double> moved(std::move(a));
  EXPECT_EQ(moved.generation(), ga);  // same value, same number
  EXPECT_NE(a.generation(), ga);      // NOLINT(bugprone-use-after-move)

  auto b = small_matrix();
  const std::uint64_t gb_before = b.generation();
  Matrix<double> target = small_matrix();
  const std::uint64_t gt = target.generation();
  target = std::move(b);
  EXPECT_NE(target.generation(), gt);
  EXPECT_EQ(target.generation(), gb_before);
  EXPECT_NE(b.generation(), gb_before);  // NOLINT(bugprone-use-after-move)
}

TEST(MatrixGeneration, ReadersKeepIt) {
  auto a = small_matrix();
  const std::uint64_t g = a.generation();
  (void)a.nvals();
  std::vector<Index> r, c;
  std::vector<double> v;
  a.extract_tuples(r, c, v);
  (void)a.by_col();
  a.ensure_dual_format();
  a.freeze();
  const auto snap = a.snapshot();
  EXPECT_EQ(a.generation(), g);
  EXPECT_EQ(snap->generation(), g);  // a snapshot is a copy of the value
}

TEST(MatrixGeneration, CopiesShareItAndNumbersAreNeverReused) {
  auto a = small_matrix();
  const auto d = a.dup();
  EXPECT_EQ(d.generation(), a.generation());
  Matrix<double> copy = a;
  EXPECT_EQ(copy.generation(), a.generation());
  copy.set_element(2, 3, 1.0);  // the copy diverges; the source does not
  EXPECT_NE(copy.generation(), a.generation());

  // Two matrices with equal contents built one after the other (possibly at
  // the same address) still get different numbers.
  std::uint64_t first = 0;
  {
    auto t = small_matrix();
    first = t.generation();
  }
  auto t2 = small_matrix();
  EXPECT_NE(t2.generation(), first);
}
