// GrB_Vector object semantics: element access, bulk build, resize, and the
// sparse/dense dual representation of Fig. 3.
#include <gtest/gtest.h>

#include "graphblas/graphblas.hpp"

using gb::Index;
using gb::Vector;

TEST(Vector, EmptyAndSize) {
  Vector<double> v(10);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.nvals(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.density(), 0.0);
}

TEST(Vector, SetExtractRemove) {
  Vector<double> v(5);
  v.set_element(1, 1.5);
  v.set_element(3, 3.5);
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_EQ(v.extract_element(1).value(), 1.5);
  EXPECT_EQ(v.extract_element(3).value(), 3.5);
  EXPECT_FALSE(v.extract_element(0).has_value());
  v.remove_element(1);
  EXPECT_EQ(v.nvals(), 1u);
  EXPECT_FALSE(v.extract_element(1).has_value());
  // Removing an absent element is a no-op, not an error.
  EXPECT_NO_THROW(v.remove_element(0));
  EXPECT_THROW(v.set_element(5, 1.0), gb::Error);
  EXPECT_THROW((void)v.extract_element(99), gb::Error);
}

TEST(Vector, SetOverwrites) {
  Vector<int> v(4);
  v.set_element(2, 10);
  v.set_element(2, 20);
  EXPECT_EQ(v.nvals(), 1u);
  EXPECT_EQ(v.extract_element(2).value(), 20);
}

TEST(Vector, BuildWithDuplicates) {
  Vector<double> v(6);
  std::vector<Index> idx = {4, 1, 4, 2, 1, 1};
  std::vector<double> val = {1, 2, 3, 4, 5, 6};
  v.build(idx, val, gb::Plus{});
  EXPECT_EQ(v.nvals(), 3u);
  EXPECT_EQ(v.extract_element(1).value(), 13.0);  // 2+5+6
  EXPECT_EQ(v.extract_element(2).value(), 4.0);
  EXPECT_EQ(v.extract_element(4).value(), 4.0);  // 1+3
}

TEST(Vector, BuildSortedInputKeepsItsOrder) {
  Vector<double> v(8);
  std::vector<Index> idx = {0, 2, 3, 7};
  std::vector<double> val = {1.5, -2, 0, 9};
  v.build(idx, val, gb::Plus{});
  std::vector<Index> oi;
  std::vector<double> ov;
  v.extract_tuples(oi, ov);
  EXPECT_EQ(oi, idx);
  EXPECT_EQ(ov, val);
  // A bad index ends the check before anything is committed.
  Vector<double> w(4);
  std::vector<Index> bad = {0, 1, 9};
  std::vector<double> bval = {1, 2, 3};
  EXPECT_THROW(w.build(bad, bval, gb::Plus{}), gb::Error);
  EXPECT_EQ(w.nvals(), 0u);
}

TEST(Vector, BuildCombinesDuplicatesInInputOrder) {
  // Minus is not commutative, so the result shows the combine order:
  // dup(dup(first, second), third) at each index, in input order.
  Vector<double> unsorted(6);
  std::vector<Index> idx = {3, 1, 3, 5, 3};
  std::vector<double> val = {10, 1, 4, 7, 2};
  unsorted.build(idx, val, gb::Minus{});
  EXPECT_EQ(unsorted.nvals(), 3u);
  EXPECT_EQ(unsorted.extract_element(3).value(), 4.0);  // (10-4)-2
  EXPECT_EQ(unsorted.extract_element(1).value(), 1.0);
  // Non-decreasing input with a repeat is not strictly increasing: the
  // repeat still combines.
  Vector<double> repeated(4);
  std::vector<Index> ridx = {0, 1, 1, 1, 2};
  std::vector<double> rval = {5, 7, 2, 1, 9};
  repeated.build(ridx, rval, gb::Minus{});
  EXPECT_EQ(repeated.nvals(), 3u);
  EXPECT_EQ(repeated.extract_element(1).value(), 4.0);  // (7-2)-1
  Vector<double> last(4);
  last.build(ridx, rval, gb::Second{});
  EXPECT_EQ(last.extract_element(1).value(), 1.0);
}

TEST(Vector, BuildRejectsBadInput) {
  Vector<double> v(3);
  std::vector<Index> idx = {7};
  std::vector<double> val = {1.0};
  EXPECT_THROW(v.build(idx, val, gb::Plus{}), gb::Error);
  Vector<double> w(3);
  w.set_element(0, 1.0);
  std::vector<Index> idx2 = {1};
  EXPECT_THROW(w.build(idx2, val, gb::Plus{}), gb::Error);  // non-empty
}

TEST(Vector, ExtractTuplesSorted) {
  Vector<int> v(10);
  v.set_element(7, 70);
  v.set_element(2, 20);
  v.set_element(5, 50);
  std::vector<Index> idx;
  std::vector<int> val;
  v.extract_tuples(idx, val);
  EXPECT_EQ(idx, (std::vector<Index>{2, 5, 7}));
  EXPECT_EQ(val, (std::vector<int>{20, 50, 70}));
}

TEST(Vector, ClearAndResize) {
  Vector<double> v(8);
  for (Index i = 0; i < 8; i += 2) v.set_element(i, static_cast<double>(i));
  EXPECT_EQ(v.nvals(), 4u);
  v.resize(5);  // keeps 0,2,4
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.nvals(), 3u);
  v.resize(20);
  EXPECT_EQ(v.size(), 20u);
  EXPECT_EQ(v.nvals(), 3u);
  v.clear();
  EXPECT_EQ(v.nvals(), 0u);
  EXPECT_EQ(v.size(), 20u);
}

TEST(Vector, FullConstructor) {
  auto v = Vector<double>::full(6, 2.5);
  EXPECT_EQ(v.nvals(), 6u);
  EXPECT_TRUE(v.is_dense_rep());
  for (Index i = 0; i < 6; ++i) EXPECT_EQ(v.extract_element(i).value(), 2.5);
}

TEST(Vector, DualRepresentationRoundTrip) {
  // The Fig. 3 duality: observable value is invariant under representation.
  Vector<double> v(100);
  for (Index i = 0; i < 100; i += 7) v.set_element(i, static_cast<double>(i));
  Index before = v.nvals();

  v.to_dense();
  EXPECT_TRUE(v.is_dense_rep());
  EXPECT_EQ(v.nvals(), before);
  EXPECT_EQ(v.extract_element(14).value(), 14.0);
  EXPECT_FALSE(v.extract_element(15).has_value());

  v.to_sparse();
  EXPECT_FALSE(v.is_dense_rep());
  EXPECT_EQ(v.nvals(), before);
  EXPECT_EQ(v.extract_element(14).value(), 14.0);
}

TEST(Vector, AutoRepresentationThreshold) {
  Vector<double> sparse(1000);
  sparse.set_element(3, 1.0);
  sparse.auto_rep(0.10);
  EXPECT_FALSE(sparse.is_dense_rep());

  Vector<double> dense(10);
  for (Index i = 0; i < 5; ++i) dense.set_element(i, 1.0);
  dense.auto_rep(0.10);
  EXPECT_TRUE(dense.is_dense_rep());
}

TEST(Vector, DenseModeElementOps) {
  auto v = Vector<int>::full(4, 9);
  v.remove_element(2);
  EXPECT_EQ(v.nvals(), 3u);
  v.set_element(2, 5);
  EXPECT_EQ(v.extract_element(2).value(), 5);
  v.resize(2);
  EXPECT_EQ(v.nvals(), 2u);
}

TEST(Vector, BoolVectorWorks) {
  // bool is stored as uint8 internally; the API must stay bool-typed.
  Vector<bool> v(5);
  v.set_element(1, true);
  v.set_element(3, false);  // explicit false is still an entry
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_EQ(v.extract_element(1).value(), true);
  EXPECT_EQ(v.extract_element(3).value(), false);
  std::vector<Index> idx;
  std::vector<bool> val;
  v.extract_tuples(idx, val);
  EXPECT_EQ(idx, (std::vector<Index>{1, 3}));
  EXPECT_EQ(val, (std::vector<bool>{true, false}));
}

TEST(Vector, LoadSortedPublishes) {
  Vector<double> v(10);
  v.load_sorted({1, 4, 9}, {1.0, 4.0, 9.0});
  EXPECT_EQ(v.nvals(), 3u);
  EXPECT_EQ(v.extract_element(9).value(), 9.0);
}
