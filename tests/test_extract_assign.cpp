// extract (sub-vector / sub-matrix / column) and assign (vector, matrix,
// scalar expansion) vs the dense mimics, including the tricky
// region-accumulate-then-global-mask rule of GrB_assign.
#include <gtest/gtest.h>

#include "graphblas/validate.hpp"
#include "lagraph/util/check.hpp"
#include "platform/memory.hpp"
#include "test_common.hpp"

using namespace testutil;
using gb::Index;

class ExtractAssignSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExtractAssignSweep, VectorExtractMatchesMimic) {
  std::uint64_t seed = 1500 + GetParam() * 61;
  auto u = random_vector(30, 0.5, seed);
  auto du = ref::from_gb(u);
  std::vector<Index> isel = {5, 2, 28, 2, 11, 0};  // unsorted with repeats

  for (const auto& d : mask_descriptor_sweep()) {
    auto m = random_vector(isel.size(), 0.5, seed + 1);
    auto dm = ref::from_gb(m);
    gb::Vector<double> w = random_vector(isel.size(), 0.3, seed + 2);
    auto dw = ref::from_gb(w);
    gb::extract(w, m, gb::no_accum, u, gb::IndexSel(isel), d);
    ref::extract(dw, &dm, static_cast<const gb::Plus*>(nullptr), du, isel, d);
    EXPECT_TRUE(ref::equal(dw, w)) << desc_name(d);
  }
}

TEST_P(ExtractAssignSweep, MatrixExtractMatchesMimic) {
  std::uint64_t seed = 1700 + GetParam() * 67;
  auto a = random_matrix(12, 12, 0.45, seed);
  auto da = ref::from_gb(a);
  std::vector<Index> isel = {3, 0, 9, 3};
  std::vector<Index> jsel = {11, 2, 2, 7, 5};

  for (auto d : mask_descriptor_sweep()) {
    for (bool ta : {false, true}) {
      d.transpose_a = ta;
      auto m = random_matrix(isel.size(), jsel.size(), 0.5, seed + 1);
      auto dm = ref::from_gb(m);
      gb::Matrix<double> c = random_matrix(isel.size(), jsel.size(), 0.3,
                                           seed + 2);
      auto dc = ref::from_gb(c);
      gb::extract(c, m, gb::no_accum, a, gb::IndexSel(isel),
                  gb::IndexSel(jsel), d);
      ref::extract(dc, &dm, static_cast<const gb::Plus*>(nullptr), da, isel,
                   jsel, d);
      EXPECT_TRUE(ref::equal(dc, c)) << desc_name(d);
    }
  }
}

TEST_P(ExtractAssignSweep, VectorAssignMatchesMimic) {
  std::uint64_t seed = 1900 + GetParam() * 71;
  std::vector<Index> isel = {4, 9, 0, 17};
  auto u = random_vector(isel.size(), 0.7, seed);
  auto du = ref::from_gb(u);

  for (const auto& d : mask_descriptor_sweep()) {
    for (bool accum : {false, true}) {
      auto m = random_vector(20, 0.5, seed + 1);
      auto dm = ref::from_gb(m);
      auto w = random_vector(20, 0.5, seed + 2);
      auto dw = ref::from_gb(w);
      gb::Plus acc;
      if (accum) {
        gb::assign(w, m, acc, u, gb::IndexSel(isel), d);
        ref::assign(dw, &dm, &acc, du, isel, d);
      } else {
        gb::assign(w, m, gb::no_accum, u, gb::IndexSel(isel), d);
        ref::assign(dw, &dm, static_cast<const gb::Plus*>(nullptr), du, isel,
                    d);
      }
      EXPECT_TRUE(ref::equal(dw, w))
          << desc_name(d) << " accum=" << accum;
    }
  }
}

TEST_P(ExtractAssignSweep, MatrixAssignMatchesMimic) {
  std::uint64_t seed = 2100 + GetParam() * 73;
  std::vector<Index> isel = {1, 6, 3};
  std::vector<Index> jsel = {7, 0, 4, 2};
  auto a = random_matrix(isel.size(), jsel.size(), 0.6, seed);
  auto da = ref::from_gb(a);

  for (const auto& d : mask_descriptor_sweep()) {
    for (bool accum : {false, true}) {
      auto m = random_matrix(8, 8, 0.5, seed + 1);
      auto dm = ref::from_gb(m);
      auto c = random_matrix(8, 8, 0.5, seed + 2);
      auto dc = ref::from_gb(c);
      gb::Plus acc;
      if (accum) {
        gb::assign(c, m, acc, a, gb::IndexSel(isel), gb::IndexSel(jsel), d);
        ref::assign(dc, &dm, &acc, da, isel, jsel, d);
      } else {
        gb::assign(c, m, gb::no_accum, a, gb::IndexSel(isel),
                   gb::IndexSel(jsel), d);
        ref::assign(dc, &dm, static_cast<const gb::Plus*>(nullptr), da, isel,
                    jsel, d);
      }
      EXPECT_TRUE(ref::equal(dc, c)) << desc_name(d) << " accum=" << accum;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractAssignSweep, ::testing::Range(0, 4));

TEST(Extract, AllIndicesIsCopy) {
  auto u = random_vector(15, 0.5, 31);
  gb::Vector<double> w(15);
  gb::extract(w, gb::no_mask, gb::no_accum, u, gb::IndexSel::all(15));
  EXPECT_TRUE(lagraph::isequal(u, w));
}

TEST(Extract, ColumnExtract) {
  gb::Matrix<double> a(4, 3);
  a.set_element(0, 1, 1.0);
  a.set_element(2, 1, 3.0);
  a.set_element(3, 0, 9.0);
  gb::Vector<double> w(4);
  gb::extract_col(w, gb::no_mask, gb::no_accum, a, gb::IndexSel::all(4), 1);
  EXPECT_EQ(w.nvals(), 2u);
  EXPECT_EQ(w.extract_element(2).value(), 3.0);

  // Sub-indexed column with transpose: column 2 of A' = row 2 of A.
  a.set_element(2, 2, 5.0);
  std::vector<Index> isel = {2, 1};
  gb::Vector<double> w2(2);
  gb::extract_col(w2, gb::no_mask, gb::no_accum, a, gb::IndexSel(isel), 2,
                  gb::desc_t0);
  EXPECT_EQ(w2.extract_element(0).value(), 5.0);  // A(2,2)
  EXPECT_EQ(w2.extract_element(1).value(), 3.0);  // A(2,1)
}

TEST(Assign, ScalarExpansionVector) {
  gb::Vector<double> w(6);
  w.set_element(0, 1.0);
  std::vector<Index> isel = {1, 3};
  gb::assign_scalar(w, gb::no_mask, gb::no_accum, 7.0, gb::IndexSel(isel));
  EXPECT_EQ(w.nvals(), 3u);
  EXPECT_EQ(w.extract_element(1).value(), 7.0);
  EXPECT_EQ(w.extract_element(3).value(), 7.0);
  EXPECT_EQ(w.extract_element(0).value(), 1.0);

  // With accumulate.
  gb::assign_scalar(w, gb::no_mask, gb::Plus{}, 1.0, gb::IndexSel(isel));
  EXPECT_EQ(w.extract_element(1).value(), 8.0);
}

TEST(Assign, MaskedScalarAssignIsTheBfsIdiom) {
  // Fig. 2 line 5: levels[frontier] = depth.
  gb::Vector<std::int64_t> levels(8);
  gb::Vector<bool> frontier(8);
  frontier.set_element(2, true);
  frontier.set_element(5, true);
  gb::assign_scalar(levels, frontier, gb::no_accum, std::int64_t{3},
                    gb::IndexSel::all(8), gb::desc_s);
  EXPECT_EQ(levels.nvals(), 2u);
  EXPECT_EQ(levels.extract_element(2).value(), 3);
  EXPECT_EQ(levels.extract_element(5).value(), 3);
}

TEST(Assign, NoAccumDeletesRegionHoles) {
  // C(I) = A where A has no entry at a region position: entry deleted.
  gb::Vector<double> w(4);
  for (Index i = 0; i < 4; ++i) w.set_element(i, static_cast<double>(i + 1));
  gb::Vector<double> u(2);  // empty at k=0, value at k=1
  u.set_element(1, 99.0);
  std::vector<Index> isel = {0, 2};
  gb::assign(w, gb::no_mask, gb::no_accum, u, gb::IndexSel(isel));
  EXPECT_FALSE(w.extract_element(0).has_value());  // deleted
  EXPECT_EQ(w.extract_element(2).value(), 99.0);
  EXPECT_EQ(w.extract_element(1).value(), 2.0);  // outside region untouched
}

TEST(Assign, AccumKeepsRegionHoles) {
  gb::Vector<double> w(4);
  for (Index i = 0; i < 4; ++i) w.set_element(i, static_cast<double>(i + 1));
  gb::Vector<double> u(2);
  u.set_element(1, 99.0);
  std::vector<Index> isel = {0, 2};
  gb::assign(w, gb::no_mask, gb::Plus{}, u, gb::IndexSel(isel));
  EXPECT_EQ(w.extract_element(0).value(), 1.0);    // kept
  EXPECT_EQ(w.extract_element(2).value(), 102.0);  // 3 + 99
}

TEST(Assign, MatrixScalarExpansion) {
  gb::Matrix<double> c(5, 5);
  std::vector<Index> isel = {1, 3};
  std::vector<Index> jsel = {0, 4};
  gb::assign_scalar(c, gb::no_mask, gb::no_accum, 2.5, gb::IndexSel(isel),
                    gb::IndexSel(jsel));
  EXPECT_EQ(c.nvals(), 4u);
  EXPECT_EQ(c.extract_element(3, 4).value(), 2.5);
}

// --- Masked scalar assign over GrB_ALL in every storage form -----------------
//
// w<m> accum= s with a plain mask stores in place into a bitmap or full w
// and merges w with the mask's entries otherwise; a complemented mask takes
// the general path. All of them must match the dense mimic bit for bit.


TEST(MaskedAssignScalar, MatchesMimicInEveryForm) {
  const Index n = 50;
  gb::Plus plus;
  std::vector<Index> all(n);
  for (Index i = 0; i < n; ++i) all[i] = i;
  std::uint64_t seed = 8100;
  for (Form wf : kForms) {
    for (Form mf : {Form::sparse_auto, Form::bitmap_auto, Form::full}) {
      for (const auto& d : mask_descriptor_sweep()) {
        for (bool accum : {false, true}) {
          for (bool mask_is_w : {false, true}) {
            seed += 3;
            auto w = random_vector_in(n, 0.5, seed, wf);
            auto m = random_vector_in(n, 0.3, seed + 1, mf);
            auto dw = ref::from_gb(w);
            const auto dm = mask_is_w ? dw : ref::from_gb(m);
            const gb::Vector<double>& mask = mask_is_w ? w : m;
            const double s = -2.5;
            if (accum) {
              gb::assign_scalar(w, mask, plus, s, gb::IndexSel::all(n), d);
              ref::assign_scalar(dw, &dm, &plus, s, all, d);
            } else {
              gb::assign_scalar(w, mask, gb::no_accum, s,
                                gb::IndexSel::all(n), d);
              ref::assign_scalar(dw, &dm,
                                 static_cast<const gb::Plus*>(nullptr), s,
                                 all, d);
            }
            EXPECT_TRUE(bits_equal(dw, w))
                << "w " << form_name(wf) << " mask " << form_name(mf) << " "
                << desc_name(d)
                << " accum=" << accum << " mask_is_w=" << mask_is_w;
            EXPECT_TRUE(gb::check(w, gb::CheckLevel::full).ok());
          }
        }
      }
    }
  }
}

TEST(MaskedAssignScalar, CostsTheMaskNotTheVector) {
  // A 1-entry mask into a bitmap vector of 2^20 positions: the write must
  // allocate O(|mask|), not the 2^20-entry region list and merge buffers
  // (tens of MiB) of a whole-vector pass.
  const Index n = Index{1} << 20;
  gb::Vector<std::int64_t> level(n);
  level.set_format(gb::FormatMode::bitmap);
  gb::Vector<std::uint64_t> frontier(n);
  frontier.set_format(gb::FormatMode::sparse);
  frontier.set_element(123457, 9);
  frontier.wait();
  using gb::platform::MemoryMeter;
  MemoryMeter::reset_peak();
  const std::size_t before = MemoryMeter::current_bytes();
  gb::assign_scalar(level, frontier, gb::no_accum, std::int64_t{4},
                    gb::IndexSel::all(n), gb::desc_s);
  EXPECT_LT(MemoryMeter::peak_bytes() - before, std::size_t{4096});
  EXPECT_EQ(level.nvals(), 1u);
  EXPECT_EQ(level.extract_element(123457).value(), 4);

  // The masked record of the parent id, through write_back.
  gb::Vector<std::int64_t> parent(n);
  parent.set_format(gb::FormatMode::bitmap);
  MemoryMeter::reset_peak();
  const std::size_t before2 = MemoryMeter::current_bytes();
  gb::apply(parent, frontier, gb::no_accum, gb::Identity{}, frontier,
            gb::desc_s);
  EXPECT_LT(MemoryMeter::peak_bytes() - before2, std::size_t{4096});
  EXPECT_EQ(parent.extract_element(123457).value(), 9);
}
