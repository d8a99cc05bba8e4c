// The accum-then-mask write-back rule, validated against the independent
// dense restatement in reference/dense_ref.hpp across the full descriptor
// sweep. This is the single most important conformance surface: every
// operation funnels through it.
#include <gtest/gtest.h>

#include "graphblas/validate.hpp"
#include "test_common.hpp"

using namespace testutil;
using gb::Index;

namespace {

// Drive write-back through gb::apply with Identity (the thinnest wrapper
// around it) and mirror with the dense mimic.
void check_vector_case(double cdens, double mdens, double tdens, bool accum,
                       const gb::Descriptor& d, std::uint64_t seed) {
  const Index n = 40;
  auto c = random_vector(n, cdens, seed);
  auto m = random_vector(n, mdens, seed + 1);
  auto t = random_vector(n, tdens, seed + 2);

  auto dc = ref::from_gb(c);
  auto dm = ref::from_gb(m);
  auto dt = ref::from_gb(t);

  gb::Plus plus;
  if (accum) {
    gb::apply(c, m, plus, gb::Identity{}, t, d);
    ref::apply(dc, &dm, &plus, gb::Identity{}, dt, d);
  } else {
    gb::apply(c, m, gb::no_accum, gb::Identity{}, t, d);
    ref::apply(dc, &dm, static_cast<const gb::Plus*>(nullptr), gb::Identity{},
               dt, d);
  }
  EXPECT_TRUE(ref::equal(dc, c)) << "desc=" << desc_name(d)
                                 << " accum=" << accum << " seed=" << seed;
}

void check_matrix_case(double cdens, double mdens, double tdens, bool accum,
                       const gb::Descriptor& d, std::uint64_t seed) {
  const Index n = 12, m = 9;
  auto c = random_matrix(n, m, cdens, seed);
  auto mask = random_matrix(n, m, mdens, seed + 1);
  auto t = random_matrix(n, m, tdens, seed + 2);

  auto dc = ref::from_gb(c);
  auto dmask = ref::from_gb(mask);
  auto dt = ref::from_gb(t);

  gb::Plus plus;
  if (accum) {
    gb::apply(c, mask, plus, gb::Identity{}, t, d);
    ref::apply(dc, &dmask, &plus, gb::Identity{}, dt, d);
  } else {
    gb::apply(c, mask, gb::no_accum, gb::Identity{}, t, d);
    ref::apply(dc, &dmask, static_cast<const gb::Plus*>(nullptr),
               gb::Identity{}, dt, d);
  }
  EXPECT_TRUE(ref::equal(dc, c)) << "desc=" << desc_name(d)
                                 << " accum=" << accum << " seed=" << seed;
}

}  // namespace

class WriteBackSweep : public ::testing::TestWithParam<int> {};

TEST_P(WriteBackSweep, VectorMatchesDenseMimic) {
  std::uint64_t seed = 1000 + GetParam() * 17;
  for (const auto& d : mask_descriptor_sweep()) {
    for (bool accum : {false, true}) {
      check_vector_case(0.4, 0.5, 0.4, accum, d, seed);
      check_vector_case(0.0, 0.5, 0.4, accum, d, seed + 3);  // empty C
      check_vector_case(0.4, 0.5, 0.0, accum, d, seed + 6);  // empty T
      check_vector_case(1.0, 0.3, 1.0, accum, d, seed + 9);  // dense C, T
    }
  }
}

TEST_P(WriteBackSweep, MatrixMatchesDenseMimic) {
  std::uint64_t seed = 2000 + GetParam() * 23;
  for (const auto& d : mask_descriptor_sweep()) {
    for (bool accum : {false, true}) {
      check_matrix_case(0.3, 0.4, 0.3, accum, d, seed);
      check_matrix_case(0.0, 0.4, 0.3, accum, d, seed + 3);
      check_matrix_case(0.3, 0.4, 0.0, accum, d, seed + 6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteBackSweep, ::testing::Range(0, 5));

TEST(WriteBack, UnmaskedNoAccumReplacesContents) {
  auto c = random_vector(20, 0.5, 7);
  gb::Vector<double> t(20);
  t.set_element(3, 42.0);
  gb::apply(c, gb::no_mask, gb::no_accum, gb::Identity{}, t);
  EXPECT_EQ(c.nvals(), 1u);
  EXPECT_EQ(c.extract_element(3).value(), 42.0);
}

TEST(WriteBack, ValuedMaskIgnoresZeroEntries) {
  gb::Vector<double> c(4);
  gb::Vector<double> mask(4);
  mask.set_element(0, 0.0);  // present but false-valued
  mask.set_element(1, 2.0);
  auto t = gb::Vector<double>::full(4, 5.0);
  gb::apply(c, mask, gb::no_accum, gb::Identity{}, t);
  EXPECT_EQ(c.nvals(), 1u);  // only position 1 writable
  EXPECT_EQ(c.extract_element(1).value(), 5.0);

  // Structural: position 0 becomes writable too.
  gb::Vector<double> c2(4);
  gb::apply(c2, mask, gb::no_accum, gb::Identity{}, t, gb::desc_s);
  EXPECT_EQ(c2.nvals(), 2u);
}

TEST(WriteBack, ReplaceDeletesOutsideMask) {
  auto c = gb::Vector<double>::full(4, 1.0);
  gb::Vector<bool> mask(4);
  mask.set_element(2, true);
  gb::Vector<double> t(4);
  t.set_element(2, 9.0);
  // With replace: everything outside the mask is deleted.
  gb::apply(c, mask, gb::no_accum, gb::Identity{}, t, gb::desc_rs);
  EXPECT_EQ(c.nvals(), 1u);
  EXPECT_EQ(c.extract_element(2).value(), 9.0);
}

TEST(WriteBack, NoReplaceKeepsOutsideMask) {
  auto c = gb::Vector<double>::full(4, 1.0);
  gb::Vector<bool> mask(4);
  mask.set_element(2, true);
  gb::Vector<double> t(4);
  t.set_element(2, 9.0);
  gb::apply(c, mask, gb::no_accum, gb::Identity{}, t, gb::desc_s);
  EXPECT_EQ(c.nvals(), 4u);
  EXPECT_EQ(c.extract_element(2).value(), 9.0);
  EXPECT_EQ(c.extract_element(0).value(), 1.0);
}

TEST(WriteBack, AccumulatorUnionSemantics) {
  gb::Vector<double> c(4);
  c.set_element(0, 1.0);
  c.set_element(1, 2.0);
  gb::Vector<double> t(4);
  t.set_element(1, 10.0);
  t.set_element(2, 20.0);
  gb::apply(c, gb::no_mask, gb::Plus{}, gb::Identity{}, t);
  EXPECT_EQ(c.extract_element(0).value(), 1.0);   // C only: kept
  EXPECT_EQ(c.extract_element(1).value(), 12.0);  // both: accumulated
  EXPECT_EQ(c.extract_element(2).value(), 20.0);  // T only: inserted
}

// --- Masked writes into every storage form -----------------------------------
//
// A plain masked write into a bitmap or full vector stores in place, at the
// mask's positions only; a sparse or sparse-preferring vector, a
// complemented mask, replace, or a mask that is the output itself take the
// merge. Every combination must match the dense mimic bit for bit.


TEST(MaskedWriteForms, ApplyMatchesMimicInEveryForm) {
  const Index n = 48;
  gb::Plus plus;
  std::uint64_t seed = 7100;
  for (Form wf : kForms) {
    for (Form mf : {Form::sparse_auto, Form::bitmap_auto, Form::full}) {
      for (const auto& d : mask_descriptor_sweep()) {
        for (bool accum : {false, true}) {
          seed += 5;
          auto w = random_vector_in(n, 0.5, seed, wf);
          auto m = random_vector_in(n, 0.3, seed + 1, mf);
          auto u = random_vector(n, 0.4, seed + 2);
          auto dw = ref::from_gb(w);
          auto dm = ref::from_gb(m);
          auto du = ref::from_gb(u);
          if (accum) {
            gb::apply(w, m, plus, gb::Identity{}, u, d);
            ref::apply(dw, &dm, &plus, gb::Identity{}, du, d);
          } else {
            gb::apply(w, m, gb::no_accum, gb::Identity{}, u, d);
            ref::apply(dw, &dm, static_cast<const gb::Plus*>(nullptr),
                       gb::Identity{}, du, d);
          }
          EXPECT_TRUE(bits_equal(dw, w))
              << "w " << form_name(wf) << " mask " << form_name(mf) << " "
              << desc_name(d) << " accum=" << accum;
          EXPECT_TRUE(gb::check(w, gb::CheckLevel::full).ok());
        }
      }
    }
  }
}

TEST(MaskedWriteForms, VxmMatchesMimicInEveryForm) {
  const Index n = 40;
  gb::Plus plus;
  auto a = random_matrix(n, n, 0.1, 7300);
  auto da = ref::from_gb(a);
  std::uint64_t seed = 7400;
  for (Form wf : kForms) {
    for (Form mf : {Form::sparse_auto, Form::bitmap_auto}) {
      for (auto d : mask_descriptor_sweep()) {
        for (auto method : {gb::MxvMethod::push, gb::MxvMethod::pull}) {
          for (bool accum : {false, true}) {
            seed += 5;
            d.mxv = method;
            auto w = random_vector_in(n, 0.5, seed, wf);
            auto m = random_vector_in(n, 0.4, seed + 1, mf);
            auto u = random_vector(n, 0.3, seed + 2);
            auto dw = ref::from_gb(w);
            auto dm = ref::from_gb(m);
            auto du = ref::from_gb(u);
            if (accum) {
              gb::vxm(w, m, plus, gb::plus_times<double>(), u, a, d);
              ref::vxm(dw, &dm, &plus, gb::plus_times<double>(), du, da, d);
            } else {
              gb::vxm(w, m, gb::no_accum, gb::plus_times<double>(), u, a, d);
              ref::vxm(dw, &dm, static_cast<const gb::Plus*>(nullptr),
                       gb::plus_times<double>(), du, da, d);
            }
            EXPECT_TRUE(bits_equal(dw, w))
                << "w " << form_name(wf) << " mask " << form_name(mf) << " "
                << desc_name(d) << " accum=" << accum;
          }
        }
      }
    }
  }
}

TEST(MaskedWriteForms, MaskAliasingTheOutputOrTheInput) {
  const Index n = 36;
  gb::Plus plus;
  std::uint64_t seed = 7600;
  for (Form wf : kForms) {
    for (const auto& d : mask_descriptor_sweep()) {
      for (bool accum : {false, true}) {
        seed += 3;
        // The mask is w itself.
        auto w = random_vector_in(n, 0.5, seed, wf);
        auto u = random_vector(n, 0.5, seed + 1);
        auto dw = ref::from_gb(w);
        const auto dm = dw;
        auto du = ref::from_gb(u);
        if (accum) {
          gb::apply(w, w, plus, gb::Identity{}, u, d);
          ref::apply(dw, &dm, &plus, gb::Identity{}, du, d);
        } else {
          gb::apply(w, w, gb::no_accum, gb::Identity{}, u, d);
          ref::apply(dw, &dm, static_cast<const gb::Plus*>(nullptr),
                     gb::Identity{}, du, d);
        }
        EXPECT_TRUE(bits_equal(dw, w))
            << "mask=w, w " << form_name(wf) << " " << desc_name(d)
            << " accum=" << accum;

        // The mask is the input u.
        auto w2 = random_vector_in(n, 0.5, seed + 2, wf);
        auto u2 = random_vector_in(n, 0.5, seed + 3, Form::bitmap_auto);
        auto dw2 = ref::from_gb(w2);
        auto du2 = ref::from_gb(u2);
        if (accum) {
          gb::apply(w2, u2, plus, gb::Identity{}, u2, d);
          ref::apply(dw2, &du2, &plus, gb::Identity{}, du2, d);
        } else {
          gb::apply(w2, u2, gb::no_accum, gb::Identity{}, u2, d);
          ref::apply(dw2, &du2, static_cast<const gb::Plus*>(nullptr),
                     gb::Identity{}, du2, d);
        }
        EXPECT_TRUE(bits_equal(dw2, w2))
            << "mask=u, w " << form_name(wf) << " " << desc_name(d)
            << " accum=" << accum;
      }
    }
  }
}

TEST(MaskedWriteForms, VxmMaskIsTheInputVector) {
  // The kernel probe reads a bitmap mask in place; when the mask is the
  // input vector itself, the kernel's own form change of that vector (push
  // reads it sparse, pull dense) must not pull the arrays from under it.
  const Index n = 40;
  auto a = random_matrix(n, n, 0.1, 7700);
  auto da = ref::from_gb(a);
  std::uint64_t seed = 7800;
  for (Form uf : {Form::sparse_auto, Form::bitmap_auto, Form::full}) {
    for (auto d : mask_descriptor_sweep()) {
      for (auto method : {gb::MxvMethod::push, gb::MxvMethod::pull}) {
        seed += 3;
        d.mxv = method;
        auto w = random_vector_in(n, 0.5, seed, Form::bitmap_auto);
        auto u = random_vector_in(n, 0.3, seed + 1, uf);
        auto dw = ref::from_gb(w);
        auto du = ref::from_gb(u);
        gb::vxm(w, u, gb::no_accum, gb::plus_times<double>(), u, a, d);
        ref::vxm(dw, &du, static_cast<const gb::Plus*>(nullptr),
                 gb::plus_times<double>(), du, da, d);
        EXPECT_TRUE(bits_equal(dw, w))
            << "u " << form_name(uf) << " " << desc_name(d) << " method "
            << static_cast<int>(method);
      }
    }
  }
}

TEST(MaskedWriteForms, InPlaceWriteKeepsTheBitmapForm) {
  // The in-place path is what keeps a traversal's record O(frontier): the
  // output must still be held densely afterwards, and a published snapshot
  // must keep the value it had.
  gb::Vector<double> w(64);
  w.set_element(3, 1.0);
  w.set_format(gb::FormatMode::bitmap);
  const auto snap = w.snapshot();
  gb::Vector<double> m(64);
  m.set_element(10, 1.0);
  m.set_element(3, 1.0);
  gb::Vector<double> u(64);
  u.set_element(10, 5.0);
  gb::apply(w, m, gb::no_accum, gb::Identity{}, u, gb::desc_s);
  EXPECT_TRUE(w.is_dense_rep());
  EXPECT_EQ(w.nvals(), 1u);  // 3 allowed by the mask, absent in u: deleted
  EXPECT_EQ(w.extract_element(10).value(), 5.0);
  EXPECT_EQ(snap->nvals(), 1u);
  EXPECT_EQ(snap->extract_element(3).value(), 1.0);
  // The cached snapshot was dropped: a new one sees the write.
  const auto snap2 = w.snapshot();
  EXPECT_EQ(snap2->nvals(), 1u);
  EXPECT_EQ(snap2->extract_element(10).value(), 5.0);
  EXPECT_TRUE(gb::check(w, gb::CheckLevel::full).ok());
}
