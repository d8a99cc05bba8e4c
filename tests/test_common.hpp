// Shared helpers for the conformance tests: seeded random GraphBLAS objects
// and the descriptor sweep used to exercise every mask/accum/replace
// combination against the dense mimics.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "capi/graphblas_c.h"
#include "lagraph/lagraph.hpp"
#include "platform/governor.hpp"
#include "reference/dense_ref.hpp"

namespace testutil {

using gb::Index;

// --- pre/post snapshots over the C API ------------------------------------
//
// Used by the fault-injection and governor soaks to assert the transactional
// contract: after any injected failure (OOM, cancellation, deadline, budget)
// the output object must compare equal to its pre-call snapshot.

struct MatrixSnapshot {
  GrB_Index nrows = 0, ncols = 0;
  std::vector<GrB_Index> r, c;
  std::vector<double> v;

  friend bool operator==(const MatrixSnapshot&,
                         const MatrixSnapshot&) = default;
};

struct VectorSnapshot {
  GrB_Index size = 0;
  std::vector<GrB_Index> i;
  std::vector<double> v;

  friend bool operator==(const VectorSnapshot&,
                         const VectorSnapshot&) = default;
};

inline MatrixSnapshot snapshot(GrB_Matrix a) {
  MatrixSnapshot s;
  EXPECT_EQ(GrB_Matrix_nrows(&s.nrows, a), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&s.ncols, a), GrB_SUCCESS);
  GrB_Index n = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&n, a), GrB_SUCCESS);
  // One extra slot so empty objects still hand out non-null pointers.
  s.r.resize(n + 1);
  s.c.resize(n + 1);
  s.v.resize(n + 1);
  GrB_Index cap = n + 1;
  EXPECT_EQ(
      GrB_Matrix_extractTuples_FP64(s.r.data(), s.c.data(), s.v.data(), &cap,
                                    a),
      GrB_SUCCESS);
  s.r.resize(cap);
  s.c.resize(cap);
  s.v.resize(cap);
  return s;
}

inline VectorSnapshot snapshot(GrB_Vector w) {
  VectorSnapshot s;
  EXPECT_EQ(GrB_Vector_size(&s.size, w), GrB_SUCCESS);
  GrB_Index n = 0;
  EXPECT_EQ(GrB_Vector_nvals(&n, w), GrB_SUCCESS);
  s.i.resize(n + 1);
  s.v.resize(n + 1);
  GrB_Index cap = n + 1;
  EXPECT_EQ(GrB_Vector_extractTuples_FP64(s.i.data(), s.v.data(), &cap, w),
            GrB_SUCCESS);
  s.i.resize(cap);
  s.v.resize(cap);
  return s;
}

inline gb::Matrix<double> random_matrix(Index nrows, Index ncols,
                                        double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> val(-4.0, 4.0);
  std::bernoulli_distribution keep(density);
  std::vector<Index> r, c;
  std::vector<double> v;
  for (Index i = 0; i < nrows; ++i) {
    for (Index j = 0; j < ncols; ++j) {
      if (keep(rng)) {
        r.push_back(i);
        c.push_back(j);
        // A few exact zeros so valued masks differ from structural ones.
        double x = val(rng);
        v.push_back(std::abs(x) < 0.4 ? 0.0 : x);
      }
    }
  }
  gb::Matrix<double> a(nrows, ncols);
  a.build(r, c, v, gb::Plus{});
  return a;
}

inline gb::Vector<double> random_vector(Index n, double density,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> val(-4.0, 4.0);
  std::bernoulli_distribution keep(density);
  gb::Vector<double> v(n);
  for (Index i = 0; i < n; ++i) {
    if (keep(rng)) {
      double x = val(rng);
      v.set_element(i, std::abs(x) < 0.4 ? 0.0 : x);
    }
  }
  return v;
}

/// Storage forms a vector can be put in before a masked write: a sparse or
/// bitmap form under the auto rule, a pinned sparse or bitmap preference,
/// or full (every position present, so draw that vector at density 1).
enum class Form { sparse_pref, sparse_auto, bitmap_auto, bitmap_pref, full };

inline constexpr Form kForms[] = {Form::sparse_pref, Form::sparse_auto,
                                  Form::bitmap_auto, Form::bitmap_pref,
                                  Form::full};

inline const char* form_name(Form f) {
  switch (f) {
    case Form::sparse_pref: return "sparse";
    case Form::sparse_auto: return "sparse(auto)";
    case Form::bitmap_auto: return "bitmap(auto)";
    case Form::bitmap_pref: return "bitmap";
    case Form::full: return "full";
  }
  return "?";
}

inline void put_in_form(gb::Vector<double>& v, Form f) {
  switch (f) {
    case Form::sparse_pref: v.set_format(gb::FormatMode::sparse); break;
    case Form::sparse_auto:
      v.set_format(gb::FormatMode::auto_fmt);
      v.to_sparse();
      break;
    case Form::bitmap_auto:
      v.set_format(gb::FormatMode::auto_fmt);
      v.to_dense();
      break;
    case Form::bitmap_pref: v.set_format(gb::FormatMode::bitmap); break;
    case Form::full: v.set_format(gb::FormatMode::full); break;
  }
}

/// A random vector (see random_vector) held in form f.
inline gb::Vector<double> random_vector_in(Index n, double density,
                                           std::uint64_t seed, Form f) {
  auto v = random_vector(n, f == Form::full ? 1.0 : density, seed);
  put_in_form(v, f);
  return v;
}

/// Pattern equal, and every present value equal bit for bit.
inline bool bits_equal(const ref::DenseVec<double>& want,
                       const gb::Vector<double>& got) {
  if (want.n != got.size()) return false;
  auto d = ref::from_gb(got);
  for (Index i = 0; i < want.n; ++i) {
    if (want.pat[i] != d.pat[i]) return false;
    if (want.pat[i] &&
        std::memcmp(&want.val[i], &d.val[i], sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// The descriptor sweep: every combination of replace / complement /
/// structural (transposes are swept separately per operation).
inline std::vector<gb::Descriptor> mask_descriptor_sweep() {
  std::vector<gb::Descriptor> out;
  for (bool replace : {false, true}) {
    for (bool comp : {false, true}) {
      for (bool structural : {false, true}) {
        gb::Descriptor d;
        d.replace = replace;
        d.mask_complement = comp;
        d.mask_structural = structural;
        out.push_back(d);
      }
    }
  }
  return out;
}

inline std::string desc_name(const gb::Descriptor& d) {
  std::string s;
  s += d.replace ? "R" : "-";
  s += d.mask_complement ? "C" : "-";
  s += d.mask_structural ? "S" : "-";
  s += d.transpose_a ? "Ta" : "--";
  s += d.transpose_b ? "Tb" : "--";
  return s;
}

// --- resume soaks ------------------------------------------------------------

/// Where a resume soak's graph comes from. warm: one graph serves the
/// baseline and every interrupted and resumed run, so its cached properties
/// (transpose, degrees, undirected view) are built once and later runs find
/// them resident. cold: every poll ordinal gets a freshly built graph, so
/// the trip can also land while a driver builds a cached property.
enum class Soak { warm, cold };

/// Drives `run(graph, capsule)` with a cancel trip landing on every sampled
/// poll ordinal. Each interruption must report `cancelled`; its capsule (if
/// captured) is resumed ungoverned on the same graph, and the resumed result
/// must equal the uninterrupted baseline exactly and carry no capsule — the
/// contract every `*_run` driver documents. `make()` builds the graph (or whatever fixture
/// `run` takes). Returns once an ordinal survives the whole run untripped.
template <class Make, class Run, class Extract>
void soak_resume_determinism(const std::string& name, Soak mode, Make&& make,
                             Run&& run, Extract&& extract) {
  using gb::platform::Governor;
  const auto warm = make();
  const auto base = run(warm, nullptr);
  ASSERT_FALSE(lagraph::is_interruption(base.stop)) << name;
  EXPECT_TRUE(base.checkpoint.empty()) << name << ": completed with a capsule";
  const auto want = extract(base);

  constexpr std::uint64_t kMaxN = 200000;
  std::uint64_t stride = 1;
  for (std::uint64_t n = 0; n < kMaxN; n += stride) {
    std::optional<std::decay_t<decltype(warm)>> cold;
    const auto& g = mode == Soak::cold ? cold.emplace(make()) : warm;
    lagraph::Checkpoint cp;
    bool interrupted = false;
    {
      Governor gov;
      gb::platform::GovernorScope s(&gov);
      gb::platform::ScopedTripAfter trip(n, Governor::Trip::cancel);
      auto part = run(g, nullptr);
      interrupted = lagraph::is_interruption(part.stop);
      if (interrupted) {
        EXPECT_EQ(part.stop, lagraph::StopReason::cancelled)
            << name << " at poll " << n;
        cp = std::move(part.checkpoint);
      }
    }
    if (!interrupted) return;  // the whole run fits under this ordinal
    // An empty capsule means capture was impossible (trip during setup):
    // resuming from scratch is the documented fallback.
    auto resumed = cp.empty() ? run(g, nullptr) : run(g, &cp);
    ASSERT_FALSE(lagraph::is_interruption(resumed.stop))
        << name << " resumed run tripped with the governor gone, poll " << n;
    // A completed run hands back no capsule, resumed or not.
    EXPECT_TRUE(resumed.checkpoint.empty())
        << name << ": resumed run completed with a capsule, poll " << n;
    EXPECT_EQ(extract(resumed), want)
        << name << ": interrupted at poll " << n
        << " + resume differs from the uninterrupted run";
    // Dense early coverage (setup, first iterations), geometric tail.
    if (n >= 24) stride = 1 + n / 3;
  }
  ADD_FAILURE() << name << " never completed under poll trips";
}

}  // namespace testutil
