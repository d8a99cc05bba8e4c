// Output checking. A seeded sample of each algorithm's results is compared
// bit for bit with a solo lagraph:: run on the graph version the request
// could have seen; the solo runs themselves are checked once per run against
// the textbook implementations in src/reference/.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "capi/graphblas_c.h"
#include "harness.hpp"
#include "lagraph/graph.hpp"

namespace perfbench {

enum class Algo : int { bfs = 0, sssp, pagerank, cc };
inline constexpr int kAlgos = 4;
inline constexpr Algo kAllAlgos[kAlgos] = {Algo::bfs, Algo::sssp,
                                            Algo::pagerank, Algo::cc};

const char* algo_name(Algo a);
inline bool takes_source(Algo a) { return a == Algo::bfs || a == Algo::sssp; }

/// A result vector as sorted (index, value) pairs plus its dimension.
struct Result {
  std::vector<GrB_Index> idx;
  std::vector<double> vals;
  GrB_Index n = 0;
};

/// Copy a C-API vector out (throws on a C-API error).
Result read_vector(GrB_Vector v);

/// Same dimension, same pattern, bit-identical values.
bool identical(const Result& a, const Result& b);

/// The lagraph:: driver run alone, with the parameters the C API and the
/// service use (PageRank: damping 0.85, tol 1e-9, at most 100 iterations).
Result solo_run(const lagraph::Graph& g, Algo a, GrB_Index src);

/// One served or direct result kept for checking, with the window of graph
/// versions (1-based publish counter) current around its submission.
struct Sample {
  Algo algo = Algo::bfs;
  GrB_Index src = 0;
  std::uint64_t v_lo = 1, v_hi = 1;
  Result got;
};

/// Per-thread reservoir: keeps a uniform seeded sample of up to `cap`
/// results per algorithm without storing the rest.
class Reservoir {
 public:
  Reservoir(std::size_t cap, std::uint64_t seed) : cap_(cap), rng_(seed) {}
  /// Decide whether the next result of `a` is kept; when true, store it
  /// with put() (the slot is reserved).
  std::size_t offer(Algo a);
  void put(std::size_t slot, Sample s);
  [[nodiscard]] std::vector<Sample> take();

  static constexpr std::size_t kSkip = ~std::size_t{0};

 private:
  std::size_t cap_;
  Rng rng_;
  std::uint64_t seen_[kAlgos] = {0, 0, 0, 0};
  std::vector<Sample> kept_[kAlgos];
};

/// Expected results, computed on demand and cached per (version, algo, src).
/// Version v maps to graphs[(v - 1) % graphs.size()]: odd versions are the
/// base graph, even ones the rewired copy.
class Oracle {
 public:
  explicit Oracle(std::vector<const lagraph::Graph*> graphs)
      : graphs_(std::move(graphs)) {}

  const Result& expected(std::uint64_t version, Algo a, GrB_Index src);

  /// True when the sample equals the solo result of some version in its
  /// window.
  bool verify(const Sample& s);

  /// True when the two graph versions give different results for this
  /// request, so matching one of them checks snapshot isolation.
  bool discriminates(Algo a, GrB_Index src);

  /// Checks the solo driver of every algorithm once against src/reference
  /// on the base graph (exact for BFS, SSSP and CC; PageRank within 1e-6
  /// in L1). Appends a message per failure.
  bool reference_check(GrB_Index bfs_src, GrB_Index sssp_src,
                       std::vector<std::string>& why);

 private:
  std::vector<const lagraph::Graph*> graphs_;
  std::map<std::tuple<std::size_t, int, GrB_Index>, std::unique_ptr<Result>>
      cache_;
};

struct CheckCounts {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::uint64_t discriminating = 0;  ///< samples whose versions disagree
  bool selftest_caught = false;      ///< a corrupted sample was rejected
};

/// Verify every sample. The first sample is then corrupted (last value's
/// low bit flipped, or an entry added) and must be rejected too.
CheckCounts verify_samples(Oracle& oracle, const std::vector<Sample>& samples);

}  // namespace perfbench
