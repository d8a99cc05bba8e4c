// Graph convolutional network inference — "graph neural network training
// and inference" from the paper's §V future-work list (the inference half).
//
// The Kipf-Welling GCN layer is pure GraphBLAS:
//   Â = D^-1/2 (A + I) D^-1/2        (two diagonal-scaling mxm's)
//   H_{l+1} = ReLU(Â H_l W_l)        (two plus_times mxm's + select)
// with the final layer left linear (logits).
//
// Resumable between layers: the capsule carries the committed hidden state
// and the completed-layer count; Â is graph-derived and rebuilt on resume.
#include <cmath>

#include "lagraph/lagraph.hpp"
#include "lagraph/util/check.hpp"

namespace lagraph {

namespace {

/// Â = D^-1/2 (A + I) D^-1/2 for the undirected view of g.
gb::Matrix<double> normalized_adjacency(const Graph& g) {
  const Index n = g.nrows();
  gb::Matrix<double> ai(n, n);
  gb::ewise_add(ai, gb::no_mask, gb::no_accum, gb::First{}, g.undirected_view(),
                gb::Matrix<double>::identity(n, 1.0));

  // Row sums of A + I are the augmented degrees; the degree vector is only
  // ever consumed through 1/√d, so the reduce and the map fuse.
  gb::Vector<double> dinv_sqrt(n);
  gb::fused_reduce_apply(dinv_sqrt, gb::plus_monoid<double>(),
                         [](double x) { return 1.0 / std::sqrt(x); }, ai);
  auto dm = gb::Matrix<double>::diag(dinv_sqrt);

  gb::Matrix<double> t(n, n), norm(n, n);
  gb::mxm(t, gb::no_mask, gb::no_accum, gb::plus_times<double>(), dm, ai);
  gb::mxm(norm, gb::no_mask, gb::no_accum, gb::plus_times<double>(), t, dm);
  return norm;
}

}  // namespace

GcnResult gcn_inference_run(const Graph& g, const gb::Matrix<double>& features,
                            const std::vector<gb::Matrix<double>>& weights,
                            const Checkpoint* resume) {
  check_graph(g, "gcn_inference");
  gb::check_dims(features.nrows() == g.nrows(), "gcn: features per vertex");
  gb::check_value(!weights.empty(), "gcn: at least one layer");

  GcnResult res;
  gb::Matrix<double> norm;
  gb::Matrix<double> h;
  auto slots = [&](auto& io) {
    io("h", h);
    io("layers_done", res.layers_done);
  };
  auto setup = [&](bool resumed) {
    // Â is a pure function of the graph, so it is rebuilt deterministically
    // rather than stored in the capsule.
    norm = normalized_adjacency(g);
    if (resumed) {
      gb::check_value(h.nrows() == g.nrows(),
                      "gcn: resume capsule does not match this graph");
    } else {
      h = features.dup();
    }
  };
  auto round = [&] {
    const auto layer = static_cast<std::size_t>(res.layers_done);
    const auto& w = weights[layer];
    gb::check_dims(h.ncols() == w.nrows(), "gcn: layer shape");

    // Aggregate: Z = Â H (message passing), then transform: Z W. All
    // temporaries; h commits by one move, so mid-round trips capture the
    // previous layer boundary.
    gb::Matrix<double> agg(g.nrows(), h.ncols());
    gb::mxm(agg, gb::no_mask, gb::no_accum, gb::plus_times<double>(), norm, h);
    gb::Matrix<double> z(g.nrows(), w.ncols());
    gb::mxm(z, gb::no_mask, gb::no_accum, gb::plus_times<double>(), agg, w);

    const bool last = layer + 1 == weights.size();
    if (last) {
      h = std::move(z);  // final layer: linear logits
    } else {
      // ReLU keeps activations sparse between layers.
      gb::Matrix<double> relu(z.nrows(), z.ncols());
      gb::select(relu, gb::no_mask, gb::no_accum, gb::SelValueGt{}, z, 0.0);
      h = std::move(relu);
    }
    ++res.layers_done;
    return !last;
  };
  if (iterate(res, "gcn", resume, slots, setup, round)) {
    res.h = std::move(h);
  }
  return res;
}

gb::Matrix<double> gcn_inference(
    const Graph& g, const gb::Matrix<double>& features,
    const std::vector<gb::Matrix<double>>& weights) {
  GcnResult res = gcn_inference_run(g, features, weights);
  rethrow_interruption(res.stop);
  return std::move(res.h);
}

}  // namespace lagraph
