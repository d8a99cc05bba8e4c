// Sparse deep neural network inference (§V's machine-learning list cites
// Kepner et al., "Enabling massive deep neural networks with the
// GraphBLAS"). The GraphChallenge formulation: per layer,
//   Y <- clip(ReLU(Y * W + bias), ymax),
// where the bias is added only at positions the product produced, and
// non-positive entries are pruned from the pattern to keep Y sparse.
//
// Resumable between layers: the capsule carries the committed activation
// matrix and the completed-layer count.
#include "lagraph/lagraph.hpp"

namespace lagraph {

DnnResult dnn_inference_run(const gb::Matrix<double>& y0,
                            const std::vector<gb::Matrix<double>>& weights,
                            const std::vector<double>& biases, double ymax,
                            const Checkpoint* resume) {
  gb::check_value(weights.size() == biases.size(),
                  "dnn_inference: one bias per layer");

  DnnResult res;
  gb::Matrix<double> y;
  auto more = [&] {
    return static_cast<std::size_t>(res.layers_done) < weights.size();
  };
  auto slots = [&](auto& io) {
    io("y", y);
    io("layers_done", res.layers_done);
  };
  auto setup = [&](bool resumed) {
    if (resumed) {
      gb::check_value(y.nrows() == y0.nrows(),
                      "dnn_inference: resume capsule does not match y0");
    } else {
      y = y0.dup();
    }
    return more();
  };
  auto round = [&] {
    const auto layer = static_cast<std::size_t>(res.layers_done);
    const auto& w = weights[layer];
    gb::check_dims(y.ncols() == w.nrows(), "dnn_inference: layer shape");

    // The whole layer builds into temporaries; y stays at the layer boundary
    // until the commit, so a mid-round trip captures cleanly.
    gb::Matrix<double> z(y.nrows(), w.ncols());
    gb::mxm(z, gb::no_mask, gb::no_accum, gb::plus_times<double>(), y, w);

    // Bias, ReLU prune, and clip.
    gb::apply(z, gb::no_mask, gb::no_accum,
              gb::BindSecond<gb::Plus, double>{{}, biases[layer]}, z);
    gb::Matrix<double> pos(z.nrows(), z.ncols());
    gb::select(pos, gb::no_mask, gb::no_accum, gb::SelValueGt{}, z, 0.0);
    gb::apply(pos, gb::no_mask, gb::no_accum,
              gb::BindSecond<gb::Min, double>{{}, ymax}, pos);
    y = std::move(pos);  // commit
    ++res.layers_done;
    return more();
  };
  if (iterate(res, "dnn", resume, slots, setup, round)) {
    res.y = std::move(y);
  }
  return res;
}

gb::Matrix<double> dnn_inference(const gb::Matrix<double>& y0,
                                 const std::vector<gb::Matrix<double>>& weights,
                                 const std::vector<double>& biases,
                                 double ymax) {
  DnnResult res = dnn_inference_run(y0, weights, biases, ymax);
  rethrow_interruption(res.stop);
  return std::move(res.y);
}

}  // namespace lagraph
