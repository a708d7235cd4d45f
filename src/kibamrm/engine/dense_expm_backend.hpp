// Dense matrix-exponential backend: pi(t_{k+1}) = pi(t_k) * expm(Q dt).
//
// The scaling-and-squaring Pade exponential (linalg/expm) is accurate to
// machine precision, making this the cross-validation oracle for the
// iterative engines -- on chains small enough that an O(states^3) dense
// exponential per distinct increment is affordable.  Uniform time grids pay
// for a single exponential: increments repeat, and the propagator is cached
// per distinct dt.
//
// Chains above BackendOptions::dense_state_limit are refused with
// UnsupportedChainError; use the uniformization engine there.  The loop
// space is every state, so the march's gather and scatter are copies.
#pragma once

#include "kibamrm/engine/transient_backend.hpp"
#include "kibamrm/linalg/dense_matrix.hpp"

namespace kibamrm::engine {

class DenseExpmBackend final : public TransientBackend {
 public:
  explicit DenseExpmBackend(BackendOptions options);

  std::string_view name() const override { return "dense"; }

  std::vector<std::vector<double>> solve(
      const markov::Ctmc& chain, const std::vector<double>& initial,
      const std::vector<double>& times,
      const PointCallback& on_point = nullptr) override;

  const BackendStats& last_stats() const override { return stats_; }

 private:
  BackendOptions options_;
  BackendStats stats_;
  std::vector<std::uint32_t> all_states_;  // the loop space
  MarchBuffers buffers_;
};

}  // namespace kibamrm::engine
