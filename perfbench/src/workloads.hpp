#pragma once

#include "harness.hpp"

namespace perfbench {

/// A large synthetic CSV trace of full-graph requests streamed through
/// Server::serve on a 2xbaseline,1xnextgen fleet (trace_stream.cpp).
[[nodiscard]] WorkloadResult run_trace_stream(const Options& options);

/// Degree-skewed k-hop sampled queries, fused and feature-cached
/// (sampled_serve.cpp).
[[nodiscard]] WorkloadResult run_sampled_serve(const Options& options);

/// The paper's design points on a cold core::Engine (paper_sweep.cpp).
[[nodiscard]] WorkloadResult run_paper_sweep(const Options& options);

}  // namespace perfbench
