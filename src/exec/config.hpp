// Execution configuration for the parallel engine (exec/parallel.hpp).
//
// A `Config` says how many threads a parallel region may use; it never
// affects *what* is computed. Every parallel algorithm in this repository
// decomposes its work into fixed-size chunks whose layout depends only on
// the problem size, and every stochastic chunk draws from its own
// substream RNG — so results are bit-identical for any thread count.
//
// The thread budget is an argument and nothing else: every parallel call
// takes a Config, and a call handed none uses `Config{}` (all hardware
// threads). The CLIs build theirs from --threads.
#pragma once

namespace hmdiv::exec {

/// Thread-count policy for a parallel region.
struct Config {
  /// Maximum threads a parallel call may use, including the calling
  /// thread. 0 means "auto": std::thread::hardware_concurrency().
  unsigned threads = 0;

  /// The actual thread budget: `threads`, or hardware concurrency (at
  /// least 1) when `threads` is 0.
  [[nodiscard]] unsigned resolved_threads() const noexcept;
};

}  // namespace hmdiv::exec
