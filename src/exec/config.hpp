// Execution configuration for the parallel engine (exec/parallel.hpp).
//
// A `Config` says how many threads a parallel region may use; it never
// affects *what* is computed. Every parallel algorithm in this repository
// decomposes its work into fixed-size chunks whose layout depends only on
// the problem size, and every stochastic chunk draws from its own
// substream RNG — so results are bit-identical for any thread count.
//
// The process-wide default is resolved once, on first use, from the
// HMDIV_THREADS environment variable (a positive integer; unset, 0 or
// unparsable means "use all hardware threads"). The CLI's --threads flag
// and tests override it with set_default_config().
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

/// Parses HMDIV_THREADS. Unset or empty yields auto; a malformed value
/// (non-numeric, trailing garbage, 0, or > 4096) also yields auto but
/// prints a one-time warning to stderr naming the bad value.
[[nodiscard]] Config config_from_env() noexcept;

namespace detail {
/// Testing hook: re-arms the one-time malformed-HMDIV_THREADS warning.
void reset_env_warning() noexcept;
}  // namespace detail

/// The process-wide default used by parallel calls that are not handed an
/// explicit Config. First call resolves it from the environment.
[[nodiscard]] Config default_config() noexcept;

/// Replaces the process-wide default (e.g. from the --threads CLI flag).
void set_default_config(Config config) noexcept;

}  // namespace hmdiv::exec
