// Deterministic chunked parallel algorithms.
//
// The determinism contract: the chunk decomposition of [0, n) depends only
// on `n` and the call-site `grain` — never on the thread count — and
// reductions combine per-chunk results in ascending chunk order. A caller
// that (a) makes each chunk's work self-contained (its own RNG substream,
// its own scratch buffers) and (b) writes results into per-index slots
// therefore gets bit-identical output at 1, 4 or N threads. Thread count
// only changes wall-clock time.
//
//   exec::parallel_for_chunks(n, grain, [&](begin, end, chunk) { … });
//   exec::parallel_for(n, grain, [&](i) { … });
//   sum = exec::parallel_reduce(n, grain, 0.0, map_chunk, std::plus<>());
//
// `grain` is the chunk size: pick it so one chunk amortises scheduling
// (microseconds of work at least) but n/grain still exceeds the largest
// thread count you care about.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "exec/config.hpp"
#include "exec/function_ref.hpp"
#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"

namespace hmdiv::exec {

/// Number of fixed-size chunks covering [0, n) at the given grain.
[[nodiscard]] constexpr std::size_t chunk_count(std::size_t n,
                                                std::size_t grain) noexcept {
  const std::size_t g = grain == 0 ? 1 : grain;
  return (n + g - 1) / g;
}

/// Runs body(begin, end, chunk_index) over fixed chunks of [0, n).
/// Chunk layout is independent of `config`; exceptions from `body`
/// propagate to the caller.
template <typename Body>
void parallel_for_chunks(std::size_t n, std::size_t grain, Body&& body,
                         const Config& config = {}) {
  if (n == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = chunk_count(n, g);
  // Region-level tallies (one enabled() check per region, never per
  // index): chunks counts the decomposition, serial_regions the regions
  // that bypassed the pool entirely.
  HMDIV_OBS_COUNT("exec.parallel.regions", 1);
  HMDIV_OBS_COUNT("exec.parallel.chunks", chunks);
  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t begin = chunk * g;
    const std::size_t end = std::min(n, begin + g);
    body(begin, end, chunk);
  };
  if (chunks == 1 || config.resolved_threads() <= 1) {
    HMDIV_OBS_COUNT("exec.parallel.serial_regions", 1);
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
    return;
  }
  // FunctionRef borrows run_chunk; run_indexed blocks until the job is
  // done, so the stack lambda outlives every invocation. No allocation.
  ThreadPool::global().run_indexed(chunks, config.resolved_threads(),
                                   FunctionRef<void(std::size_t)>(run_chunk));
}

/// Element-wise parallel loop: body(i) for i in [0, n).
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body,
                  const Config& config = {}) {
  parallel_for_chunks(
      n, grain,
      [&body](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      config);
}

/// Deterministic ordered reduction. `map_chunk(begin, end, chunk)` maps a
/// chunk to a T; `combine(accumulated, next)` folds the per-chunk values
/// in ascending chunk order, starting from `identity`. Because the fold
/// order is fixed by the chunk layout, even non-associative combines
/// (floating-point sums, leftmost-min) give the same result at any thread
/// count.
template <typename T, typename MapFn, typename CombineFn>
[[nodiscard]] T parallel_reduce(std::size_t n, std::size_t grain, T identity,
                                MapFn&& map_chunk, CombineFn&& combine,
                                const Config& config = {}) {
  if (n == 0) return identity;
  const std::size_t chunks = chunk_count(n, grain);
  std::vector<T> partial(chunks, identity);
  parallel_for_chunks(
      n, grain,
      [&partial, &map_chunk](std::size_t begin, std::size_t end,
                             std::size_t chunk) {
        partial[chunk] = map_chunk(begin, end, chunk);
      },
      config);
  T out = std::move(identity);
  for (T& value : partial) out = combine(std::move(out), std::move(value));
  return out;
}

}  // namespace hmdiv::exec
