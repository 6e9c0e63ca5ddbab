// Tests for the analytical sweep engine (core/tradeoff.hpp batch kernels
// and the zero-allocation contract on exec workspaces).
//
// This TU replaces the global operator new/delete with counting versions so
// the steady-state "no heap allocation" contract of sweep_into and
// minimise_cost is asserted, not just claimed. The replacement is
// program-wide (it affects every test in the binary) but only adds one
// relaxed atomic increment per allocation; other TUs read the counter
// through tests/alloc_count.hpp.
#include "core/tradeoff.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "exec/config.hpp"
#include "exec/parallel.hpp"
#include "exec/workspace.hpp"

// GCC inlines the counting operator new (malloc-based) and operator delete
// (free-based) into use sites in this TU and then warns that free() is
// paired with a non-malloc allocation function; the pairing is consistent
// by construction here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Every other replaceable form must come from the same malloc family too:
// the library's nothrow (std::stable_sort's temporary buffer) and aligned
// allocations are freed through the plain operator delete below, and a
// sanitizer runtime that still owned those forms would report every such
// pair as an alloc/dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t bytes = size == 0 ? 1 : size;
  const std::size_t rounded = (bytes + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hmdiv::test {

std::uint64_t allocation_count() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

}  // namespace hmdiv::test

namespace hmdiv::core {
namespace {

using hmdiv::test::allocation_count;

/// Deterministically grows the thread-local arena of every thread that can
/// participate in a `threads`-wide parallel region. Work-claiming pools
/// give no guarantee that a plain warm-up run touches every worker — a
/// helper that sat out the warm-up would grow its arena mid-measurement.
/// A spin barrier forces the chunks onto `threads` distinct threads: a
/// thread stuck in the barrier cannot claim a second chunk. The deadline
/// guards the (not expected here) inline-fallback path, where one thread
/// runs all chunks and the barrier could never fill.
void warm_all_workers(unsigned threads, std::size_t bytes) {
  std::atomic<unsigned> started{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  exec::parallel_for_chunks(
      threads, /*grain=*/1,
      [&](std::size_t, std::size_t, std::size_t) {
        exec::Workspace& ws = exec::thread_workspace();
        const exec::Workspace::Scope scope(ws);
        const std::span<std::byte> scratch = ws.alloc<std::byte>(bytes);
        scratch[bytes - 1] = std::byte{1};
        started.fetch_add(1, std::memory_order_acq_rel);
        while (started.load(std::memory_order_acquire) < threads &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      },
      exec::Config{threads});
}

TradeoffAnalyzer reference_analyzer(double prevalence = 0.008) {
  BinormalMachine machine;
  machine.cancer_class_means = {2.2, 1.4, 3.0};
  machine.normal_class_means = {-0.3, 0.4};
  DemandProfile cancers({"typical", "subtle", "obvious"}, {0.5, 0.3, 0.2});
  std::vector<HumanFnResponse> fn(3);
  fn[0] = {0.02, 0.3};
  fn[1] = {0.1, 0.5};
  fn[2] = {0.01, 0.15};
  DemandProfile normals({"clear", "confusing"}, {0.8, 0.2});
  std::vector<HumanFpResponse> fp(2);
  fp[0] = {0.08, 0.02};
  fp[1] = {0.25, 0.1};
  return TradeoffAnalyzer(std::move(machine), std::move(cancers),
                          std::move(fn), std::move(normals), std::move(fp),
                          prevalence);
}

std::vector<double> make_grid(std::size_t steps, double lo, double hi) {
  std::vector<double> grid(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    grid[i] = lo + (hi - lo) * static_cast<double>(i) /
                       static_cast<double>(steps - 1);
  }
  return grid;
}

bool points_bitwise_equal(const SystemOperatingPoint& a,
                          const SystemOperatingPoint& b) {
  return std::memcmp(&a, &b, sizeof(SystemOperatingPoint)) == 0;
}

TEST(SweepEngine, EvaluateBatchMatchesScalarBitwise) {
  const auto analyzer = reference_analyzer();
  // Ascending (the sweep-grid shape), descending, and unsorted inputs all
  // take different Φ paths internally and must all reproduce the scalar
  // reference bit-for-bit.
  const std::vector<double> ascending = make_grid(10'000, -6.0, 6.0);
  const std::vector<double> descending(ascending.rbegin(), ascending.rend());
  std::vector<double> shuffled = ascending;
  for (std::size_t i = 1; i < shuffled.size(); i += 2) {
    std::swap(shuffled[i - 1], shuffled[i]);
  }
  for (const auto& grid : {ascending, descending, shuffled}) {
    std::vector<SystemOperatingPoint> batch(grid.size());
    analyzer.evaluate_batch(grid, batch);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const SystemOperatingPoint scalar = analyzer.evaluate(grid[i]);
      ASSERT_TRUE(points_bitwise_equal(batch[i], scalar))
          << "threshold " << grid[i];
    }
  }
}

TEST(SweepEngine, EvaluateBatchRejectsSizeMismatch) {
  const auto analyzer = reference_analyzer();
  const std::vector<double> grid = {0.0, 1.0};
  std::vector<SystemOperatingPoint> out(3);
  EXPECT_THROW(analyzer.evaluate_batch(grid, out), std::invalid_argument);
}

TEST(SweepEngine, SweepBitIdenticalAcrossThreadCounts) {
  const auto analyzer = reference_analyzer();
  const std::vector<double> grid = make_grid(10'000, -4.0, 4.0);
  const auto serial = analyzer.sweep(grid, exec::Config{1});
  const auto parallel = analyzer.sweep(grid, exec::Config{4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(points_bitwise_equal(serial[i], parallel[i])) << i;
  }
}

TEST(SweepEngine, MinimiseCostBitIdenticalAcrossThreadCounts) {
  const auto analyzer = reference_analyzer();
  const auto serial =
      analyzer.minimise_cost(25.0, 1.0, -3.0, 3.0, 10'000, exec::Config{1});
  const auto parallel =
      analyzer.minimise_cost(25.0, 1.0, -3.0, 3.0, 10'000, exec::Config{4});
  EXPECT_TRUE(points_bitwise_equal(serial, parallel));
}

TEST(SweepEngine, MinimiseCostPicksEarliestGridPointOnFlatPlateau) {
  const auto analyzer = reference_analyzer();
  // Grid entirely inside the Φ flush region: every operating point (and so
  // every cost) is identical across the whole grid. 1500 steps span three
  // 512-point chunks, so the plateau crosses chunk boundaries; the earliest
  // grid point must win regardless of how chunks are scheduled.
  for (const unsigned threads : {1u, 4u}) {
    const auto point = analyzer.minimise_cost(25.0, 1.0, 30.0, 40.0, 1500,
                                              exec::Config{threads});
    EXPECT_EQ(point.threshold, 30.0) << threads << " threads";
  }
  // Zero costs make every grid point cost exactly 0 — a plateau across the
  // full range; again the first grid point must be returned.
  for (const unsigned threads : {1u, 4u}) {
    const auto point = analyzer.minimise_cost(0.0, 0.0, -2.0, 2.0, 1500,
                                              exec::Config{threads});
    EXPECT_EQ(point.threshold, -2.0) << threads << " threads";
  }
}

TEST(SweepEngine, SweepIntoIsAllocationFreeAfterWarmup) {
  const auto analyzer = reference_analyzer();
  const std::vector<double> grid = make_grid(10'000, -4.0, 4.0);
  std::vector<SystemOperatingPoint> out(grid.size());
  // Serial: deterministic — one warm-up run grows the caller's arena, after
  // which the steady state must not touch the heap at all.
  analyzer.sweep_into(grid, out, exec::Config{1});
  const std::uint64_t before = allocation_count();
  analyzer.sweep_into(grid, out, exec::Config{1});
  const std::uint64_t delta = allocation_count() - before;
  EXPECT_EQ(delta, 0u);
}

TEST(SweepEngine, ParallelSweepIsAllocationFreeAfterWarmup) {
  const auto analyzer = reference_analyzer();
  const std::vector<double> grid = make_grid(10'000, -4.0, 4.0);
  std::vector<SystemOperatingPoint> out(grid.size());
  // Deterministic per-worker arena warm-up, then one run to settle
  // everything else (pool start-up, lazy statics).
  warm_all_workers(4, std::size_t{1} << 20);
  analyzer.sweep_into(grid, out, exec::Config{4});
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 4; ++i) {
    analyzer.sweep_into(grid, out, exec::Config{4});
  }
  const std::uint64_t delta = allocation_count() - before;
  EXPECT_EQ(delta, 0u);
}

TEST(SweepEngine, MinimiseCostIsAllocationFreeAfterWarmup) {
  const auto analyzer = reference_analyzer();
  static_cast<void>(
      analyzer.minimise_cost(25.0, 1.0, -3.0, 3.0, 10'000, exec::Config{1}));
  const std::uint64_t before = allocation_count();
  static_cast<void>(
      analyzer.minimise_cost(25.0, 1.0, -3.0, 3.0, 10'000, exec::Config{1}));
  const std::uint64_t delta = allocation_count() - before;
  EXPECT_EQ(delta, 0u);
}

}  // namespace
}  // namespace hmdiv::core
