// Multi-host distributed execution: a TCP shard coordinator (DESIGN.md
// §15).
//
// Threads (exec/parallel.hpp) are the one way to go parallel on a host;
// ClusterRunner is the one way to leave it. It fans substream-partitioned
// shard tasks — sim.trial batch ranges, core.sweep / core.minimise grid
// subspans, core.uq.sample draw chunks — across remote `hmdiv_serve`
// workers over TCP, using the HMDF frame format and the wire::shard_range
// partition of exec/shard_protocol.hpp. Because a task's payload is a pure
// function of (blob, shard_index, shard_count), and the merge is in
// ascending shard order, output over N hosts is bit-identical to the
// in-process run — the thread pool's determinism contract, lifted to the
// network.
//
// Dispatch: a run cuts the workload's item space into
// cluster_shard_count() micro-shards, one per task, and hands them out
// from a FIFO queue to whichever ready connection has the fewest tasks in
// flight, keeping up to four in flight per connection. Replies match FIFO
// via per-task done frames, so the next task's bytes are on the wire while
// the worker computes the current one. The workload config blob ships
// once per connection (the session caches it; follow-up tasks set
// blob_cached).
//
// Transport: one warm TCP connection per worker (kept across run() calls,
// so a profiling pipeline pays the connect + NDJSON upgrade handshake
// once). All connects start concurrently as non-blocking sockets polled
// together, bounding startup by the slowest worker. A worker that fails —
// connect refusal, reset, EOF, malformed frames, a done frame out of
// order, or a blown head-of-line deadline — is sidelined, all of its
// in-flight shards requeue at the front of the queue (safe by the purity
// argument above), and after ClusterOptions::readmit_after it gets one
// re-probe per run so a transient outage does not cost the whole fleet
// member; structured error frames, by contrast, are deterministic
// workload failures and abort the run. Worker obs snapshots (per-task
// deltas) fold into this process's registry.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hmdiv::exec {

/// Fan-out policy for a cluster of remote workers.
struct ClusterOptions {
  /// Worker endpoints ("host:port" or "[v6]:port"), e.g. from --workers.
  std::vector<std::string> workers;
  /// Thread budget per task on the worker; 0 ships as 0, and the worker
  /// then uses all its hardware threads.
  unsigned threads = 0;
  /// Per-task wall-clock budget, measured at the head of each
  /// connection's in-flight queue. On expiry the worker is dropped and
  /// its in-flight tasks re-issued elsewhere.
  std::chrono::milliseconds task_deadline{120'000};
  /// Budget for connect + upgrade handshake per worker.
  std::chrono::milliseconds connect_timeout{5'000};
  /// Backoff before a transport-sidelined worker gets its one re-probe
  /// per run; 0 disables re-admission.
  std::chrono::milliseconds readmit_after{1'000};
};

/// Per-worker tallies, cumulative across a runner's lifetime.
struct ClusterWorkerStats {
  std::string address;        ///< endpoint as configured
  std::uint64_t tasks = 0;    ///< tasks completed here
  std::uint64_t bytes_out = 0;  ///< task bytes shipped to it
  std::uint64_t bytes_in = 0;   ///< reply bytes drained from it
  std::uint64_t retries = 0;  ///< tasks abandoned here and re-issued
  std::uint64_t readmitted = 0;  ///< times sidelined then re-admitted
  std::string last_error;     ///< most recent transport failure, if any
};

/// Micro-shards (and so tasks) one run over `items` work units is cut
/// into across `workers` workers: 16 per worker, never more than the
/// items, clamped to [1, wire::kMaxShards]. A pure function of its
/// arguments, so a run's partition never depends on timing.
[[nodiscard]] std::uint32_t cluster_shard_count(std::uint64_t items,
                                                std::size_t workers) noexcept;

/// A cluster run that could not complete: every worker failed, a task ran
/// out of workers to retry on, or a worker shipped a structured error
/// frame (a deterministic workload failure no reassignment can fix).
class ClusterError : public std::runtime_error {
 public:
  explicit ClusterError(std::string message)
      : std::runtime_error(std::move(message)) {}
};

/// Coordinator. Not thread-safe; one runner per pipeline.
class ClusterRunner {
 public:
  explicit ClusterRunner(ClusterOptions options);
  ~ClusterRunner();
  ClusterRunner(const ClusterRunner&) = delete;
  ClusterRunner& operator=(const ClusterRunner&) = delete;

  /// Runs `workload` across the fleet and returns one raw result payload
  /// per micro-shard, in ascending shard order, so workload wrappers
  /// concatenate/fold them in order. `items` is the workload's
  /// natural-grain item count (trial batches, grid points, draw chunks);
  /// it sizes the partition through cluster_shard_count. Throws
  /// ClusterError when the run cannot complete.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> run(
      std::string_view workload, std::span<const std::uint8_t> blob,
      std::uint64_t items);

  /// Per-worker tallies so far (index-aligned with options.workers).
  [[nodiscard]] std::vector<ClusterWorkerStats> worker_stats() const;

 private:
  struct Conn;
  struct RunState;

  ClusterOptions options_;
  std::vector<Conn> conns_;
};

}  // namespace hmdiv::exec
