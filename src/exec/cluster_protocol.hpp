// Wire layer of the TCP shard transport (DESIGN.md §15).
//
// A cluster coordinator talks to `hmdiv_serve` workers over the daemon's
// ordinary NDJSON connection: it sends one `{"op":"shard",...}` request
// (the upgrade handshake), waits for the `"ok":true` response line, and
// from then on the connection carries the length-prefixed "HMDF" frames
// of shard_protocol.hpp — task frames in, result (+ obs) or error frames
// out, several tasks per connection. Every task's payload is a pure
// function of (blob, shard_index, shard_count) over the workload's
// wire::shard_range partition, and the coordinator merges in ascending
// shard order, which is what makes N hosts bit-identical to the
// in-process run by construction.
//
// This header holds the pieces both ends share: the upgrade request line
// the coordinator sends, the workload registry shard tasks dispatch
// through, and the worker-side ShardSession — a byte-in / byte-out state
// machine the serve layer drives from its connection loop (no sockets in
// here, so the protocol is unit-testable in-process).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/shard_protocol.hpp"

namespace hmdiv::exec {

/// The NDJSON request a coordinator sends to switch a serve connection
/// into binary shard mode. The daemon answers with a normal response line
/// (`"ok":true` and `"shard":"ready"`); every byte after that response is
/// HMDF frames.
inline constexpr std::string_view kShardUpgradeLine =
    "{\"op\":\"shard\",\"id\":0}\n";

/// A worker-side workload implementation: rebuilds the workload from
/// task.blob, computes the slice wire::shard_range(items,
/// task.shard_index, task.shard_count) of its own index space with a
/// thread budget of exec::Config{task.threads}, and returns the result
/// payload shipped back to the coordinator.
using ShardHandler = std::vector<std::uint8_t> (*)(const wire::ShardTask&);

/// Registers `handler` under `name` (process-wide; later registrations of
/// the same name win, so tests can stub workloads). Workload modules
/// register at static-init time via ShardWorkloadRegistration.
void register_shard_workload(std::string_view name, ShardHandler handler);

/// Static registrar:
///   const ShardWorkloadRegistration reg{"sim.trial", &handle_trial};
struct ShardWorkloadRegistration {
  ShardWorkloadRegistration(std::string_view name, ShardHandler handler) {
    register_shard_workload(name, handler);
  }
};

/// Looks up a registered workload; nullptr when the name is unknown.
/// execute_shard_task dispatches through this.
[[nodiscard]] ShardHandler find_shard_workload(std::string_view name);

/// Executes one shard task on this process's engine and appends the reply
/// frames to `out`: a result frame, then — iff task.obs_enabled and this
/// process's obs gate is on — an obs frame carrying the *delta* of the
/// global registry across the handler (obs::snapshot_delta; a
/// long-running daemon must not re-ship its whole uptime per task). A
/// failed or unknown workload appends an error frame instead and returns
/// false (the caller must not follow an error with a done frame — done
/// marks successful completion only). Both of the task's settings reach
/// it through the task itself and leave process state alone: task.threads
/// is the handler's budget, and task.obs_enabled never flips the obs
/// gate, so concurrent tasks never see each other's budget and a daemon
/// whose obs gate is off records nothing. Never throws.
bool execute_shard_task(const wire::ShardTask& task,
                        std::vector<std::uint8_t>& out);

/// Worker-side shard-mode stream: feed it connection bytes, ship back the
/// replies it produces. One session per upgraded connection. Coordinators
/// may pipeline several task frames back to back; each task's reply ends
/// with a done frame carrying the task's id (its shard index), so
/// the far end can match replies to its in-flight window FIFO. The session
/// also caches the most recent inline blob per connection: a task with
/// blob_cached set reuses it, so a coordinator ships a large workload
/// config once per connection, not once per micro-task.
class ShardSession {
 public:
  struct Reply {
    /// Shard index of the task (faults key on it).
    std::uint32_t shard_index = 0;
    /// Frames to ship, in order (result [+ obs] + done, or error).
    std::vector<std::uint8_t> bytes;
    /// Unrecoverable stream (bad magic, oversized or non-task frame):
    /// ship `bytes`, then close the connection.
    bool close = false;
  };

  /// Consumes `bytes`, executes every complete task frame in arrival
  /// order, and returns one Reply per task. A malformed stream yields a
  /// final Reply with close=true and the session goes dead (further
  /// bytes are ignored). Never throws.
  [[nodiscard]] std::vector<Reply> consume(
      std::span<const std::uint8_t> bytes);

 private:
  wire::FrameParser parser_;
  bool dead_ = false;
  /// Blob cache for blob_cached tasks (one per connection).
  bool have_blob_ = false;
  std::string blob_workload_;
  std::vector<std::uint8_t> blob_;
};

}  // namespace hmdiv::exec
