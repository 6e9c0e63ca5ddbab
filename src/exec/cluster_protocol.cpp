#include "exec/cluster_protocol.hpp"

#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace hmdiv::exec {

namespace {

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, ShardHandler, std::less<>>& handler_registry() {
  static std::map<std::string, ShardHandler, std::less<>> registry;
  return registry;
}

void append_error_frame(std::vector<std::uint8_t>& out,
                        const std::string& message) {
  wire::Writer payload;
  payload.str(message);
  wire::append_frame(out, wire::FrameType::error, payload.data());
}

}  // namespace

void register_shard_workload(std::string_view name, ShardHandler handler) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  handler_registry()[std::string(name)] = handler;
}

ShardHandler find_shard_workload(std::string_view name) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = handler_registry().find(name);
  return it == handler_registry().end() ? nullptr : it->second;
}

bool execute_shard_task(const wire::ShardTask& task,
                        std::vector<std::uint8_t>& out) {
  const ShardHandler handler = find_shard_workload(task.workload);
  if (handler == nullptr) {
    append_error_frame(out, "shard endpoint: unknown workload '" +
                                task.workload + "'");
    return false;
  }
  // The gate belongs to the process: a task reads it and never flips it.
  const bool ship_obs = task.obs_enabled && obs::enabled();
  obs::Snapshot before;
  if (ship_obs) before = obs::registry_snapshot();

  std::vector<std::uint8_t> payload;
  try {
    HMDIV_OBS_COUNT("serve.shard.tasks", 1);
    HMDIV_OBS_SCOPED_TIMER("serve.shard.task_ns");
    payload = handler(task);
  } catch (const std::exception& e) {
    append_error_frame(out, "shard endpoint: " + task.workload + ": " +
                                e.what());
    return false;
  }

  wire::append_frame(out, wire::FrameType::result, payload);
  if (ship_obs) {
    wire::append_frame(
        out, wire::FrameType::obs,
        wire::serialize_snapshot(
            obs::snapshot_delta(before, obs::registry_snapshot())));
  }
  return true;
}

std::vector<ShardSession::Reply> ShardSession::consume(
    std::span<const std::uint8_t> bytes) {
  std::vector<Reply> replies;
  if (dead_) return replies;
  const auto die = [&](const std::string& message) {
    dead_ = true;
    Reply reply;
    reply.close = true;
    append_error_frame(reply.bytes, message);
    replies.push_back(std::move(reply));
  };
  try {
    parser_.feed(bytes);
    while (auto frame = parser_.next()) {
      if (frame->type != wire::FrameType::task) {
        die("shard endpoint: expected a task frame");
        break;
      }
      wire::ShardTask task;
      try {
        task = wire::parse_task(frame->payload);
      } catch (const std::exception& e) {
        die(std::string("shard endpoint: bad task: ") + e.what());
        break;
      }
      Reply reply;
      reply.shard_index = task.shard_index;
      if (task.blob_cached) {
        if (!have_blob_ || blob_workload_ != task.workload) {
          // A correct coordinator ships the blob inline on the first task
          // of every (re)connection; a miss is a protocol bug on its side,
          // reported as a structured (deterministic) error.
          append_error_frame(reply.bytes,
                             "shard endpoint: no cached blob for workload '" +
                                 task.workload + "'");
          replies.push_back(std::move(reply));
          continue;
        }
        task.blob = blob_;
      } else {
        blob_ = task.blob;
        blob_workload_ = task.workload;
        have_blob_ = true;
      }
      if (execute_shard_task(task, reply.bytes)) {
        wire::append_frame(reply.bytes, wire::FrameType::done,
                           wire::serialize_done(task.shard_index));
      }
      replies.push_back(std::move(reply));
    }
  } catch (const wire::ProtocolError& e) {
    die(std::string("shard endpoint: ") + e.what());
  }
  return replies;
}

}  // namespace hmdiv::exec
