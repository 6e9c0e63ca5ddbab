// HMDF, the binary frame protocol of shard tasks (DESIGN.md §15).
//
// A cluster coordinator (exec/cluster.hpp) and its hmdiv_serve workers
// talk over an upgraded TCP connection using length-prefixed frames:
//
//   +-------+-------+----------------+-----------------+
//   | magic | type  | payload length | payload bytes   |
//   | u32   | u32   | u64            | ...             |
//   +-------+-------+----------------+-----------------+
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// patterns, so a value that crosses the wire and comes back is the *same
// double*, bit for bit — the foundation of the cluster's "N workers ==
// 1 process" determinism guarantee. A frame is either complete or absent:
// the incremental FrameParser never yields a frame until every payload
// byte has arrived, so a worker that dies mid-write surfaces as a truncated
// stream (EOF with parser not idle), never as a short garbage frame.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace hmdiv::exec::wire {

/// Thrown by Reader / FrameParser on malformed bytes (bad magic, truncated
/// payload, over-long length).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// "HMDF" little-endian: first sanity check on every frame.
inline constexpr std::uint32_t kFrameMagic = 0x46444D48u;

/// Upper bound on a single frame payload (64 MiB). Anything larger is a
/// corrupted length field, not a workload — fail fast instead of trying to
/// buffer it.
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

/// Hard ceiling on the shards one run is partitioned into (shard_range's
/// overflow-free cut relies on it).
inline constexpr std::uint32_t kMaxShards = 256;

enum class FrameType : std::uint32_t {
  /// Coordinator -> worker: shard descriptor + workload config blob.
  task = 1,
  /// Worker -> coordinator: workload result payload.
  result = 2,
  /// Worker -> coordinator: the worker registry's obs::Snapshot delta
  /// across the task (serialize_snapshot).
  obs = 3,
  /// Worker -> coordinator: structured failure description (string).
  error = 4,
  /// Worker -> coordinator: end-of-task marker carrying the task's id (its
  /// shard index, u32). With several tasks pipelined on one connection the
  /// coordinator matches replies FIFO; the done frame is the sequencing
  /// point that says "every frame before me belonged to task <id>" — and
  /// doubles as an ordering check, since the id must equal the head of the
  /// coordinator's in-flight queue.
  done = 5,
};

/// Append-only byte sink for payload construction.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
  /// IEEE-754 bit pattern — exact round trip.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void doubles(std::span<const double> values) {
    u64(values.size());
    for (const double v : values) f64(v);
  }
  void bytes(std::span<const std::uint8_t> raw) {
    bytes_.insert(bytes_.end(), raw.begin(), raw.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked cursor over a payload; throws ProtocolError on underrun.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint32_t u32() {
    const auto raw = take(4);
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= std::uint32_t{raw[b]} << (8 * b);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    const auto raw = take(8);
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= std::uint64_t{raw[b]} << (8 * b);
    return v;
  }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    const auto raw = take(n);
    return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
  }
  /// Reads a u64 element count and checks that that many elements of at
  /// least `min_bytes` each fit in the rest of the payload, before the
  /// caller sizes anything from it: a hostile count cannot make a decoder
  /// allocate more than the frame it arrived in.
  [[nodiscard]] std::size_t count(std::size_t min_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_bytes) {
      throw ProtocolError("shard frame: element count exceeds the payload");
    }
    return static_cast<std::size_t>(n);
  }
  [[nodiscard]] std::vector<double> doubles() {
    const std::size_t n = count(sizeof(double));
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(f64());
    return out;
  }
  [[nodiscard]] std::span<const std::uint8_t> take(std::uint64_t n) {
    if (n > bytes_.size() - pos_) {
      throw ProtocolError("shard frame payload truncated");
    }
    const auto out = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::task;
  std::vector<std::uint8_t> payload;
};

/// Serializes a frame (header + payload) onto `out`.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload);

/// Incremental frame decoder over a growing byte stream. feed() appends raw
/// bytes (as read from the socket); next() pops the earliest complete frame,
/// or nullopt while one is still partial. idle() distinguishes a clean EOF
/// (stream ended on a frame boundary) from a truncated one.
class FrameParser {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  /// Throws ProtocolError on bad magic, unknown type, or an over-long
  /// declared payload length.
  [[nodiscard]] std::optional<Frame> next();
  /// True iff no partial frame is pending.
  [[nodiscard]] bool idle() const { return buffer_.empty(); }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// The shard descriptor the coordinator hands a worker in each task frame.
struct ShardTask {
  /// Name the workload handler was registered under
  /// (exec/cluster_protocol.hpp).
  std::string workload;
  /// The micro-shard this task covers, in [0, shard_count).
  std::uint32_t shard_index = 0;
  /// Total shards the work is partitioned into.
  std::uint32_t shard_count = 1;
  /// Worker thread budget (0 = all hardware threads).
  std::uint32_t threads = 1;
  /// Whether the coordinator wants the worker's metrics: the worker ships
  /// an obs frame iff this is set *and* its own obs gate is on (a daemon
  /// whose obs gate is off ships none). A task never flips the gate.
  bool obs_enabled = false;
  /// When true `blob` is empty and the worker must reuse the blob it
  /// cached from the most recent non-cached task on the same connection
  /// (for the same workload). Lets a coordinator ship a large config once
  /// per connection instead of once per micro-task.
  bool blob_cached = false;
  /// Opaque workload configuration — identical for every shard; handlers
  /// derive their slice from shard_range(items, shard_index, shard_count).
  std::vector<std::uint8_t> blob;
};

[[nodiscard]] std::vector<std::uint8_t> serialize_task(const ShardTask& task);
[[nodiscard]] ShardTask parse_task(std::span<const std::uint8_t> payload);

/// Payload of a done frame: the id (shard index) of the task whose reply
/// frames precede it on the stream.
[[nodiscard]] std::vector<std::uint8_t> serialize_done(std::uint32_t task_id);
[[nodiscard]] std::uint32_t parse_done(std::span<const std::uint8_t> payload);

/// Payload of an obs frame:
///   u64 n_counters | n × (str name, u64 value)
///   | u64 n_histograms | n × (str name, u64 count, sum, min, max,
///                             u64 n_buckets, n_buckets × u64)
/// parse_snapshot(serialize_snapshot(s)) reproduces `s` field for field.
/// The payload comes from a remote worker, so parse_snapshot bounds every
/// element count by the bytes behind it before sizing anything
/// (Reader::count), caps a histogram at obs::Histogram::kBuckets buckets,
/// and throws ProtocolError on truncated or trailing bytes.
[[nodiscard]] std::vector<std::uint8_t> serialize_snapshot(
    const obs::Snapshot& snapshot);
[[nodiscard]] obs::Snapshot parse_snapshot(
    std::span<const std::uint8_t> payload);

/// Fixed partition of `items` work units over `shards` workers: shard s
/// covers [begin, end) = [s·m/N, (s+1)·m/N). Depends only on (items,
/// shards), covers the range exactly, and is balanced to within one unit —
/// the substream-partitioning contract every sharded workload uses.
struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t size() const { return end - begin; }
};
[[nodiscard]] ShardRange shard_range(std::uint64_t items, std::uint32_t shard,
                                     std::uint32_t shards) noexcept;

}  // namespace hmdiv::exec::wire
