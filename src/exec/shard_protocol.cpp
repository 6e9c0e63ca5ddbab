#include "exec/shard_protocol.hpp"

#include <algorithm>

namespace hmdiv::exec::wire {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 8;  // magic + type + length

// Smallest obs-frame elements: a counter is a name length and a value; a
// histogram is a name length, four statistics and a bucket count.
constexpr std::size_t kMinCounterBytes = 2 * 8;
constexpr std::size_t kMinHistogramBytes = 6 * 8;

bool known_type(std::uint32_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::task:
    case FrameType::result:
    case FrameType::obs:
    case FrameType::error:
    case FrameType::done:
      return true;
  }
  return false;
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload) {
  Writer header;
  header.u32(kFrameMagic);
  header.u32(static_cast<std::uint32_t>(type));
  header.u64(payload.size());
  out.insert(out.end(), header.data().begin(), header.data().end());
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameParser::next() {
  if (buffer_.size() < kHeaderSize) return std::nullopt;
  Reader header(std::span<const std::uint8_t>(buffer_.data(), kHeaderSize));
  if (header.u32() != kFrameMagic) {
    throw ProtocolError("shard frame: bad magic");
  }
  const std::uint32_t type = header.u32();
  if (!known_type(type)) {
    throw ProtocolError("shard frame: unknown frame type " +
                        std::to_string(type));
  }
  const std::uint64_t length = header.u64();
  if (length > kMaxFramePayload) {
    throw ProtocolError("shard frame: declared payload of " +
                        std::to_string(length) + " bytes exceeds limit");
  }
  if (buffer_.size() - kHeaderSize < length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(
      buffer_.begin() + static_cast<std::ptrdiff_t>(kHeaderSize),
      buffer_.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + length));
  buffer_.erase(
      buffer_.begin(),
      buffer_.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + length));
  return frame;
}

std::vector<std::uint8_t> serialize_task(const ShardTask& task) {
  Writer w;
  w.str(task.workload);
  w.u32(task.shard_index);
  w.u32(task.shard_count);
  w.u32(task.threads);
  w.u8(task.obs_enabled ? 1 : 0);
  w.u8(task.blob_cached ? 1 : 0);
  w.u64(task.blob.size());
  w.bytes(task.blob);
  return w.take();
}

ShardTask parse_task(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ShardTask task;
  task.workload = r.str();
  task.shard_index = r.u32();
  task.shard_count = r.u32();
  task.threads = r.u32();
  task.obs_enabled = r.u8() != 0;
  task.blob_cached = r.u8() != 0;
  const std::uint64_t blob_size = r.u64();
  const auto blob = r.take(blob_size);
  task.blob.assign(blob.begin(), blob.end());
  if (!r.exhausted()) {
    throw ProtocolError("shard task: trailing bytes after blob");
  }
  if (task.shard_count == 0 || task.shard_index >= task.shard_count) {
    throw ProtocolError("shard task: shard_index outside [0, shard_count)");
  }
  if (task.blob_cached && !task.blob.empty()) {
    throw ProtocolError("shard task: cached task carries an inline blob");
  }
  return task;
}

std::vector<std::uint8_t> serialize_done(std::uint32_t task_id) {
  Writer w;
  w.u32(task_id);
  return w.take();
}

std::uint32_t parse_done(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const std::uint32_t id = r.u32();
  if (!r.exhausted()) {
    throw ProtocolError("shard done frame: trailing bytes");
  }
  return id;
}

std::vector<std::uint8_t> serialize_snapshot(const obs::Snapshot& snapshot) {
  Writer w;
  w.u64(snapshot.counters.size());
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    w.str(c.name);
    w.u64(c.value);
  }
  w.u64(snapshot.histograms.size());
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    w.str(h.name);
    w.u64(h.count);
    w.u64(h.sum);
    w.u64(h.min);
    w.u64(h.max);
    w.u64(h.buckets.size());
    for (const std::uint64_t b : h.buckets) w.u64(b);
  }
  return w.take();
}

obs::Snapshot parse_snapshot(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  obs::Snapshot out;
  out.counters.resize(r.count(kMinCounterBytes));
  for (obs::CounterSnapshot& c : out.counters) {
    c.name = r.str();
    c.value = r.u64();
  }
  out.histograms.resize(r.count(kMinHistogramBytes));
  for (obs::HistogramSnapshot& h : out.histograms) {
    h.name = r.str();
    h.count = r.u64();
    h.sum = r.u64();
    h.min = r.u64();
    h.max = r.u64();
    const std::size_t buckets = r.count(sizeof(std::uint64_t));
    if (buckets > obs::Histogram::kBuckets) {
      throw ProtocolError("obs frame: bucket count out of range");
    }
    h.buckets.resize(buckets);
    for (std::uint64_t& b : h.buckets) b = r.u64();
  }
  if (!r.exhausted()) {
    throw ProtocolError("obs frame: trailing bytes");
  }
  return out;
}

ShardRange shard_range(std::uint64_t items, std::uint32_t shard,
                       std::uint32_t shards) noexcept {
  const std::uint32_t n = std::max(shards, 1u);
  const std::uint32_t s = std::min(shard, n - 1);
  // floor(k·m/N) without the 128-bit product: with m = q·N + r the cut is
  // k·q + floor(k·r/N); k·q ≤ m and k·r ≤ kMaxShards² so nothing overflows.
  const std::uint64_t q = items / n;
  const std::uint64_t r = items % n;
  const auto cut = [&](std::uint64_t k) { return k * q + (k * r) / n; };
  return ShardRange{cut(s), cut(s + 1)};
}

}  // namespace hmdiv::exec::wire
