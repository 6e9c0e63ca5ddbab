// Tests for the HMDF shard wire protocol (exec/shard_protocol.hpp), for
// the obs-frame and workload decoders' defences against hostile bytes, and
// for the
// workers' handling of partitions a coordinator never cuts. The
// bit-identity of every sharded workload is covered end to end by the
// cluster suites in tests/test_cluster.cpp.
#include "exec/shard_protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/cluster_protocol.hpp"
#include "exec/config.hpp"
#include "obs/obs.hpp"
#include "sim/trial_shard.hpp"

namespace hmdiv {
namespace {

namespace wire = exec::wire;

// --- Protocol -------------------------------------------------------------

TEST(ShardProtocol, WriterReaderRoundTrip) {
  wire::Writer w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(0.1);  // not exactly representable: must round-trip bit-for-bit
  w.str("easy");
  const std::vector<double> values{1.5, -0.0, 3.25e-300};
  w.doubles(values);
  const std::vector<std::uint8_t> payload = w.take();

  wire::Reader r(payload);
  EXPECT_EQ(r.u8(), 7U);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_EQ(r.str(), "easy");
  const std::vector<double> back = r.doubles();
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]));
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(ShardProtocol, ReaderThrowsOnUnderrun) {
  wire::Writer w;
  w.u32(1);
  const std::vector<std::uint8_t> payload = w.data();
  wire::Reader r(payload);
  EXPECT_THROW(r.u64(), wire::ProtocolError);
}

// --- Hostile blobs ---------------------------------------------------------
// A ~100-byte task must not make a worker allocate or compute without
// bound: every size is checked while decoding, before it sizes anything.

constexpr std::uint64_t kHostileSize = std::uint64_t{1} << 40;

/// Runs a workload's registered handler on `blob` as a whole-range task.
std::vector<std::uint8_t> run_handler(std::string_view workload,
                                      std::vector<std::uint8_t> blob) {
  // Link the registering TUs (static registrations in static libraries
  // are dropped unless something references them).
  sim::ensure_trial_shard_registered();
  core::ensure_uncertainty_shard_registered();
  core::ensure_tradeoff_shard_registered();
  wire::ShardTask task;
  task.workload = std::string(workload);
  task.blob = std::move(blob);
  return exec::find_shard_workload(workload)(task);
}

/// One class: name, model conditionals, profile.
void write_trial_config(wire::Writer& w) {
  w.u64(1);
  w.str("only");
  w.f64(0.1);
  w.f64(0.5);
  w.f64(0.2);
  w.doubles(std::vector<double>{1.0});
}

void write_analyzer(wire::Writer& w) {
  w.doubles(std::vector<double>{0.5});   // cancer class means
  w.doubles(std::vector<double>{-2.0});  // normal class means
  for (int side = 0; side < 2; ++side) {
    w.u64(1);  // profile
    w.str("only");
    w.doubles(std::vector<double>{1.0});
    w.u64(1);  // one human response
    w.f64(0.1);
    w.f64(0.3);
  }
  w.f64(0.01);  // prevalence
}

TEST(ShardHostileBlob, ReaderRejectsACountLongerThanThePayload) {
  wire::Writer w;
  w.u64(kHostileSize);  // claims 2^40 doubles, carries one
  w.f64(1.0);
  const std::vector<std::uint8_t> payload = w.take();
  wire::Reader r(payload);
  EXPECT_THROW((void)r.doubles(), wire::ProtocolError);
}

TEST(ShardHostileBlob, TrialRejectsAnOversizedCaseCount) {
  wire::Writer w;
  write_trial_config(w);
  w.u64(kHostileSize);  // case_count
  w.u64(1);             // seed
  EXPECT_THROW(run_handler(sim::kTrialShardWorkload, w.take()),
               wire::ProtocolError);
  wire::Writer classes;
  classes.u64(kHostileSize);  // class count, with one class's bytes behind
  classes.str("only");
  EXPECT_THROW(run_handler(sim::kTrialShardWorkload, classes.take()),
               wire::ProtocolError);
}

TEST(ShardHostileBlob, PosteriorRejectsOversizedTotalDraws) {
  wire::Writer w;
  w.u64(1);
  w.str("only");
  for (int i = 0; i < 4; ++i) w.u64(10 - i);  // consistent counts
  w.doubles(std::vector<double>{1.0});
  w.u64(kHostileSize);  // total_draws
  w.u64(1);             // base
  EXPECT_THROW(run_handler(core::kUncertaintyShardWorkload, w.take()),
               wire::ProtocolError);
}

TEST(ShardHostileBlob, SweepAndMinimiseRejectOversizedGrids) {
  // A sweep whose threshold count is longer than the frame it came in.
  wire::Writer sweep;
  write_analyzer(sweep);
  sweep.u64(kHostileSize);
  EXPECT_THROW(run_handler(core::kSweepShardWorkload, sweep.take()),
               wire::ProtocolError);
  // A minimisation asking for 2^40 grid steps in a few bytes.
  wire::Writer minimise;
  write_analyzer(minimise);
  minimise.f64(500.0);
  minimise.f64(20.0);
  minimise.f64(-4.0);
  minimise.f64(4.0);
  minimise.u64(kHostileSize);
  EXPECT_THROW(run_handler(core::kMinimiseShardWorkload, minimise.take()),
               wire::ProtocolError);
  // A legal grid in the same layout decodes and runs.
  wire::Writer legal;
  write_analyzer(legal);
  legal.f64(500.0);
  legal.f64(20.0);
  legal.f64(-4.0);
  legal.f64(4.0);
  legal.u64(1000);
  EXPECT_NO_THROW(run_handler(core::kMinimiseShardWorkload, legal.take()));
}

// --- Workers serve any partition ------------------------------------------

/// Runs one task of `workload` through execute_shard_task and returns its
/// result payload.
std::vector<std::uint8_t> run_task(std::string_view workload,
                                   std::span<const std::uint8_t> blob,
                                   std::uint32_t shard, std::uint32_t shards) {
  core::ensure_tradeoff_shard_registered();
  wire::ShardTask task;
  task.workload = std::string(workload);
  task.shard_index = shard;
  task.shard_count = shards;
  task.blob.assign(blob.begin(), blob.end());
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(exec::execute_shard_task(task, out));
  wire::FrameParser parser;
  parser.feed(out);
  std::optional<wire::Frame> frame = parser.next();
  if (!frame || frame->type != wire::FrameType::result) {
    ADD_FAILURE() << workload << " shard " << shard << ": no result frame";
    return {};
  }
  return std::move(frame->payload);
}

core::SystemOperatingPoint read_point(wire::Reader& r) {
  core::SystemOperatingPoint p;
  for (double* field :
       {&p.threshold, &p.machine_fn, &p.machine_fp, &p.system_fn,
        &p.system_fp, &p.sensitivity, &p.specificity, &p.recall_rate,
        &p.ppv}) {
    *field = r.f64();
  }
  return p;
}

TEST(ShardDeterminism, SweepHandlesFewerPointsThanShards) {
  // A coordinator never cuts more shards than points, but a worker must
  // still serve such a task: five of eight shards over a 3-point grid
  // cover nothing, and the ascending-order merge must still reproduce the
  // in-process sweep and scan. The analyzer is the one write_analyzer
  // encodes.
  const core::TradeoffAnalyzer analyzer(
      core::BinormalMachine{{0.5}, {-2.0}},
      core::DemandProfile({"only"}, {1.0}), {{0.1, 0.3}},
      core::DemandProfile({"only"}, {1.0}), {{0.1, 0.3}}, 0.01);
  const std::vector<double> grid{-1.0, 0.0, 1.0};
  wire::Writer sweep_blob;
  write_analyzer(sweep_blob);
  sweep_blob.doubles(grid);
  wire::Writer minimise_blob;
  write_analyzer(minimise_blob);
  for (const double v : {500.0, 20.0, -4.0, 4.0}) minimise_blob.f64(v);
  minimise_blob.u64(grid.size());

  constexpr std::uint32_t kShards = 8;
  std::vector<core::SystemOperatingPoint> swept;
  core::CostedOperatingPoint best;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const std::vector<std::uint8_t> points =
        run_task(core::kSweepShardWorkload, sweep_blob.data(), s, kShards);
    wire::Reader r(points);
    for (std::uint64_t n = r.u64(); n > 0; --n) swept.push_back(read_point(r));
    EXPECT_TRUE(r.exhausted());

    const std::vector<std::uint8_t> candidate = run_task(
        core::kMinimiseShardWorkload, minimise_blob.data(), s, kShards);
    wire::Reader c(candidate);
    core::CostedOperatingPoint next;
    next.valid = c.u8() != 0;
    next.cost = c.f64();
    next.point = read_point(c);
    // The coordinator's fold: strict < keeps the earliest grid point.
    if (!best.valid || (next.valid && next.cost < best.cost)) best = next;
  }

  const auto reference = analyzer.sweep(grid, exec::Config{1});
  ASSERT_EQ(swept.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(swept[i].threshold),
              std::bit_cast<std::uint64_t>(reference[i].threshold));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(swept[i].system_fn),
              std::bit_cast<std::uint64_t>(reference[i].system_fn));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(swept[i].system_fp),
              std::bit_cast<std::uint64_t>(reference[i].system_fp));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(swept[i].ppv),
              std::bit_cast<std::uint64_t>(reference[i].ppv));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(best.point.threshold),
            std::bit_cast<std::uint64_t>(
                analyzer.minimise_cost(500.0, 20.0, -4.0, 4.0, grid.size(),
                                       exec::Config{1})
                    .threshold));
}

TEST(ShardProtocol, FrameParserReassemblesByteByByte) {
  wire::Writer w;
  w.str("payload bytes");
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameType::result, w.data());

  wire::FrameParser parser;
  std::size_t frames = 0;
  for (const std::uint8_t byte : stream) {
    parser.feed(std::span<const std::uint8_t>(&byte, 1));
    while (auto frame = parser.next()) {
      ++frames;
      EXPECT_EQ(frame->type, wire::FrameType::result);
      EXPECT_EQ(frame->payload, w.data());
    }
  }
  EXPECT_EQ(frames, 1U);
  EXPECT_TRUE(parser.idle());
}

TEST(ShardProtocol, FrameParserFlagsTruncation) {
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameType::result,
                     std::vector<std::uint8_t>(100, 0x42));
  stream.resize(stream.size() - 10);  // lose the tail, as a dying worker does
  wire::FrameParser parser;
  parser.feed(stream);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.idle());  // EOF now would mean "truncated"
}

TEST(ShardProtocol, FrameParserRejectsBadMagic) {
  std::vector<std::uint8_t> garbage(32, 0xAB);
  wire::FrameParser parser;
  parser.feed(garbage);
  EXPECT_THROW(static_cast<void>(parser.next()), wire::ProtocolError);
}

TEST(ShardProtocol, FrameParserRejectsOversizedPayloadLength) {
  wire::Writer header;
  header.u32(wire::kFrameMagic);
  header.u32(static_cast<std::uint32_t>(wire::FrameType::result));
  header.u64(wire::kMaxFramePayload + 1);
  wire::FrameParser parser;
  parser.feed(header.data());
  EXPECT_THROW(static_cast<void>(parser.next()), wire::ProtocolError);
}

TEST(ShardProtocol, TaskRoundTrip) {
  wire::ShardTask task;
  task.workload = "sim.trial";
  task.shard_index = 3;
  task.shard_count = 8;
  task.threads = 2;
  task.obs_enabled = true;
  task.blob = {1, 2, 3, 4, 5};
  const wire::ShardTask back = wire::parse_task(wire::serialize_task(task));
  EXPECT_EQ(back.workload, task.workload);
  EXPECT_EQ(back.shard_index, task.shard_index);
  EXPECT_EQ(back.shard_count, task.shard_count);
  EXPECT_EQ(back.threads, task.threads);
  EXPECT_EQ(back.obs_enabled, task.obs_enabled);
  EXPECT_EQ(back.blob, task.blob);
}

TEST(ShardProtocol, TaskRejectsShardIndexOutOfRange) {
  wire::ShardTask task;
  task.workload = "w";
  task.shard_index = 4;
  task.shard_count = 4;
  EXPECT_THROW(static_cast<void>(wire::parse_task(wire::serialize_task(task))),
               wire::ProtocolError);
}

TEST(ShardProtocol, CachedTaskRoundTripsAndValidates) {
  wire::ShardTask task;
  task.workload = "w";
  task.shard_index = 2;
  task.shard_count = 8;
  task.blob_cached = true;  // cached tasks carry no inline blob
  const wire::ShardTask back = wire::parse_task(wire::serialize_task(task));
  EXPECT_EQ(back.shard_index, 2u);
  EXPECT_TRUE(back.blob_cached);
  EXPECT_TRUE(back.blob.empty());

  // A cached task that still carries an inline blob is malformed.
  task.blob = {1};
  EXPECT_THROW(static_cast<void>(wire::parse_task(wire::serialize_task(task))),
               wire::ProtocolError);
}

TEST(ShardProtocol, DoneFrameRoundTrips) {
  EXPECT_EQ(wire::parse_done(wire::serialize_done(0)), 0u);
  EXPECT_EQ(wire::parse_done(wire::serialize_done(255)), 255u);
  const std::vector<std::uint8_t> truncated{1, 2};
  EXPECT_THROW(static_cast<void>(wire::parse_done(truncated)),
               wire::ProtocolError);
  const std::vector<std::uint8_t> trailing{1, 0, 0, 0, 9};
  EXPECT_THROW(static_cast<void>(wire::parse_done(trailing)),
               wire::ProtocolError);
}

// --- Obs frames -------------------------------------------------------------

obs::Snapshot sample_snapshot() {
  obs::Snapshot snap;
  snap.counters.push_back({"a.counter", 42});
  snap.counters.push_back({"b.counter", 0});
  obs::HistogramSnapshot h;
  h.name = "a.hist_ns";
  h.count = 2;
  h.sum = 1000;
  h.min = 0;
  h.max = 1000;
  h.buckets.assign(obs::Histogram::kBuckets, 0);
  h.buckets[0] = 1;   // the recorded 0
  h.buckets[10] = 1;  // 1000 lies in [2^9, 2^10)
  snap.histograms.push_back(h);
  return snap;
}

/// The encoding of one histogram named "h" up to its bucket count.
wire::Writer histogram_header(std::uint64_t buckets) {
  wire::Writer w;
  w.u64(0);  // no counters
  w.u64(1);  // one histogram
  w.str("h");
  for (int stat = 0; stat < 4; ++stat) w.u64(0);  // count, sum, min, max
  w.u64(buckets);
  return w;
}

TEST(ShardProtocol, ObsSnapshotRoundTrips) {
  const obs::Snapshot snap = sample_snapshot();
  const obs::Snapshot back =
      wire::parse_snapshot(wire::serialize_snapshot(snap));
  ASSERT_EQ(back.counters.size(), 2U);
  EXPECT_EQ(back.counters[0].name, "a.counter");
  EXPECT_EQ(back.counters[0].value, 42U);
  EXPECT_EQ(back.counters[1].name, "b.counter");
  EXPECT_EQ(back.counters[1].value, 0U);
  ASSERT_EQ(back.histograms.size(), 1U);
  const obs::HistogramSnapshot& h = back.histograms[0];
  EXPECT_EQ(h.name, "a.hist_ns");
  EXPECT_EQ(h.count, 2U);
  EXPECT_EQ(h.sum, 1000U);
  EXPECT_EQ(h.min, 0U);
  EXPECT_EQ(h.max, 1000U);
  EXPECT_EQ(h.buckets, snap.histograms[0].buckets);
  EXPECT_TRUE(wire::parse_snapshot(wire::serialize_snapshot({})).empty());
}

TEST(ShardProtocol, ObsSnapshotRejectsTruncatedAndTrailingBytes) {
  std::vector<std::uint8_t> bytes = wire::serialize_snapshot(sample_snapshot());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::span<const std::uint8_t> prefix(bytes.data(), n);
    EXPECT_THROW(static_cast<void>(wire::parse_snapshot(prefix)),
                 wire::ProtocolError)
        << n;
  }
  bytes.push_back(0);
  EXPECT_THROW(static_cast<void>(wire::parse_snapshot(bytes)),
               wire::ProtocolError);
}

TEST(ShardProtocol, ObsSnapshotBoundsCountsByThePayload) {
  // A count of 2^50 counters, histograms or buckets must be rejected
  // before anything is sized from it: an obs frame arrives from a remote
  // worker and is untrusted.
  const std::uint64_t huge = std::uint64_t{1} << 50;
  wire::Writer counters;
  counters.u64(huge);
  EXPECT_THROW(static_cast<void>(wire::parse_snapshot(counters.data())),
               wire::ProtocolError);
  wire::Writer histograms;
  histograms.u64(0);
  histograms.u64(huge);
  EXPECT_THROW(static_cast<void>(wire::parse_snapshot(histograms.data())),
               wire::ProtocolError);
  EXPECT_THROW(
      static_cast<void>(wire::parse_snapshot(histogram_header(huge).data())),
      wire::ProtocolError);
}

TEST(ShardProtocol, ObsSnapshotCapsBucketsAtTheHistogramWidth) {
  // kBuckets + 1 buckets, every byte present: still more than any
  // obs::Histogram records, so the frame is malformed.
  wire::Writer wide = histogram_header(obs::Histogram::kBuckets + 1);
  for (std::size_t b = 0; b <= obs::Histogram::kBuckets; ++b) wide.u64(0);
  EXPECT_THROW(static_cast<void>(wire::parse_snapshot(wide.data())),
               wire::ProtocolError);
  wire::Writer full = histogram_header(obs::Histogram::kBuckets);
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) full.u64(0);
  EXPECT_EQ(wire::parse_snapshot(full.data()).histograms.size(), 1U);
}

TEST(ShardProtocol, FrameParserReassemblesAcrossEveryChunkBoundary) {
  // A multi-frame stream — result, empty-payload obs, done — fed at every
  // fixed chunk size from 1 byte up to the whole stream: the parser must
  // yield identical frames no matter how read() slices the bytes.
  std::vector<std::uint8_t> stream;
  wire::Writer first;
  first.str("first payload");
  wire::append_frame(stream, wire::FrameType::result, first.data());
  wire::append_frame(stream, wire::FrameType::obs,
                     std::vector<std::uint8_t>{});
  wire::append_frame(stream, wire::FrameType::done, wire::serialize_done(7));

  const auto collect = [&](std::size_t chunk) {
    wire::FrameParser parser;
    std::vector<wire::Frame> frames;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      parser.feed(std::span<const std::uint8_t>(stream.data() + off, n));
      while (auto frame = parser.next()) frames.push_back(std::move(*frame));
    }
    EXPECT_TRUE(parser.idle());
    return frames;
  };
  const auto reference = collect(stream.size());
  ASSERT_EQ(reference.size(), 3u);
  for (std::size_t chunk = 1; chunk < stream.size(); ++chunk) {
    const auto frames = collect(chunk);
    ASSERT_EQ(frames.size(), reference.size()) << "chunk size " << chunk;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, reference[i].type) << "chunk " << chunk;
      EXPECT_EQ(frames[i].payload, reference[i].payload) << "chunk " << chunk;
    }
  }
}

TEST(ShardProtocol, FrameParserSurvivesRandomizedSplits) {
  // Eight frames with payload sizes straddling the 16-byte header, fed in
  // randomly-sized segments (fixed-seed xorshift, so failures replay).
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> sizes{0, 1, 15, 16, 17, 64, 255, 300};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    wire::append_frame(
        stream, wire::FrameType::result,
        std::vector<std::uint8_t>(sizes[i],
                                  static_cast<std::uint8_t>(i + 1)));
  }
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next_random = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 50; ++round) {
    wire::FrameParser parser;
    std::size_t frames = 0;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + next_random() % 37, stream.size() - off);
      parser.feed(std::span<const std::uint8_t>(stream.data() + off, n));
      while (auto frame = parser.next()) {
        ASSERT_LT(frames, sizes.size());
        EXPECT_EQ(frame->payload.size(), sizes[frames]);
        ++frames;
      }
      off += n;
    }
    EXPECT_EQ(frames, sizes.size()) << "round " << round;
    EXPECT_TRUE(parser.idle());
  }
}

TEST(ShardProtocol, ShardRangePartitionsExactly) {
  // Contiguous, covering, balanced to within one unit, and equal to the
  // floor formula — for sizes around every divisibility edge.
  for (const std::uint64_t items :
       {0ull, 1ull, 5ull, 256ull, 1000ull, 4097ull}) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 7u, 64u, 256u}) {
      std::uint64_t covered = 0;
      std::uint64_t previous_end = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const wire::ShardRange range = wire::shard_range(items, s, shards);
        EXPECT_EQ(range.begin, previous_end);
        EXPECT_LE(range.size(), items / shards + 1);
        EXPECT_EQ(range.begin, s * items / shards);  // small cases: exact
        covered += range.size();
        previous_end = range.end;
      }
      EXPECT_EQ(covered, items);
      EXPECT_EQ(previous_end, items);
    }
  }
}

}  // namespace
}  // namespace hmdiv
