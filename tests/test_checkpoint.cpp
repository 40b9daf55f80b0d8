// Checkpoint/resume: container integrity (magic/version/CRC/truncation) and
// the core contract — a run killed at an arbitrary placement and resumed
// from its latest snapshot produces a byte-identical route to an
// uninterrupted run, for the sequential greedy partitioners and the RCT
// parallel driver.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/spn.hpp"
#include "core/spnl.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "partition/driver.hpp"
#include "partition/ldg.hpp"
#include "partition/metrics.hpp"
#include "prepass/two_phase.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_test_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

/// Yields only the first `limit` records of the wrapped stream — simulates a
/// process killed mid-stream (everything after the kill point is never seen).
class TruncatedStream final : public AdjacencyStream {
 public:
  TruncatedStream(AdjacencyStream& inner, std::uint64_t limit)
      : inner_(&inner), limit_(limit) {}

  std::optional<VertexRecord> next() override {
    if (emitted_ >= limit_) return std::nullopt;
    ++emitted_;
    return inner_->next();
  }
  void reset() override {
    inner_->reset();
    emitted_ = 0;
  }
  VertexId num_vertices() const override { return inner_->num_vertices(); }
  EdgeId num_edges() const override { return inner_->num_edges(); }

 private:
  AdjacencyStream* inner_;
  std::uint64_t limit_;
  std::uint64_t emitted_ = 0;
};

Graph test_graph(VertexId n = 3000) {
  return generate_webcrawl({.num_vertices = n, .avg_out_degree = 6.0,
                            .locality = 0.85, .locality_scale = 25.0,
                            .seed = 11});
}

// ---------------------------------------------------------------------------
// Payload stream primitives.

TEST(CheckpointState, WriterReaderRoundTrip) {
  StateWriter out;
  out.put_u32(42);
  out.put_u64(0xdeadbeefcafeULL);
  out.put_f64(3.5);
  out.put_string("spnl");
  out.put_vec(std::vector<std::uint32_t>{1, 2, 3});
  out.put_vec(std::vector<double>{});

  StateReader in(out.bytes());
  EXPECT_EQ(in.get_u32(), 42u);
  EXPECT_EQ(in.get_u64(), 0xdeadbeefcafeULL);
  EXPECT_DOUBLE_EQ(in.get_f64(), 3.5);
  EXPECT_EQ(in.get_string(), "spnl");
  EXPECT_EQ(in.get_vec<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_TRUE(in.get_vec<double>().empty());
  EXPECT_TRUE(in.exhausted());
}

TEST(CheckpointState, ReaderUnderflowThrows) {
  StateWriter out;
  out.put_u32(7);
  StateReader in(out.bytes());
  in.get_u32();
  EXPECT_THROW(in.get_u64(), CheckpointError);
}

TEST(CheckpointState, VectorLengthBeyondPayloadThrows) {
  StateWriter out;
  out.put_u64(std::uint64_t{1} << 40);  // claims 2^40 elements, payload has none
  StateReader in(out.bytes());
  EXPECT_THROW(in.get_vec<std::uint32_t>(), CheckpointError);
}

TEST(CheckpointState, ExpectGuardsNameTheMismatch) {
  StateWriter out;
  out.put_u32(8);
  out.put_string("spn");
  StateReader in(out.bytes());
  try {
    in.expect_u32(16, "partition count");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("partition count"), std::string::npos);
  }
}

TEST(CheckpointState, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
}

// ---------------------------------------------------------------------------
// Container integrity.

TEST_F(CheckpointTest, ContainerRoundTrip) {
  StateWriter out;
  out.put_string("hello");
  out.put_u64(99);
  write_checkpoint_file(path("ok.ckpt"), out);
  StateReader in = read_checkpoint_file(path("ok.ckpt"));
  EXPECT_EQ(in.get_string(), "hello");
  EXPECT_EQ(in.get_u64(), 99u);
}

TEST_F(CheckpointTest, MissingFileThrows) {
  EXPECT_THROW(read_checkpoint_file(path("nope.ckpt")), CheckpointError);
}

TEST_F(CheckpointTest, CorruptedPayloadFailsCrc) {
  StateWriter out;
  out.put_vec(std::vector<std::uint64_t>(64, 7));
  write_checkpoint_file(path("c.ckpt"), out);
  // Flip one payload byte (past the 24-byte header).
  std::fstream f(path("c.ckpt"), std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);
  char b = 0;
  f.seekg(40);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0xff);
  f.seekp(40);
  f.write(&b, 1);
  f.close();
  EXPECT_THROW(read_checkpoint_file(path("c.ckpt")), CheckpointError);
}

TEST_F(CheckpointTest, TruncatedFileThrows) {
  StateWriter out;
  out.put_vec(std::vector<std::uint64_t>(64, 7));
  write_checkpoint_file(path("t.ckpt"), out);
  const auto size = std::filesystem::file_size(path("t.ckpt"));
  std::filesystem::resize_file(path("t.ckpt"), size / 2);
  EXPECT_THROW(read_checkpoint_file(path("t.ckpt")), CheckpointError);
}

TEST_F(CheckpointTest, TruncatedHeaderThrows) {
  // A crash can leave a file shorter than even the 24-byte container header
  // at a NON-atomic path (e.g. a .tmp manually promoted, or external
  // corruption). Every prefix length must be rejected as a typed error, not
  // parsed as garbage.
  StateWriter out;
  out.put_vec(std::vector<std::uint64_t>(8, 3));
  write_checkpoint_file(path("h.ckpt"), out);
  for (std::uintmax_t keep : {0u, 1u, 7u, 8u, 12u, 20u, 23u}) {
    std::filesystem::copy_file(path("h.ckpt"), path("h_cut.ckpt"),
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(path("h_cut.ckpt"), keep);
    EXPECT_THROW(read_checkpoint_file(path("h_cut.ckpt")), CheckpointError)
        << "header prefix of " << keep << " bytes was accepted";
  }
}

TEST_F(CheckpointTest, StaleTmpNeverShadowsPublishedSnapshot) {
  // Crash-atomicity contract of write_checkpoint_file: bytes land in
  // <path>.tmp and are renamed over <path> only when complete. A crash
  // mid-write leaves a torn .tmp behind — readers of the published path must
  // be unaffected, and the next successful write must replace the leftover.
  StateWriter good;
  good.put_string("published");
  good.put_u64(42);
  write_checkpoint_file(path("s.ckpt"), good);

  // Simulate the mid-write crash: a torn, garbage .tmp next to the snapshot.
  {
    std::ofstream torn(path("s.ckpt.tmp"), std::ios::binary);
    torn.write("SPNL-partial-garbage", 20);
  }
  StateReader in = read_checkpoint_file(path("s.ckpt"));
  EXPECT_EQ(in.get_string(), "published");
  EXPECT_EQ(in.get_u64(), 42u);

  // The next snapshot overwrites the stale .tmp and publishes atomically.
  StateWriter next;
  next.put_string("second");
  next.put_u64(43);
  write_checkpoint_file(path("s.ckpt"), next);
  EXPECT_FALSE(std::filesystem::exists(path("s.ckpt.tmp")));
  StateReader again = read_checkpoint_file(path("s.ckpt"));
  EXPECT_EQ(again.get_string(), "second");
  EXPECT_EQ(again.get_u64(), 43u);
}

TEST_F(CheckpointTest, UnwritableCheckpointPathThrowsTyped) {
  StateWriter out;
  out.put_u32(1);
  EXPECT_THROW(
      write_checkpoint_file(path("no/such/dir/x.ckpt"), out),
      CheckpointError);
}

TEST_F(CheckpointTest, BadMagicThrows) {
  StateWriter out;
  out.put_u32(1);
  write_checkpoint_file(path("m.ckpt"), out);
  std::fstream f(path("m.ckpt"), std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(0);
  f.write("XXXXXXXX", 8);
  f.close();
  EXPECT_THROW(read_checkpoint_file(path("m.ckpt")), CheckpointError);
}

TEST_F(CheckpointTest, VersionSkewThrows) {
  StateWriter out;
  out.put_u32(1);
  write_checkpoint_file(path("v.ckpt"), out);
  std::fstream f(path("v.ckpt"), std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t future_version = 999;
  f.seekp(8);  // version field follows the u64 magic
  f.write(reinterpret_cast<const char*>(&future_version), sizeof(future_version));
  f.close();
  EXPECT_THROW(read_checkpoint_file(path("v.ckpt")), CheckpointError);
}

TEST_F(CheckpointTest, VersionOneIsRefusedByName) {
  // Version 1 stored Γ counters in 32 bits; reading its payload as today's
  // 16-bit rows would restore garbage, so the container must be refused.
  StateWriter out;
  out.put_u32(1);
  write_checkpoint_file(path("v1.ckpt"), out);
  std::fstream f(path("v1.ckpt"), std::ios::in | std::ios::out | std::ios::binary);
  const std::uint32_t old_version = 1;
  f.seekp(8);  // version field follows the u64 magic
  f.write(reinterpret_cast<const char*>(&old_version), sizeof(old_version));
  f.close();
  try {
    read_checkpoint_file(path("v1.ckpt"));
    FAIL() << "a version-1 checkpoint was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointerPolicy, CadenceAndEnablement) {
  Checkpointer off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.due(100));
  Checkpointer every50("x.ckpt", 50);
  EXPECT_TRUE(every50.enabled());
  EXPECT_FALSE(every50.due(0));
  EXPECT_FALSE(every50.due(49));
  EXPECT_TRUE(every50.due(50));
  EXPECT_TRUE(every50.due(250));
  EXPECT_FALSE(every50.due(251));
}

// ---------------------------------------------------------------------------
// Kill-and-resume determinism, sequential drivers.

template <typename MakePartitioner>
void expect_kill_resume_identical(const Graph& g, const std::string& ckpt,
                                  MakePartitioner make) {
  const PartitionId k = 8;
  // Reference: uninterrupted run.
  std::vector<PartitionId> reference;
  {
    auto p = make(g, k);
    InMemoryStream stream(g);
    reference = run_streaming(stream, *p).route;
  }
  validate_route(reference, k, g.num_vertices());

  const std::uint64_t every = 256;
  for (const std::uint64_t kill_at : {std::uint64_t{300}, std::uint64_t{1024},
                                      std::uint64_t{2905}}) {
    // Phase 1: run until the "crash", snapshotting every 256 placements.
    {
      auto p = make(g, k);
      InMemoryStream inner(g);
      TruncatedStream stream(inner, kill_at);
      const RunResult partial =
          run_streaming(stream, *p, {.path = ckpt, .every = every});
      EXPECT_EQ(partial.checkpoints_written, kill_at / every);
    }
    // Phase 2: a fresh process resumes from the latest snapshot.
    auto p = make(g, k);
    InMemoryStream stream(g);
    const RunResult resumed = run_streaming(stream, *p, {.resume_from = ckpt});
    EXPECT_EQ(resumed.resumed_at, (kill_at / every) * every);
    EXPECT_EQ(resumed.route, reference)
        << "route diverged after resume at kill point " << kill_at;
  }
}

TEST_F(CheckpointTest, KillAndResumeSpnIsByteIdentical) {
  const Graph g = test_graph();
  expect_kill_resume_identical(g, path("spn.ckpt"), [](const Graph& gr, PartitionId k) {
    return std::make_unique<SpnPartitioner>(gr.num_vertices(), gr.num_edges(),
                                            PartitionConfig{.num_partitions = k},
                                            SpnOptions{});
  });
}

TEST_F(CheckpointTest, KillAndResumeSpnlIsByteIdentical) {
  const Graph g = test_graph();
  expect_kill_resume_identical(g, path("spnl.ckpt"), [](const Graph& gr, PartitionId k) {
    return std::make_unique<SpnlPartitioner>(gr.num_vertices(), gr.num_edges(),
                                             PartitionConfig{.num_partitions = k},
                                             SpnlOptions{});
  });
  // Under the linear decay every η moves with each placement, so a restore
  // must rebuild every cached η from the restored placed total.
  expect_kill_resume_identical(
      g, path("spnl_linear.ckpt"), [](const Graph& gr, PartitionId k) {
        return std::make_unique<SpnlPartitioner>(
            gr.num_vertices(), gr.num_edges(), PartitionConfig{.num_partitions = k},
            SpnlOptions{.eta_policy = EtaPolicy::kLinear});
      });
}

TEST_F(CheckpointTest, KillAndResumeSpnlWithPrepassHintsIsByteIdentical) {
  // The 2PS configuration: SPNL's logical term reads the prepass hint table
  // instead of the range table. A resumed process re-derives the same table
  // (the prepass is deterministic), so one table serves every phase here.
  const Graph g = test_graph();
  InMemoryStream prepass_stream(g);
  // K = 8, the K expect_kill_resume_identical partitions into.
  const PrepassResult prepass =
      cluster_prepass(prepass_stream, PartitionConfig{.num_partitions = 8});
  ASSERT_FALSE(prepass.degraded);
  ASSERT_EQ(prepass.hints.size(), g.num_vertices());
  expect_kill_resume_identical(
      g, path("spnl_2ps.ckpt"), [&](const Graph& gr, PartitionId k) {
        return std::make_unique<SpnlPartitioner>(
            gr.num_vertices(), gr.num_edges(), PartitionConfig{.num_partitions = k},
            SpnlOptions{.logical_hints = &prepass.hints});
      });
}

TEST_F(CheckpointTest, KillAndResumeLdgIsByteIdentical) {
  const Graph g = test_graph();
  expect_kill_resume_identical(g, path("ldg.ckpt"), [](const Graph& gr, PartitionId k) {
    return std::make_unique<LdgPartitioner>(gr.num_vertices(), gr.num_edges(),
                                            PartitionConfig{.num_partitions = k});
  });
}

TEST_F(CheckpointTest, KillAndResumeCoarseSlideIsByteIdentical) {
  // Coarse (shard-by-shard) sliding keeps the window base pinned mid-shard,
  // so a snapshot taken between shard jumps must restore both the stale base
  // and the untouched counters of the partially retired shard. Kills are
  // pinned to shard boundaries (n=3000, 6 shards -> W=500: 500, 1000) and
  // mid-shard (750, 1250) via checkpoint_every=250.
  const Graph g = test_graph();
  const PartitionId k = 8;
  const std::uint64_t every = 250;
  for (const bool use_spnl : {false, true}) {
    auto make = [&](const Graph& gr) -> std::unique_ptr<StreamingPartitioner> {
      if (use_spnl) {
        return std::make_unique<SpnlPartitioner>(
            gr.num_vertices(), gr.num_edges(),
            PartitionConfig{.num_partitions = k},
            SpnlOptions{.num_shards = 6, .slide = SlideMode::kCoarse});
      }
      return std::make_unique<SpnPartitioner>(
          gr.num_vertices(), gr.num_edges(), PartitionConfig{.num_partitions = k},
          SpnOptions{.num_shards = 6, .slide = SlideMode::kCoarse});
    };
    std::vector<PartitionId> reference;
    {
      auto p = make(g);
      InMemoryStream stream(g);
      reference = run_streaming(stream, *p).route;
    }
    validate_route(reference, k, g.num_vertices());
    for (const std::uint64_t kill_at :
         {std::uint64_t{500}, std::uint64_t{750}, std::uint64_t{1000},
          std::uint64_t{1250}}) {
      {
        auto p = make(g);
        InMemoryStream inner(g);
        TruncatedStream stream(inner, kill_at);
        run_streaming(stream, *p, {.path = path("coarse.ckpt"), .every = every});
      }
      auto p = make(g);
      InMemoryStream stream(g);
      const RunResult resumed = run_streaming(stream, *p, {.resume_from = path("coarse.ckpt")});
      EXPECT_EQ(resumed.resumed_at, kill_at);  // kill points align with cadence
      EXPECT_EQ(resumed.route, reference)
          << (use_spnl ? "SPNL" : "SPN") << " coarse-slide route diverged after "
          << "resume at kill point " << kill_at;
    }
  }
}

TEST_F(CheckpointTest, ResumeIntoWrongPartitionerThrows) {
  const Graph g = test_graph(500);
  const PartitionId k = 4;
  {
    SpnPartitioner p(g.num_vertices(), g.num_edges(),
                     PartitionConfig{.num_partitions = k}, SpnOptions{});
    InMemoryStream stream(g);
    run_streaming(stream, p, {.path = path("w.ckpt"), .every = 100});
  }
  LdgPartitioner wrong(g.num_vertices(), g.num_edges(),
                       PartitionConfig{.num_partitions = k});
  InMemoryStream stream(g);
  EXPECT_THROW(run_streaming(stream, wrong, {.resume_from = path("w.ckpt")}), CheckpointError);
}

TEST_F(CheckpointTest, ResumeWithShorterStreamThrows) {
  const Graph g = test_graph(500);
  const PartitionId k = 4;
  {
    SpnPartitioner p(g.num_vertices(), g.num_edges(),
                     PartitionConfig{.num_partitions = k}, SpnOptions{});
    InMemoryStream stream(g);
    run_streaming(stream, p, {.path = path("s.ckpt"), .every = 100});
  }
  SpnPartitioner p(g.num_vertices(), g.num_edges(),
                   PartitionConfig{.num_partitions = k}, SpnOptions{});
  InMemoryStream inner(g);
  TruncatedStream shorter(inner, 50);  // shorter than the snapshot cursor (500)
  EXPECT_THROW(run_streaming(shorter, p, {.resume_from = path("s.ckpt")}), CheckpointError);
}

TEST_F(CheckpointTest, CheckpointingRequiresSupport) {
  // A partitioner without save/restore support must be rejected up front,
  // not fail at the first snapshot.
  class Opaque final : public StreamingPartitioner {
   public:
    PartitionId place(VertexId v, std::span<const VertexId>) override {
      if (v >= route_.size()) route_.resize(v + 1, 0);
      return 0;
    }
    const std::vector<PartitionId>& route() const override { return route_; }
    std::size_t memory_footprint_bytes() const override { return 0; }
    std::string name() const override { return "opaque"; }

   private:
    std::vector<PartitionId> route_;
  };
  Opaque p;
  const Graph g = test_graph(100);
  InMemoryStream stream(g);
  EXPECT_THROW(run_streaming(stream, p, {.path = path("o.ckpt"), .every = 10}),
               CheckpointError);
}

// ---------------------------------------------------------------------------
// Kill-and-resume determinism, RCT parallel driver (1 worker thread ->
// deterministic schedule; the quiesce protocol guarantees snapshot
// consistency at any thread count).

TEST_F(CheckpointTest, KillAndResumeParallelDriverIsByteIdentical) {
  const Graph g = test_graph();
  const PartitionConfig config{.num_partitions = 8};
  ParallelOptions base;
  base.num_threads = 1;

  std::vector<PartitionId> reference;
  {
    InMemoryStream stream(g);
    reference = run_parallel(stream, config, base).route;
  }
  validate_route(reference, 8, g.num_vertices());

  const std::uint64_t every = 512;
  for (const std::uint64_t kill_at : {std::uint64_t{700}, std::uint64_t{1600},
                                      std::uint64_t{2700}}) {
    {
      ParallelOptions opts = base;
      opts.checkpoint_path = path("par.ckpt");
      opts.checkpoint_every = every;
      InMemoryStream inner(g);
      TruncatedStream stream(inner, kill_at);
      const auto partial = run_parallel(stream, config, opts);
      EXPECT_GE(partial.checkpoints_written, kill_at / every);
    }
    ParallelOptions opts = base;
    opts.resume_from = path("par.ckpt");
    InMemoryStream stream(g);
    const auto resumed = run_parallel(stream, config, opts);
    EXPECT_EQ(resumed.resumed_at, (kill_at / every) * every);
    EXPECT_EQ(resumed.route, reference)
        << "parallel route diverged after resume at kill point " << kill_at;
  }
}

TEST_F(CheckpointTest, KillAndResumeParallelWindowedGammaIsByteIdentical) {
  // A sliding Γ window (X = 4 shards) whose base has moved at every
  // snapshot, at a cadence (300) that the kill points do not align with:
  // the snapshot must carry the window base and its live rows, or the
  // resumed run starts from a different Γ estimate and diverges.
  const Graph g = test_graph();
  const PartitionConfig config{.num_partitions = 8};
  ParallelOptions base;
  base.num_threads = 1;
  base.spnl.num_shards = 4;

  std::vector<PartitionId> reference;
  {
    InMemoryStream stream(g);
    reference = run_parallel(stream, config, base).route;
  }
  validate_route(reference, 8, g.num_vertices());

  for (const std::uint64_t kill_at : {std::uint64_t{700}, std::uint64_t{1600},
                                      std::uint64_t{2700}}) {
    {
      ParallelOptions opts = base;
      opts.checkpoint_path = path("par-window.ckpt");
      opts.checkpoint_every = 300;
      InMemoryStream inner(g);
      TruncatedStream stream(inner, kill_at);
      const auto partial = run_parallel(stream, config, opts);
      EXPECT_GE(partial.checkpoints_written, kill_at / 300);
    }
    ParallelOptions opts = base;
    opts.resume_from = path("par-window.ckpt");
    InMemoryStream stream(g);
    const auto resumed = run_parallel(stream, config, opts);
    // Publish points step over the multiples of 300; the snapshot lands on
    // the first publish point past the last one.
    EXPECT_GE(resumed.resumed_at, (kill_at / 300) * 300);
    EXPECT_EQ(resumed.route, reference)
        << "windowed resume diverged at kill point " << kill_at;
  }
}

TEST_F(CheckpointTest, KillAndResumeParallelOddBatchStrideIsByteIdentical) {
  // The reader publishes records in batches of kParallelPublishStride, and
  // checkpoint_every=500 is not a multiple of it, so `produced` steps OVER
  // the exact multiples and the crossing-aware Checkpointer::due must fire
  // at the first publish point past each one. The snapshot cursor therefore
  // lands past 1500 on a stride boundary — and the resumed route must still
  // be byte-identical: with one worker the placement sequence is the stream
  // order whatever the publish points are.
  const Graph g = test_graph();
  const PartitionConfig config{.num_partitions = 8};
  const std::uint64_t every = 500;
  const std::uint64_t stride = kParallelPublishStride;
  ASSERT_NE(every % stride, 0u);
  ParallelOptions base;
  base.num_threads = 1;

  std::vector<PartitionId> reference;
  {
    InMemoryStream stream(g);
    reference = run_parallel(stream, config, base).route;
  }
  validate_route(reference, 8, g.num_vertices());

  {
    ParallelOptions opts = base;
    opts.checkpoint_path = path("par-odd.ckpt");
    opts.checkpoint_every = every;
    InMemoryStream inner(g);
    TruncatedStream stream(inner, 1600);
    const auto partial = run_parallel(stream, config, opts);
    EXPECT_EQ(partial.checkpoints_written, 3u);  // past 500, 1000, 1500
  }
  ParallelOptions opts = base;
  opts.resume_from = path("par-odd.ckpt");
  InMemoryStream stream(g);
  const auto resumed = run_parallel(stream, config, opts);
  // The first stride boundary past 1500.
  EXPECT_EQ(resumed.resumed_at, (3 * every + stride - 1) / stride * stride);
  EXPECT_GT(resumed.resumed_at, 3 * every);
  EXPECT_EQ(resumed.route, reference);
}

TEST_F(CheckpointTest, ParallelCheckpointUnderContentionStaysConsistent) {
  // With several workers the route is schedule-dependent, so byte equality
  // is out of scope — but every snapshot, parked RCT records included, must
  // restore into a valid state that completes the remaining stream into a
  // complete assignment.
  const Graph g = test_graph(4000);
  const PartitionConfig config{.num_partitions = 8};
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.use_rct = true;
  opts.checkpoint_path = path("mt.ckpt");
  opts.checkpoint_every = 777;
  {
    InMemoryStream inner(g);
    TruncatedStream stream(inner, 3000);
    const auto partial = run_parallel(stream, config, opts);
    ASSERT_GE(partial.checkpoints_written, 1u);
  }
  ParallelOptions resume;
  resume.num_threads = 4;
  resume.use_rct = true;
  resume.resume_from = path("mt.ckpt");
  InMemoryStream stream(g);
  const auto result = run_parallel(stream, config, resume);
  EXPECT_GT(result.resumed_at, 0u);
  validate_route(result.route, 8, g.num_vertices());
}

TEST_F(CheckpointTest, ParallelResumeWithTheRctSwitchedFailsTyped) {
  // The RCT is off by default, so a snapshot written with it on (an older
  // default) must not resume into a run without it: its parked records
  // would have nobody to release them.
  const Graph g = test_graph(2000);
  const PartitionConfig config{.num_partitions = 8};
  ParallelOptions opts;
  opts.num_threads = 2;
  opts.use_rct = true;
  opts.checkpoint_path = path("rct.ckpt");
  opts.checkpoint_every = 512;
  {
    InMemoryStream inner(g);
    TruncatedStream stream(inner, 1500);
    ASSERT_GE(run_parallel(stream, config, opts).checkpoints_written, 1u);
  }
  ParallelOptions resume;
  resume.num_threads = 2;
  resume.resume_from = path("rct.ckpt");
  InMemoryStream stream(g);
  try {
    run_parallel(stream, config, resume);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("use_rct"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace spnl
