// Kill-9 crash-consistency harness: forks real children that die by SIGKILL
// (or a torn-write _exit) at deterministic, seeded syscall boundaries inside
// checkpoint writes, checkpoint drains, and sadj conversions — then verifies
// from the parent that every surviving artifact is either the complete old
// file, a complete new file, or absent. Never a torn artifact accepted as
// valid: the checkpoint CRC and the sadj reader's eager validation are the
// arbiters.
//
// Its own binary: children inherit the gtest process image and die by
// SIGKILL mid-syscall; that must never share a process with other suites.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "graph/adjacency_stream.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stream_binary.hpp"
#include "util/fault_fs.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

class CrashConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faultfs::disarm();
    dir_ = unique_test_dir();
  }
  void TearDown() override {
    faultfs::disarm();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  /// Forks; the child runs `work` and _exit(0)s if it survives it. Returns
  /// the child's wait status. The child's fault plan typically kills it
  /// first (SIGKILL or the torn-write exit), which is the point.
  static int run_child(const std::function<void()>& work) {
    ::fflush(nullptr);  // don't double-flush inherited stdio buffers
    const pid_t pid = ::fork();
    if (pid == 0) {
      try {
        work();
      } catch (...) {
        ::_exit(3);  // child died by exception, not by kill: also fine
      }
      ::_exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
  }

  static bool died_by_kill_or_torn_exit(int status) {
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) return true;
    if (WIFEXITED(status) && WEXITSTATUS(status) == faultfs::kTornExitCode) {
      return true;
    }
    return false;
  }

  static StateWriter payload(std::uint64_t tag) {
    StateWriter w;
    w.put_u64(tag);
    std::vector<std::uint64_t> body(4096, tag);
    w.put_vec(body);
    return w;
  }

  /// Reads the checkpoint at `p` and returns its tag; throws on any
  /// corruption (the verifier the harness trusts).
  static std::uint64_t read_tag(const std::string& p) {
    StateReader r = read_checkpoint_file(p);
    const std::uint64_t tag = r.get_u64();
    const auto body = r.get_vec<std::uint64_t>();
    for (std::uint64_t v : body) {
      if (v != tag) throw CheckpointError("payload does not match its tag");
    }
    return tag;
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Checkpoint kill matrix: SIGKILL at the write, the fsync, the rename, plus
// a torn write followed by death. Whatever the site, the published path must
// hold the complete old snapshot or the complete new one.

TEST_F(CrashConsistencyTest, CheckpointKillMatrixNeverPublishesTornSnapshot) {
  const char* kill_plans[] = {
      "kill:write@1",
      "kill:fsync@1",
      "kill:rename@1",
      "torn:1",
      "torn:1@7",  // tear after 7 bytes — not even a whole header field
  };
  for (const char* plan : kill_plans) {
    const std::string p = path("ckpt.bin");
    std::filesystem::remove(p);
    std::filesystem::remove(p + ".tmp");
    write_checkpoint_file(p, payload(1));

    const int status = run_child([&] {
      faultfs::configure(plan);
      write_checkpoint_file(p, payload(2));
    });
    ASSERT_TRUE(died_by_kill_or_torn_exit(status))
        << "plan " << plan << ": child survived, status " << status;

    // The artifact must verify; at these sites (all pre-rename) it must
    // still be the OLD snapshot. A stale .tmp is allowed — it is not the
    // published path — but the published path must be whole.
    EXPECT_EQ(read_tag(p), 1u) << "plan " << plan;
  }
}

TEST_F(CrashConsistencyTest, SeededKillSitesAcrossADrainLoop) {
  // "Mid-drain": a child checkpointing a sequence of states 1..12 to the
  // same path, killed at a seeded random write. The survivor must be one
  // complete member of the sequence — which one depends on the seed, but
  // torn hybrids must be impossible.
  const std::string p = path("drain.bin");
  write_checkpoint_file(p, payload(1));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string plan = "seed:" + std::to_string(seed) + ",kill:write@r12";
    const int status = run_child([&] {
      faultfs::configure(plan);
      for (std::uint64_t tag = 2; tag <= 13; ++tag) {
        write_checkpoint_file(p, payload(tag));
      }
    });
    ASSERT_TRUE(died_by_kill_or_torn_exit(status)) << "seed " << seed;
    const std::uint64_t tag = read_tag(p);  // throws on corruption
    EXPECT_GE(tag, 1u);
    EXPECT_LE(tag, 13u);
  }
}

TEST_F(CrashConsistencyTest, ResumedCheckpointIsByteIdenticalAfterKill) {
  // The acceptance bar for resume: the snapshot that survives a kill must be
  // byte-identical to one written with no fault at all — not merely CRC-valid.
  const std::string clean = path("clean.bin");
  const std::string killed = path("killed.bin");
  write_checkpoint_file(clean, payload(5));
  write_checkpoint_file(killed, payload(5));

  const int status = run_child([&] {
    faultfs::configure("kill:fsync@1");
    write_checkpoint_file(killed, payload(6));  // dies before publish
  });
  ASSERT_TRUE(died_by_kill_or_torn_exit(status));

  std::ifstream a(clean, std::ios::binary), b(killed, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

// ---------------------------------------------------------------------------
// sadj conversion killed mid-body: the published file is always a complete,
// fully-decodable conversion of the old input or the new one.

TEST_F(CrashConsistencyTest, SadjConversionKillMatrix) {
  const Graph old_graph = generate_webcrawl(
      {.num_vertices = 2000, .avg_out_degree = 5.0, .seed = 21});
  const Graph new_graph = generate_webcrawl(
      {.num_vertices = 3000, .avg_out_degree = 5.0, .seed = 22});
  const std::string p = path("graph.sadj");
  {
    InMemoryStream s(old_graph);
    write_sadj(s, p);
  }

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string plan =
        "seed:" + std::to_string(seed) + ",kill:write@r2,torn:r3";
    const int status = run_child([&] {
      faultfs::configure(plan);
      InMemoryStream s(new_graph);
      write_sadj(s, p);
    });
    ASSERT_TRUE(died_by_kill_or_torn_exit(status)) << "seed " << seed;

    // Eager validation + full decode is the verifier: every record of the
    // surviving file must stream, and the totals must match exactly one of
    // the two inputs.
    BinaryAdjacencyStream reader(p);
    const Graph survivor = materialize(reader);
    const bool is_old = survivor.num_vertices() == old_graph.num_vertices() &&
                        survivor.num_edges() == old_graph.num_edges();
    const bool is_new = survivor.num_vertices() == new_graph.num_vertices() &&
                        survivor.num_edges() == new_graph.num_edges();
    EXPECT_TRUE(is_old || is_new) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Parent-side real SIGKILL: no plan, no cooperation — the parent kills the
// child at arbitrary wall-clock points in a checkpoint loop. Slower and
// nondeterministic, so few iterations; the seeded matrix above is the
// reproducible workhorse, this is the no-cheating cross-check.

TEST_F(CrashConsistencyTest, AsynchronousSigkillDuringCheckpointLoop) {
  const std::string p = path("async.bin");
  write_checkpoint_file(p, payload(1));
  for (int round = 0; round < 4; ++round) {
    ::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (std::uint64_t tag = 2;; tag = (tag % 1000) + 2) {
        write_checkpoint_file(p, payload(tag));
      }
      ::_exit(0);  // unreachable
    }
    // Let the child get mid-flight, then kill it cold.
    ::usleep(10000 + 7000 * round);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    EXPECT_NO_THROW(read_tag(p)) << "round " << round;
  }
}

}  // namespace
}  // namespace spnl
