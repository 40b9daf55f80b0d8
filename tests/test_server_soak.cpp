// The tentpole soak for the partitioning service: 55 interleaved client
// sessions against a live server with injected client disconnects, raw
// torn-frame attackers, a slow-loris writer, and one mid-soak
// SIGTERM-drain/restart cycle. Contract under test:
//
//  * every completed session's route is byte-identical to a direct
//    sequential run of the same config;
//  * no crash, no wedge — every thread joins;
//  * session bookkeeping reconciles on both server generations
//    (opened + restored == completed + reaped + drained + live).
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "partition/driver.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/session.hpp"
#include "util/net.hpp"
#include "util/shutdown.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

struct SoakWorkload {
  Graph graph;
  WireSessionConfig config;
  std::vector<PartitionId> expected;
};

class ServerSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_test_dir();
    reset_shutdown_flag();
  }
  void TearDown() override {
    reset_shutdown_flag();
    std::filesystem::remove_all(dir_);
  }

  ServerOptions soak_options() const {
    ServerOptions options;
    options.endpoint.kind = Endpoint::Kind::kUnix;
    options.endpoint.path = (dir_ / "s.sock").string();
    options.admission.max_sessions = 64;
    // Tight timeouts: quarantined/abandoned sessions are collected during
    // the soak, and the slow-loris connection is cut quickly.
    options.idle_timeout_seconds = 1.0;
    options.read_timeout_seconds = 0.5;
    options.io_timeout_seconds = 2.0;
    options.reaper_interval_seconds = 0.1;
    options.drain_dir = (dir_ / "drain").string();
    options.retry_after_ms = 50;
    options.watch_shutdown_flag = true;
    return options;
  }

  std::filesystem::path dir_;
};

/// Eight distinct workloads cycled across the client fleet; mixed algos and
/// sizes so sessions finish at very different speeds and the SIGTERM lands
/// with some complete, some mid-stream, some not yet started.
std::vector<SoakWorkload> build_workloads() {
  const char* algos[] = {"spnl", "ldg", "spn", "fennel",
                         "spnl", "hash", "ldg", "spnl"};
  std::vector<SoakWorkload> workloads;
  for (int i = 0; i < 8; ++i) {
    SoakWorkload w;
    // 2k..16k vertices: the big ones take hundreds of record batches.
    const VertexId n = 2000 * (1 + i);
    w.graph = generate_webcrawl({.num_vertices = n,
                                 .avg_out_degree = 5.0,
                                 .locality = 0.8,
                                 .locality_scale = 20.0,
                                 .seed = 100 + i});
    w.config.algo = algos[i];
    w.config.num_vertices = w.graph.num_vertices();
    w.config.num_edges = w.graph.num_edges();
    w.config.num_partitions = 2 + (i % 4);
    InMemoryStream stream(w.graph);
    auto partitioner = make_session_partitioner(w.config);
    w.expected = run_streaming(stream, *partitioner).route;
    workloads.push_back(std::move(w));
  }
  return workloads;
}

/// Wraps a stream with a per-record delay so the session is still mid-flight
/// when the SIGTERM lands — without it the whole wave finishes in tens of
/// milliseconds and the drain has nothing to checkpoint.
class ThrottledStream final : public AdjacencyStream {
 public:
  ThrottledStream(const Graph& graph, std::chrono::microseconds every_batch)
      : inner_(graph), delay_(every_batch) {}

  std::optional<VertexRecord> next() override {
    if (++count_ % 64 == 0) std::this_thread::sleep_for(delay_);
    return inner_.next();
  }
  void reset() override {
    inner_.reset();
    count_ = 0;
  }
  VertexId num_vertices() const override { return inner_.num_vertices(); }
  EdgeId num_edges() const override { return inner_.num_edges(); }

 private:
  InMemoryStream inner_;
  std::chrono::microseconds delay_;
  std::uint64_t count_ = 0;
};

/// One client session driven to completion through every failure the soak
/// throws at it. Returns true iff the route came back byte-identical.
bool run_client(const Endpoint& endpoint, const SoakWorkload& workload,
                int index, std::atomic<int>* mismatches) {
  ClientOptions options;
  options.endpoint = endpoint;
  options.deadline_seconds = 120.0;
  options.max_attempts = 60;  // survives the whole drain/restart gap
  options.backoff_base_ms = 20;
  options.backoff_max_ms = 500;
  options.jitter_seed = static_cast<std::uint64_t>(index) * 977 + 13;
  options.batch_records = 64;  // many round trips -> SIGTERM lands mid-stream
  if (index % 3 == 0) {
    // Every third client tears its own connection once mid-stream and
    // exercises resume-by-token.
    options.inject_disconnect_after_records = 50 + (index * 37) % 400;
  }
  try {
    SpnlClient client(options);
    // Odd-indexed clients stream slowly (several hundred ms end to end) so a
    // SIGTERM ~250ms in catches them mid-session; even-indexed ones race
    // through and finish before it.
    std::unique_ptr<AdjacencyStream> stream;
    if (index % 2 == 1) {
      stream = std::make_unique<ThrottledStream>(
          workload.graph, std::chrono::microseconds(3000));
    } else {
      stream = std::make_unique<InMemoryStream>(workload.graph);
    }
    const ClientRunResult result = client.partition(*stream, workload.config);
    if (result.route != workload.expected) {
      mismatches->fetch_add(1);
      ADD_FAILURE() << "client " << index << " route mismatch";
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    mismatches->fetch_add(1);
    ADD_FAILURE() << "client " << index << " failed: " << e.what();
    return false;
  }
}

/// Raw attacker: completes the handshake, opens a real session, then writes
/// garbage bytes. The server must quarantine that session only.
void run_torn_frame_attacker(const Endpoint& endpoint) {
  try {
    Socket sock = connect_endpoint(endpoint, 2000);
    StateWriter hello;
    hello.put_u32(kProtocolVersion);
    write_frame(sock, MsgType::kHello, hello, 2000);
    if (!read_frame(sock, 2000)) return;
    WireSessionConfig config;
    config.algo = "hash";
    config.num_vertices = 64;
    config.num_edges = 64;
    config.num_partitions = 2;
    StateWriter open;
    config.save(open);
    write_frame(sock, MsgType::kOpen, open, 2000);
    auto ack = read_frame(sock, 2000);
    if (!ack || ack->type != MsgType::kOpenAck) return;  // Busy under load
    const char junk[32] = {'t', 'o', 'r', 'n'};
    sock.write_all(junk, sizeof(junk), 2000);
    read_frame(sock, 2000);  // kError (or the server already hung up)
  } catch (...) {
    // Attacker failures are fine — the assertion is that the SERVER's other
    // sessions and counters are unaffected, checked by the main thread.
  }
}

/// Slow-loris: dribbles a frame header slower than the read timeout allows.
/// The server must cut the connection instead of parking a handler forever.
void run_slow_loris(const Endpoint& endpoint) {
  try {
    Socket sock = connect_endpoint(endpoint, 2000);
    const unsigned char header[8] = {0x50, 0x53, 0x01, 0x00, 64, 0, 0, 0};
    for (unsigned char byte : header) {
      sock.write_all(&byte, 1, 2000);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    // Never send the payload; the server's read timeout fires first.
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
  } catch (...) {
    // Expected: the server resets the connection mid-dribble.
  }
}

TEST_F(ServerSoakTest, InterleavedSessionsSurviveFaultsAndRestart) {
  const std::vector<SoakWorkload> workloads = build_workloads();
  const ServerOptions options = soak_options();

  // --- Generation 1: accepts the first client wave, then SIGTERM-drains.
  arm_shutdown_flag();
  auto server1 = std::make_unique<SpnlServer>(soak_options());
  server1->start();
  const Endpoint endpoint = server1->endpoint();

  std::atomic<int> mismatches{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  constexpr int kWave1 = 30;
  constexpr int kWave2 = 25;
  for (int i = 0; i < kWave1; ++i) {
    clients.emplace_back([&, i] {
      if (run_client(endpoint, workloads[i % workloads.size()], i, &mismatches)) {
        completed.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> attackers;
  for (int i = 0; i < 3; ++i) {
    attackers.emplace_back([&] { run_torn_frame_attacker(endpoint); });
  }
  attackers.emplace_back([&] { run_slow_loris(endpoint); });

  // Let the fleet get airborne, then deliver the real signal. The accept
  // loop turns the flag into a drain; in-flight clients get kDraining or a
  // dead socket and retry with backoff until generation 2 is listening.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_EQ(std::raise(SIGTERM), 0);
  server1->wait();
  const ServerStats stats1 = server1->stats();
  EXPECT_TRUE(stats1.draining);
  EXPECT_TRUE(stats1.reconciles())
      << "gen1: opened=" << stats1.opened << " restored=" << stats1.restored
      << " completed=" << stats1.completed << " reaped=" << stats1.reaped
      << " drained=" << stats1.drained << " live=" << stats1.live;
  server1.reset();  // unlinks the socket path before generation 2 binds it

  // --- Generation 2: same drain_dir restores checkpointed sessions; the
  // same socket path lets stranded clients reconnect transparently.
  reset_shutdown_flag();
  auto server2 = std::make_unique<SpnlServer>(options);
  server2->start();

  for (int i = 0; i < kWave2; ++i) {
    const int index = kWave1 + i;
    clients.emplace_back([&, index] {
      if (run_client(endpoint, workloads[index % workloads.size()], index,
                     &mismatches)) {
        completed.fetch_add(1);
      }
    });
  }

  for (std::thread& t : clients) t.join();
  for (std::thread& t : attackers) t.join();

  // Every client session completed with a byte-identical route.
  EXPECT_EQ(completed.load(), kWave1 + kWave2);
  EXPECT_EQ(mismatches.load(), 0);

  // Wind down generation 2 through the drain path too: every remaining
  // session (e.g. quarantined attackers not yet reaped) leaves the registry
  // and the books must still balance.
  server2->request_drain();
  server2->wait();
  const ServerStats stats2 = server2->stats();
  EXPECT_TRUE(stats2.reconciles())
      << "gen2: opened=" << stats2.opened << " restored=" << stats2.restored
      << " completed=" << stats2.completed << " reaped=" << stats2.reaped
      << " drained=" << stats2.drained << " live=" << stats2.live;

  // Cross-generation accounting: at least the 55 client sessions completed
  // (attacker sessions never complete), every session restored in gen2 was
  // checkpointed by gen1's drain, and nothing is left alive anywhere.
  EXPECT_GE(stats1.completed + stats2.completed,
            static_cast<std::uint64_t>(kWave1 + kWave2));
  // The drain actually caught live sessions mid-flight (the throttled
  // clients guarantee some), and generation 2 restored every one of them.
  EXPECT_GE(stats1.sessions_checkpointed_on_drain, 1u);
  EXPECT_EQ(stats2.sessions_restored_from_drain,
            stats1.sessions_checkpointed_on_drain);
  EXPECT_EQ(stats2.live, 0u);
  EXPECT_GE(stats1.opened + stats2.opened,
            static_cast<std::uint64_t>(kWave1 + kWave2));

  // The soak exercised what it claims to: fault injection actually fired.
  EXPECT_GE(stats1.connections_accepted + stats2.connections_accepted,
            static_cast<std::uint64_t>(kWave1 + kWave2));
  EXPECT_GE(stats1.quarantined + stats2.quarantined, 1u);
  EXPECT_GE(stats1.midstream_disconnects + stats2.midstream_disconnects, 1u);

  // Coverage summary (shows in ctest logs which paths the run actually hit).
  std::printf(
      "soak: gen1 opened=%llu completed=%llu checkpointed=%llu "
      "quarantined=%llu midstream=%llu busy=%llu | gen2 restored=%llu "
      "completed=%llu reaped=%llu drained=%llu\n",
      static_cast<unsigned long long>(stats1.opened),
      static_cast<unsigned long long>(stats1.completed),
      static_cast<unsigned long long>(stats1.sessions_checkpointed_on_drain),
      static_cast<unsigned long long>(stats1.quarantined),
      static_cast<unsigned long long>(stats1.midstream_disconnects),
      static_cast<unsigned long long>(stats1.rejected_busy),
      static_cast<unsigned long long>(stats2.sessions_restored_from_drain),
      static_cast<unsigned long long>(stats2.completed),
      static_cast<unsigned long long>(stats2.reaped),
      static_cast<unsigned long long>(stats2.drained));
}

}  // namespace
}  // namespace spnl
