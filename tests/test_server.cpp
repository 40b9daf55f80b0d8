// Partitioning service internals: endpoint parsing, the frame codec's
// hostile-input behavior, session ingest idempotence and quarantine, the
// registry's admission control and reconciliation counters, and drain
// save/restore round trips. The full concurrent soak (50+ interleaved
// clients, SIGTERM mid-run) lives in test_server_soak.cpp.
#include "server/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "partition/driver.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"
#include "server/session_registry.hpp"
#include "util/net.hpp"
#include "test_dir.hpp"

namespace spnl {
namespace {

// ---------------------------------------------------------------------------
// Endpoints.

TEST(Endpoint, ParsesUnixAndTcp) {
  const Endpoint u = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.describe(), "unix:/tmp/x.sock");

  const Endpoint t = Endpoint::parse("tcp:127.0.0.1:9000");
  EXPECT_EQ(t.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9000);
}

TEST(Endpoint, RejectsMalformedSpecs) {
  EXPECT_THROW(Endpoint::parse(""), NetError);
  EXPECT_THROW(Endpoint::parse("bogus:/x"), NetError);
  EXPECT_THROW(Endpoint::parse("unix:"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:notaport"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:99999"), NetError);
}

TEST(Endpoint, RejectsTrailingGarbageInPort) {
  // Regression: the port went through std::stoul, which parses a numeric
  // prefix and ignores the rest — "tcp:host:80abc" bound port 80. The whole
  // token must be digits now.
  EXPECT_THROW(Endpoint::parse("tcp:host:80abc"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp:host:8 0"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp:host:-80"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp:host:"), NetError);
  EXPECT_EQ(Endpoint::parse("tcp:host:80").port, 80);
}

// ---------------------------------------------------------------------------
// Unix listener: the socket path appears only once it listens.

std::vector<std::string> dir_entries(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

TEST(ListenSocket, UnixPathAppearsOnlyOnceListening) {
  const auto dir = unique_test_dir();
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = (dir / "l.sock").string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(ep.path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);

  int refused = 0;
  for (int round = 0; round < 300; ++round) {
    // Like a launcher polling for the path, but in a tight loop, so the first
    // attempt after the path exists lands right behind it. The listener is
    // only built once the connector is already being turned away.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    std::atomic<bool> polling{false};
    std::thread connector([&] {
      while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const int err = errno;
        polling.store(true);
        if (err == ECONNREFUSED) ++refused;
        ASSERT_TRUE(err == ENOENT || err == ECONNREFUSED) << std::strerror(err);
      }
    });
    while (!polling.load()) std::this_thread::yield();
    ListenSocket listener(ep);
    EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"l.sock"});
    connector.join();
    ::close(fd);
    listener.close();
  }
  EXPECT_EQ(refused, 0);
  EXPECT_TRUE(dir_entries(dir).empty());
  std::filesystem::remove_all(dir);
}

TEST(ListenSocket, FailedRenameLeavesNoTemporaryFile) {
  const auto dir = unique_test_dir();
  // A non-empty directory at the endpoint path: the socket binds and
  // listens under its temporary name, then cannot be renamed into place.
  std::filesystem::create_directories(dir / "l.sock" / "occupied");
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = (dir / "l.sock").string();
  EXPECT_THROW(ListenSocket{ep}, NetError);
  EXPECT_EQ(dir_entries(dir), std::vector<std::string>{"l.sock"});
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Frame codec over a real socketpair-style loopback listener.

class CodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kTcp;
    ep.host = "127.0.0.1";
    ep.port = 0;  // ephemeral
    listener_ = ListenSocket(ep);
    client_ = connect_endpoint(listener_.endpoint(), 2000);
    auto accepted = listener_.accept(2000);
    ASSERT_TRUE(accepted.has_value());
    server_ = std::move(*accepted);
  }

  ListenSocket listener_;
  Socket client_;
  Socket server_;
};

TEST_F(CodecTest, FrameRoundTrip) {
  StateWriter payload;
  payload.put_u64(7);
  payload.put_string("hello");
  write_frame(client_, MsgType::kOpen, payload, 2000);

  auto frame = read_frame(server_, 2000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kOpen);
  EXPECT_EQ(frame->payload.get_u64(), 7u);
  EXPECT_EQ(frame->payload.get_string(), "hello");
}

TEST_F(CodecTest, CleanEofIsNullopt) {
  client_.close();
  bool timed_out = true;
  auto frame = read_frame(server_, 2000, &timed_out);
  EXPECT_FALSE(frame.has_value());
  EXPECT_FALSE(timed_out);  // orderly close, not a timeout
}

TEST_F(CodecTest, TimeoutIsNulloptWithFlag) {
  bool timed_out = false;
  auto frame = read_frame(server_, 30, &timed_out);
  EXPECT_FALSE(frame.has_value());
  EXPECT_TRUE(timed_out);
}

TEST_F(CodecTest, GarbageMagicIsProtocolError) {
  const char junk[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  client_.write_all(junk, sizeof(junk), 2000);
  EXPECT_THROW(read_frame(server_, 2000), ProtocolError);
}

TEST_F(CodecTest, UnknownTypeIsProtocolError) {
  // Valid magic, hostile type byte 0xEE, zero-length payload.
  const unsigned char header[8] = {0x50, 0x53, 0xEE, 0x00, 0x00, 0x00, 0x00, 0x00};
  client_.write_all(header, sizeof(header), 2000);
  EXPECT_THROW(read_frame(server_, 2000), ProtocolError);
}

TEST_F(CodecTest, OversizedLengthIsProtocolError) {
  // Length field far above kMaxFrameBytes must be rejected before any
  // allocation — the classic allocation-of-death probe.
  unsigned char header[8] = {0x50, 0x53, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF};
  client_.write_all(header, sizeof(header), 2000);
  EXPECT_THROW(read_frame(server_, 2000), ProtocolError);
}

TEST_F(CodecTest, TornPayloadIsNetError) {
  // Header promises 100 payload bytes; the peer dies after 10. EOF inside a
  // message must read as a torn frame (NetError), never as clean EOF.
  unsigned char header[8] = {0x50, 0x53, 0x01, 0x00, 100, 0x00, 0x00, 0x00};
  client_.write_all(header, sizeof(header), 2000);
  const char partial[10] = {};
  client_.write_all(partial, sizeof(partial), 2000);
  client_.close();
  EXPECT_THROW(read_frame(server_, 2000), NetError);
}

// ---------------------------------------------------------------------------
// Session: factory, idempotent ingest, quarantine, save/restore.

WireSessionConfig small_config(std::uint32_t k = 2) {
  WireSessionConfig config;
  config.algo = "ldg";
  config.num_vertices = 8;
  config.num_edges = 8;
  config.num_partitions = k;
  return config;
}

TEST(SessionFactory, RejectsBadConfigTyped) {
  WireSessionConfig bad = small_config();
  bad.algo = "quantum";
  try {
    make_session_partitioner(bad);
    FAIL() << "unknown algo accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), WireError::kBadConfig);
  }

  bad = small_config();
  bad.num_vertices = 0;
  EXPECT_THROW(make_session_partitioner(bad), ProtocolError);
  bad = small_config();
  bad.num_partitions = 0;
  EXPECT_THROW(make_session_partitioner(bad), ProtocolError);
  bad = small_config();
  bad.balance = 9;
  EXPECT_THROW(make_session_partitioner(bad), ProtocolError);
}

TEST(SessionFactory, BuildsEverySupportedAlgo) {
  for (const char* algo : {"spnl", "spn", "ldg", "fennel", "hash", "range"}) {
    WireSessionConfig config = small_config();
    config.algo = algo;
    EXPECT_NE(make_session_partitioner(config), nullptr) << algo;
  }
}

TEST(Session, IdempotentFeedDropsRetransmit) {
  Session session("tok", 1, small_config());
  const std::vector<VertexId> ids = {0, 1};
  const std::vector<std::uint32_t> degrees = {1, 1};
  const std::vector<VertexId> neighbors = {1, 0};
  EXPECT_EQ(session.feed(0, ids, degrees, neighbors), 2u);
  // Full retransmit of the same batch (torn-ack recovery): dropped, same
  // committed count, no double placement.
  EXPECT_EQ(session.feed(0, ids, degrees, neighbors), 2u);
  EXPECT_EQ(session.records_received(), 2u);

  const std::vector<VertexId> ids2 = {2, 3};
  const std::vector<VertexId> neighbors2 = {3, 2};
  EXPECT_EQ(session.feed(2, ids2, degrees, neighbors2), 4u);
}

TEST(Session, SequenceGapQuarantines) {
  Session session("tok", 1, small_config());
  const std::vector<VertexId> ids = {0};
  const std::vector<std::uint32_t> degrees = {0};
  try {
    session.feed(5, ids, degrees, {});  // skips ahead of committed count 0
    FAIL() << "gap accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), WireError::kSequenceGap);
  }
  EXPECT_EQ(session.state(), SessionState::kQuarantined);
  // A quarantined session rejects everything that follows.
  EXPECT_THROW(session.feed(0, ids, degrees, {}), ProtocolError);
  EXPECT_THROW(session.finish(0), ProtocolError);
  EXPECT_FALSE(session.attach());
}

TEST(Session, FinishVerifiesTotalAndIsIdempotent) {
  Session session("tok", 1, small_config());
  const std::vector<VertexId> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::uint32_t> degrees(8, 0);
  session.feed(0, ids, degrees, {});
  const std::vector<PartitionId> route = session.finish(8);
  EXPECT_EQ(route.size(), 8u);
  // Re-finish (route refetch after a torn RouteDone) returns the same route.
  EXPECT_EQ(session.finish(8), route);
}

TEST(Session, FinishWithMissingRecordsQuarantines) {
  Session session("tok", 1, small_config());
  const std::vector<VertexId> ids = {0, 1};
  const std::vector<std::uint32_t> degrees = {0, 0};
  session.feed(0, ids, degrees, {});
  EXPECT_THROW(session.finish(8), ProtocolError);  // only 2 of 8 arrived
  EXPECT_EQ(session.state(), SessionState::kQuarantined);
}

TEST(Session, SingleWriterAttach) {
  Session session("tok", 1, small_config());
  EXPECT_TRUE(session.attach());
  EXPECT_FALSE(session.attach());  // second connection, same token
  session.detach();
  EXPECT_TRUE(session.attach());
}

TEST(Session, SaveRestoreContinuesByteIdentically) {
  // Feed half the records, checkpoint, restore, feed the rest — the final
  // route must equal an uninterrupted session's.
  WireSessionConfig config = small_config();
  config.algo = "spnl";
  config.num_vertices = 64;
  config.num_edges = 63;
  std::vector<VertexId> ids(64);
  std::vector<std::uint32_t> degrees(64);
  std::vector<VertexId> neighbors;
  for (VertexId v = 0; v < 64; ++v) {
    ids[v] = v;
    degrees[v] = v > 0 ? 1 : 0;
    if (v > 0) neighbors.push_back(v - 1);
  }
  auto feed_range = [&](Session& s, VertexId lo, VertexId hi) {
    std::vector<VertexId> part_ids(ids.begin() + lo, ids.begin() + hi);
    std::vector<std::uint32_t> part_deg(degrees.begin() + lo, degrees.begin() + hi);
    std::vector<VertexId> part_nbrs;
    for (VertexId v = lo; v < hi; ++v) {
      if (degrees[v] > 0) part_nbrs.push_back(v - 1);
    }
    s.feed(lo, part_ids, part_deg, part_nbrs);
  };

  Session uninterrupted("a", 1, config);
  feed_range(uninterrupted, 0, 64);
  const std::vector<PartitionId> expected = uninterrupted.finish(64);

  Session first("b", 2, config);
  feed_range(first, 0, 32);
  StateWriter out;
  first.save(out);

  StateReader in(out.bytes());
  std::unique_ptr<Session> second = Session::restore(in);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->token(), "b");
  EXPECT_EQ(second->records_received(), 32u);
  feed_range(*second, 32, 64);
  EXPECT_EQ(second->finish(64), expected);
}

// ---------------------------------------------------------------------------
// Registry: admission, reaping, reconciliation.

TEST(SessionRegistry, AdmissionCapsLiveSessions) {
  SessionRegistry registry({.max_sessions = 2, .memory_budget_bytes = 0}, 7);
  std::string reason;
  auto a = registry.open(small_config(), &reason);
  auto b = registry.open(small_config(), &reason);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->token(), b->token());

  auto c = registry.open(small_config(), &reason);
  EXPECT_EQ(c, nullptr);
  EXPECT_NE(reason.find("sessions"), std::string::npos) << reason;

  // Completing one frees a slot.
  registry.remove_completed(a->token());
  auto d = registry.open(small_config(), &reason);
  EXPECT_NE(d, nullptr);

  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.opened, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected_busy, 1u);
  EXPECT_EQ(stats.live, 2u);
  EXPECT_TRUE(stats.reconciles());
}

TEST(SessionRegistry, AdmissionEnforcesMemoryBudget) {
  // The budget is a hard cap on the summed partitioner footprint: a budget
  // sized for one session admits the first and rejects the second with a
  // "memory" reason; a 1-byte budget rejects even the first.
  WireSessionConfig config = small_config();
  config.algo = "spnl";
  config.num_vertices = 4096;
  const std::size_t one =
      make_session_partitioner(config)->memory_footprint_bytes();
  ASSERT_GT(one, 0u);

  SessionRegistry registry(
      {.max_sessions = 64, .memory_budget_bytes = one + one / 2}, 7);
  std::string reason;
  auto a = registry.open(config, &reason);
  ASSERT_NE(a, nullptr);
  auto b = registry.open(config, &reason);
  EXPECT_EQ(b, nullptr);
  EXPECT_NE(reason.find("memory"), std::string::npos) << reason;

  SessionRegistry strict({.max_sessions = 64, .memory_budget_bytes = 1}, 7);
  EXPECT_EQ(strict.open(config, &reason), nullptr);
  EXPECT_TRUE(strict.stats().reconciles());
}

TEST(SessionRegistry, ReapsOnlyIdleDetachedSessions) {
  SessionRegistry registry({.max_sessions = 8, .memory_budget_bytes = 0}, 7);
  std::string reason;
  auto idle = registry.open(small_config(), &reason);
  auto busy = registry.open(small_config(), &reason);
  ASSERT_NE(idle, nullptr);
  ASSERT_NE(busy, nullptr);
  busy->attach();  // an attached session is never reaped

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(registry.reap_idle(3600.0), 0u);  // neither is idle enough
  EXPECT_EQ(registry.reap_idle(0.01), 1u);    // idle-detached one goes
  EXPECT_EQ(registry.find(idle->token()), nullptr);
  EXPECT_NE(registry.find(busy->token()), nullptr);
  EXPECT_TRUE(registry.stats().reconciles());
}

TEST(SessionRegistry, UnknownTokenFindsNothing) {
  SessionRegistry registry({}, 7);
  EXPECT_EQ(registry.find("deadbeef"), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end over a live server: client library against SpnlServer.

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_test_dir();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static ServerOptions loopback_options() {
    ServerOptions options;
    options.endpoint.kind = Endpoint::Kind::kTcp;
    options.endpoint.host = "127.0.0.1";
    options.endpoint.port = 0;
    options.idle_timeout_seconds = 5.0;
    options.read_timeout_seconds = 2.0;
    options.io_timeout_seconds = 2.0;
    return options;
  }

  std::filesystem::path dir_;
};

TEST_F(ServerTest, ClientRouteMatchesDirectRun) {
  const Graph graph = generate_webcrawl(
      {.num_vertices = 1500, .avg_out_degree = 5.0, .seed = 21});
  WireSessionConfig config;
  config.algo = "spnl";
  config.num_vertices = graph.num_vertices();
  config.num_edges = graph.num_edges();
  config.num_partitions = 4;

  // Ground truth: the sequential driver.
  InMemoryStream direct_stream(graph);
  auto direct = make_session_partitioner(config);
  const RunResult expected = run_streaming(direct_stream, *direct);

  SpnlServer server(loopback_options());
  server.start();

  ClientOptions copts;
  copts.endpoint = server.endpoint();
  SpnlClient client(copts);
  InMemoryStream stream(graph);
  const ClientRunResult run = client.partition(stream, config);
  EXPECT_EQ(run.route, expected.route);
  EXPECT_EQ(run.attempts, 1u);

  server.request_stop();
  server.wait();
  EXPECT_TRUE(server.stats().reconciles());
}

TEST_F(ServerTest, GarbageConnectionQuarantinesNothingElse) {
  // A connection that sends garbage after opening a session poisons only
  // that session; a well-behaved client on the same server is unaffected.
  SpnlServer server(loopback_options());
  server.start();

  {
    Socket attacker = connect_endpoint(server.endpoint(), 2000);
    StateWriter hello;
    hello.put_u32(kProtocolVersion);
    write_frame(attacker, MsgType::kHello, hello, 2000);
    ASSERT_TRUE(read_frame(attacker, 2000).has_value());  // HelloAck
    StateWriter open;
    small_config().save(open);
    write_frame(attacker, MsgType::kOpen, open, 2000);
    ASSERT_TRUE(read_frame(attacker, 2000).has_value());  // OpenAck
    const char junk[16] = {'g', 'a', 'r', 'b', 'a', 'g', 'e'};
    attacker.write_all(junk, sizeof(junk), 2000);
    // Server replies kError and quarantines; connection then closes.
    auto reply = read_frame(attacker, 2000);
    if (reply) EXPECT_EQ(reply->type, MsgType::kError);
  }

  const Graph graph = generate_webcrawl(
      {.num_vertices = 400, .avg_out_degree = 4.0, .seed = 5});
  WireSessionConfig config;
  config.algo = "ldg";
  config.num_vertices = graph.num_vertices();
  config.num_edges = graph.num_edges();
  config.num_partitions = 2;
  ClientOptions copts;
  copts.endpoint = server.endpoint();
  SpnlClient client(copts);
  InMemoryStream stream(graph);
  const ClientRunResult run = client.partition(stream, config);
  EXPECT_EQ(run.route.size(), graph.num_vertices());

  server.request_stop();
  server.wait();
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.protocol_errors, 1u);
  EXPECT_GE(stats.quarantined, 1u);
  EXPECT_TRUE(stats.reconciles());
}

TEST_F(ServerTest, BusyReplyCarriesRetryAfterAndClientWaits) {
  ServerOptions options = loopback_options();
  options.admission.max_sessions = 1;
  options.retry_after_ms = 50;
  // The abandoned occupier frees its slot via the idle reaper; keep both
  // timeouts tight so the waiting client converges fast.
  options.idle_timeout_seconds = 0.3;
  options.reaper_interval_seconds = 0.1;
  SpnlServer server(options);
  server.start();

  // Occupy the single slot with a raw half-open session.
  Socket occupier = connect_endpoint(server.endpoint(), 2000);
  StateWriter hello;
  hello.put_u32(kProtocolVersion);
  write_frame(occupier, MsgType::kHello, hello, 2000);
  ASSERT_TRUE(read_frame(occupier, 2000).has_value());
  StateWriter open;
  small_config().save(open);
  write_frame(occupier, MsgType::kOpen, open, 2000);
  auto ack = read_frame(occupier, 2000);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kOpenAck);

  // A second client sees Busy, backs off, and succeeds once the slot frees.
  const Graph graph = generate_webcrawl(
      {.num_vertices = 300, .avg_out_degree = 4.0, .seed = 9});
  WireSessionConfig config;
  config.algo = "hash";
  config.num_vertices = graph.num_vertices();
  config.num_edges = graph.num_edges();
  config.num_partitions = 2;
  ClientOptions copts;
  copts.endpoint = server.endpoint();
  copts.deadline_seconds = 30.0;
  SpnlClient client(copts);
  InMemoryStream stream(graph);

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    // Bye detaches the occupying session; the idle reaper then frees the
    // admission slot for the waiting client.
    write_frame(occupier, MsgType::kBye, 2000);
    occupier.close();
  });

  const ClientRunResult run = client.partition(stream, config);
  releaser.join();
  EXPECT_EQ(run.route.size(), graph.num_vertices());
  EXPECT_GE(run.busy_retries, 1u);

  server.request_stop();
  server.wait();
  EXPECT_GE(server.stats().rejected_busy, 1u);
}

TEST_F(ServerTest, DrainCheckpointsAndRestoreResumes) {
  // Open a session, feed half the records, drain the server; a second
  // server on the same drain_dir restores it and the client-side resume
  // completes with a route identical to an uninterrupted run.
  const Graph graph = generate_webcrawl(
      {.num_vertices = 800, .avg_out_degree = 4.0, .seed = 13});
  WireSessionConfig config;
  config.algo = "spnl";
  config.num_vertices = graph.num_vertices();
  config.num_edges = graph.num_edges();
  config.num_partitions = 4;

  InMemoryStream direct_stream(graph);
  auto direct = make_session_partitioner(config);
  const RunResult expected = run_streaming(direct_stream, *direct);

  ServerOptions options = loopback_options();
  options.drain_dir = (dir_ / "drain").string();
  SpnlServer first(options);
  first.start();

  // Drive the first half by hand so we control exactly when the drain hits.
  Socket conn = connect_endpoint(first.endpoint(), 2000);
  StateWriter hello;
  hello.put_u32(kProtocolVersion);
  write_frame(conn, MsgType::kHello, hello, 2000);
  ASSERT_TRUE(read_frame(conn, 2000).has_value());
  StateWriter open;
  config.save(open);
  write_frame(conn, MsgType::kOpen, open, 2000);
  auto ack = read_frame(conn, 2000);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kOpenAck);
  const std::string token = ack->payload.get_string();

  InMemoryStream stream(graph);
  std::vector<VertexId> ids;
  std::vector<std::uint32_t> degrees;
  std::vector<VertexId> neighbors;
  const VertexId half = graph.num_vertices() / 2;
  for (VertexId v = 0; v < half; ++v) {
    auto record = stream.next();
    ASSERT_TRUE(record.has_value());
    ids.push_back(record->id);
    degrees.push_back(static_cast<std::uint32_t>(record->out.size()));
    neighbors.insert(neighbors.end(), record->out.begin(), record->out.end());
  }
  StateWriter records;
  records.put_u64(0);
  records.put_vec(ids);
  records.put_vec(degrees);
  records.put_vec(neighbors);
  write_frame(conn, MsgType::kRecords, records, 2000);
  auto rack = read_frame(conn, 2000);
  ASSERT_TRUE(rack.has_value());
  ASSERT_EQ(rack->type, MsgType::kRecordsAck);
  EXPECT_EQ(rack->payload.get_u64(), half);
  conn.close();  // detach; the session stays live

  first.request_drain();
  first.wait();
  const ServerStats drained = first.stats();
  EXPECT_EQ(drained.sessions_checkpointed_on_drain, 1u);
  EXPECT_EQ(drained.drained, 1u);
  EXPECT_TRUE(drained.reconciles());
  ASSERT_FALSE(std::filesystem::is_empty(options.drain_dir));

  // Second generation: restore and let the client library resume by token.
  SpnlServer second(options);
  second.start();
  EXPECT_EQ(second.stats().sessions_restored_from_drain, 1u);

  Socket conn2 = connect_endpoint(second.endpoint(), 2000);
  write_frame(conn2, MsgType::kHello, hello, 2000);
  ASSERT_TRUE(read_frame(conn2, 2000).has_value());
  StateWriter resume;
  resume.put_string(token);
  write_frame(conn2, MsgType::kResume, resume, 2000);
  auto resume_ack = read_frame(conn2, 2000);
  ASSERT_TRUE(resume_ack.has_value());
  ASSERT_EQ(resume_ack->type, MsgType::kResumeAck);
  EXPECT_EQ(resume_ack->payload.get_u64(), half);

  ids.clear();
  degrees.clear();
  neighbors.clear();
  while (auto record = stream.next()) {
    ids.push_back(record->id);
    degrees.push_back(static_cast<std::uint32_t>(record->out.size()));
    neighbors.insert(neighbors.end(), record->out.begin(), record->out.end());
  }
  StateWriter rest;
  rest.put_u64(half);
  rest.put_vec(ids);
  rest.put_vec(degrees);
  rest.put_vec(neighbors);
  write_frame(conn2, MsgType::kRecords, rest, 2000);
  ASSERT_TRUE(read_frame(conn2, 2000).has_value());
  StateWriter finish;
  finish.put_u64(graph.num_vertices());
  write_frame(conn2, MsgType::kFinish, finish, 2000);

  std::vector<PartitionId> route(graph.num_vertices(), kUnassigned);
  for (;;) {
    auto frame = read_frame(conn2, 5000);
    ASSERT_TRUE(frame.has_value());
    if (frame->type == MsgType::kRouteDone) {
      EXPECT_EQ(frame->payload.get_u64(), route.size());
      EXPECT_EQ(frame->payload.get_u32(),
                crc32(route.data(), route.size() * sizeof(PartitionId)));
      break;
    }
    ASSERT_EQ(frame->type, MsgType::kRouteChunk);
    const std::uint64_t offset = frame->payload.get_u64();
    const auto chunk = frame->payload.get_vec<PartitionId>();
    ASSERT_LE(offset + chunk.size(), route.size());
    std::copy(chunk.begin(), chunk.end(), route.begin() + offset);
  }
  EXPECT_EQ(route, expected.route);

  second.request_stop();
  second.wait();
  EXPECT_TRUE(second.stats().reconciles());
}

TEST_F(ServerTest, CorruptDrainCheckpointIsSkippedNotFatal) {
  ServerOptions options = loopback_options();
  options.drain_dir = (dir_ / "drain").string();
  std::filesystem::create_directories(options.drain_dir);
  {
    std::ofstream torn(options.drain_dir + "/deadbeef.ckpt", std::ios::binary);
    torn.write("not a checkpoint", 16);
  }
  SpnlServer server(options);
  server.start();  // must not throw
  EXPECT_EQ(server.stats().sessions_restored_from_drain, 0u);
  EXPECT_TRUE(
      std::filesystem::exists(options.drain_dir + "/deadbeef.ckpt.corrupt"));
  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace spnl
