#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>

#include "util/checked_io.hpp"
#include "util/ordered_prefetch.hpp"

namespace spnl {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x53504e4c47523031ULL;  // "SPNLGR01"

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw IoError(what + ": " + path);
}

bool parse_pair(const std::string& line, std::uint64_t& a, std::uint64_t& b) {
  const char* p = line.data();
  const char* end = p + line.size();
  auto skip_ws = [&] {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  };
  skip_ws();
  auto [p1, ec1] = std::from_chars(p, end, a);
  if (ec1 != std::errc()) return false;
  p = p1;
  skip_ws();
  auto [p2, ec2] = std::from_chars(p, end, b);
  if (ec2 != std::errc()) return false;
  p = p2;
  skip_ws();
  return p == end;
}

}  // namespace

Graph read_edge_list(const std::string& path, bool compact_ids) {
  std::ifstream in(path);
  if (!in) fail("read_edge_list: cannot open", path);
  GraphBuilder builder;
  std::unordered_map<std::uint64_t, VertexId> remap;
  auto map_id = [&](std::uint64_t raw) -> VertexId {
    if (!compact_ids) return static_cast<VertexId>(raw);
    auto [it, inserted] = remap.emplace(raw, static_cast<VertexId>(remap.size()));
    (void)inserted;
    return it->second;
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::uint64_t a = 0, b = 0;
    if (!parse_pair(line, a, b)) fail("read_edge_list: malformed line in", path);
    // Without compaction the raw id becomes the VertexId directly; ids at or
    // above kInvalidVertex would silently wrap into valid-looking vertices.
    if (!compact_ids && (a >= kInvalidVertex || b >= kInvalidVertex)) {
      fail("read_edge_list: vertex id overflows VertexId in", path);
    }
    builder.add_edge(map_id(a), map_id(b));
  }
  return builder.finish();
}

// The writers below go through FdWriter: every byte is checked (short-write
// and EINTR retried, persistent errors typed as IoError naming the path and
// errno) and close() is explicit so a full disk can't masquerade as success
// the way an unchecked ofstream destructor lets it.
void write_edge_list(const Graph& graph, const std::string& path) {
  FdWriter out(path);
  out.append("# Directed edge list; V ");
  out.append_u64(graph.num_vertices());
  out.append(" E ");
  out.append_u64(graph.num_edges());
  out.append_char('\n');
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (VertexId u : graph.out_neighbors(v)) {
      out.append_u64(v);
      out.append_char(' ');
      out.append_u64(u);
      out.append_char('\n');
    }
  }
  out.close();
}

void write_adjacency_list(const Graph& graph, const std::string& path) {
  FdWriter out(path);
  out.append("# V ");
  out.append_u64(graph.num_vertices());
  out.append(" E ");
  out.append_u64(graph.num_edges());
  out.append_char('\n');
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    out.append_u64(v);
    for (VertexId u : graph.out_neighbors(v)) {
      out.append_char(' ');
      out.append_u64(u);
    }
    out.append_char('\n');
  }
  out.close();
}

void write_binary(const Graph& graph, const std::string& path) {
  FdWriter out(path);
  const std::uint64_t magic = kBinaryMagic;
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t m = graph.num_edges();
  out.append(&magic, sizeof(magic));
  out.append(&n, sizeof(n));
  out.append(&m, sizeof(m));
  out.append(graph.offsets().data(), graph.offsets().size() * sizeof(EdgeId));
  out.append(graph.targets().data(), graph.targets().size() * sizeof(VertexId));
  out.close();
}

Graph read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail("read_binary: cannot open", path);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::uint64_t magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in) fail("read_binary: truncated header in", path);
  if (magic != kBinaryMagic) fail("read_binary: bad magic in", path);
  // Validate the header against what is actually on disk BEFORE allocating:
  // a corrupt n/m would otherwise request terabytes or read past the end.
  if (n >= kInvalidVertex) fail("read_binary: vertex count overflows VertexId in", path);
  const std::uint64_t expected =
      3 * sizeof(std::uint64_t) + (n + 1) * sizeof(EdgeId) + m * sizeof(VertexId);
  if (file_size != expected) {
    fail("read_binary: file size does not match header (truncated or corrupt)", path);
  }
  std::vector<EdgeId> offsets(n + 1);
  std::vector<VertexId> targets(m);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(EdgeId)));
  in.read(reinterpret_cast<char*>(targets.data()),
          static_cast<std::streamsize>(targets.size() * sizeof(VertexId)));
  if (!in) fail("read_binary: truncated file", path);
  // Structural CSR invariants: offsets start at 0, never decrease, and cover
  // exactly m targets; every target names an existing vertex.
  if (offsets.front() != 0) fail("read_binary: offsets[0] != 0 in", path);
  for (std::size_t v = 1; v < offsets.size(); ++v) {
    if (offsets[v] < offsets[v - 1]) {
      fail("read_binary: non-monotone offset array in", path);
    }
  }
  if (offsets.back() != m) fail("read_binary: offsets.back() != edge count in", path);
  for (VertexId target : targets) {
    if (target >= n) fail("read_binary: edge target out of range in", path);
  }
  return Graph(std::move(offsets), std::move(targets));
}

void write_route_table(const std::vector<PartitionId>& route, const std::string& path) {
  FdWriter out(path);
  out.append("# vertex partition\n");
  // Chunks are formatted on the spare cores and written in order, through
  // the one writer, so the bytes and every error path stay the same. Chunk
  // buffers are left uninitialized, so only the bytes written become
  // resident: the window of chunks is live at the end of a job, when RSS
  // peaks.
  struct ChunkText {
    std::unique_ptr<char[]> bytes;
    std::size_t size = 0;
  };
  constexpr std::size_t kLineBytes = 20 + 1 + 10 + 1;  // u64, ' ', u32, '\n'
  const std::size_t chunks = (route.size() + kRouteChunkVertices - 1) / kRouteChunkVertices;
  OrderedPrefetch<ChunkText> text(
      chunks, prefetch_helpers(), [&](std::size_t c, ChunkText& chunk) {
        if (!chunk.bytes) {
          chunk.bytes = std::make_unique_for_overwrite<char[]>(kRouteChunkVertices * kLineBytes);
        }
        const std::size_t begin = c * kRouteChunkVertices;
        const std::size_t end = std::min(route.size(), begin + kRouteChunkVertices);
        char* p = chunk.bytes.get();
        for (std::size_t v = begin; v < end; ++v) {
          p = std::to_chars(p, p + 20, v).ptr;
          *p++ = ' ';
          p = std::to_chars(p, p + 10, route[v]).ptr;
          *p++ = '\n';
        }
        chunk.size = static_cast<std::size_t>(p - chunk.bytes.get());
      });
  while (const ChunkText* chunk = text.next()) out.append(chunk->bytes.get(), chunk->size);
  out.close();
}

std::vector<PartitionId> read_route_table(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("read_route_table: cannot open", path);
  std::vector<PartitionId> route;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::uint64_t v = 0, p = 0;
    if (!parse_pair(line, v, p)) fail("read_route_table: malformed line in", path);
    if (v >= kInvalidVertex) fail("read_route_table: vertex id overflows VertexId in", path);
    if (p >= kUnassigned) fail("read_route_table: partition id overflows PartitionId in", path);
    if (v >= route.size()) route.resize(v + 1, kUnassigned);
    if (route[v] != kUnassigned) fail("read_route_table: duplicate vertex in", path);
    route[v] = static_cast<PartitionId>(p);
  }
  return route;
}

std::vector<PartitionId> read_route_table(const std::string& path, PartitionId k) {
  std::vector<PartitionId> route = read_route_table(path);
  try {
    validate_route(route, k);
  } catch (const IoError& e) {
    throw IoError(std::string(e.what()) + " (" + path + ")");
  }
  return route;
}

void validate_route(const std::vector<PartitionId>& route, PartitionId k,
                    VertexId num_vertices) {
  if (num_vertices > 0 && route.size() != num_vertices) {
    throw IoError("validate_route: route covers " + std::to_string(route.size()) +
                  " vertices, expected " + std::to_string(num_vertices));
  }
  for (std::size_t v = 0; v < route.size(); ++v) {
    if (route[v] == kUnassigned) {
      throw IoError("validate_route: vertex " + std::to_string(v) + " is unassigned");
    }
    if (route[v] >= k) {
      throw IoError("validate_route: vertex " + std::to_string(v) +
                    " routed to partition " + std::to_string(route[v]) +
                    " but k = " + std::to_string(k));
    }
  }
}

}  // namespace spnl
