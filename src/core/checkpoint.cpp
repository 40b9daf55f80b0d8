#include "core/checkpoint.hpp"

#include <array>
#include <cstring>
#include <fstream>

#include "graph/io.hpp"
#include "util/checked_io.hpp"

namespace spnl {

namespace {

constexpr std::uint64_t kCheckpointMagic = 0x53504e4c434b5031ULL;  // "SPNLCKP1"
constexpr std::uint32_t kCheckpointVersion = 2;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void StateReader::expect_u32(std::uint32_t expected, const char* what) {
  const std::uint32_t got = get_u32();
  if (got != expected) {
    throw CheckpointError(std::string("checkpoint: ") + what + " mismatch (snapshot " +
                          std::to_string(got) + ", current " +
                          std::to_string(expected) + ")");
  }
}

void StateReader::expect_u64(std::uint64_t expected, const char* what) {
  const std::uint64_t got = get_u64();
  if (got != expected) {
    throw CheckpointError(std::string("checkpoint: ") + what + " mismatch (snapshot " +
                          std::to_string(got) + ", current " +
                          std::to_string(expected) + ")");
  }
}

void StateReader::expect_string(const std::string& expected, const char* what) {
  const std::string got = get_string();
  if (got != expected) {
    throw CheckpointError(std::string("checkpoint: ") + what + " mismatch (snapshot \"" +
                          got + "\", current \"" + expected + "\")");
  }
}

void write_checkpoint_file(const std::string& path, const StateWriter& payload) {
  // Crash-atomic publish protocol (AtomicFileWriter): bytes land in
  // <path>.tmp through the checked fault-injectable writer, are fsynced to
  // stable storage, and only then renamed over <path> (with a directory
  // fsync sealing the rename). A crash or power cut at ANY point leaves
  // either the previous snapshot intact or the new one complete — never a
  // torn file at the published path; the tmp of a failed write is unlinked
  // on unwind, and a stale .tmp from a hard crash is simply overwritten by
  // the next snapshot. I/O failures are rethrown as CheckpointError so
  // resume-path callers keep one exception type.
  try {
    AtomicFileWriter atomic(path);
    FdWriter& out = atomic.out();
    const std::uint64_t magic = kCheckpointMagic;
    const std::uint32_t version = kCheckpointVersion;
    const std::uint64_t size = payload.bytes().size();
    const std::uint32_t crc = crc32(payload.bytes().data(), payload.bytes().size());
    out.append(&magic, sizeof(magic));
    out.append(&version, sizeof(version));
    out.append(&size, sizeof(size));
    out.append(&crc, sizeof(crc));
    out.append(payload.bytes().data(), payload.bytes().size());
    atomic.commit();
  } catch (const IoError& e) {
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
}

StateReader read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CheckpointError("checkpoint: cannot open: " + path);

  std::uint64_t magic = 0, size = 0;
  std::uint32_t version = 0, crc = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!in || magic != kCheckpointMagic) {
    throw CheckpointError("checkpoint: bad header: " + path);
  }
  if (version != kCheckpointVersion) {
    throw CheckpointError("checkpoint: unsupported version " +
                          std::to_string(version) + ": " + path);
  }

  // Bound the payload by the actual file size before allocating.
  const std::streampos payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::uint64_t available =
      static_cast<std::uint64_t>(in.tellg() - payload_start);
  if (size != available) {
    throw CheckpointError("checkpoint: truncated file (payload " +
                          std::to_string(available) + " of " + std::to_string(size) +
                          " bytes): " + path);
  }
  in.seekg(payload_start);

  std::vector<std::uint8_t> payload(size);
  in.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(size));
  if (!in) throw CheckpointError("checkpoint: read error: " + path);
  if (crc32(payload.data(), payload.size()) != crc) {
    throw CheckpointError("checkpoint: CRC mismatch (corrupt snapshot): " + path);
  }
  return StateReader(std::move(payload));
}

}  // namespace spnl
