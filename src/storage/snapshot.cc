#include "storage/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>

namespace rdfopt {

namespace {

constexpr char kMagic[4] = {'R', 'D', 'F', 'O'};
constexpr uint32_t kVersion = 2;

constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}
constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

/// Writes through to the file and keeps the CRC of every byte written.
struct SnapshotWriter {
  std::ofstream& out;
  uint32_t crc = 0;

  void Bytes(const char* data, size_t size) {
    out.write(data, static_cast<std::streamsize>(size));
    crc = Crc32(std::string_view(data, size), crc);
  }
  void U32(uint32_t v) { Bytes(reinterpret_cast<const char*>(&v), sizeof(v)); }
  void U64(uint64_t v) { Bytes(reinterpret_cast<const char*>(&v), sizeof(v)); }
};

bool ReadU32(std::istream& in, uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}
bool ReadU64(std::istream& in, uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

/// Bytes after the read position: the ceiling on any count the file claims.
uint64_t BytesLeft(std::istream& in, uint64_t file_size) {
  const std::streamoff pos = in.tellg();
  return pos < 0 ? 0 : file_size - static_cast<uint64_t>(pos);
}

void WriteTriples(SnapshotWriter& out, const std::vector<Triple>& triples) {
  out.U64(triples.size());
  for (const Triple& t : triples) {
    out.U32(t.s);
    out.U32(t.p);
    out.U32(t.o);
  }
}

/// CRC of the first `size` bytes of the file behind `in`.
bool CrcOfPrefix(std::istream& in, uint64_t size, uint32_t* crc) {
  in.seekg(0);
  std::array<char, 1 << 16> buffer;
  *crc = 0;
  while (size > 0) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(size, buffer.size()));
    in.read(buffer.data(), static_cast<std::streamsize>(chunk));
    if (!in.good()) return false;
    *crc = Crc32(std::string_view(buffer.data(), chunk), *crc);
    size -= chunk;
  }
  return true;
}

Status ReadTriples(std::istream& in, uint64_t file_size, size_t num_terms,
                   const char* what, std::vector<Triple>* out) {
  uint64_t count = 0;
  if (!ReadU64(in, &count)) {
    return Status::ParseError(std::string("snapshot truncated before ") +
                              what + " count");
  }
  if (count > BytesLeft(in, file_size) / (3 * sizeof(uint32_t))) {
    return Status::ParseError(std::string("snapshot ") + what +
                              " count exceeds the file");
  }
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t s, p, o;
    if (!ReadU32(in, &s) || !ReadU32(in, &p) || !ReadU32(in, &o)) {
      return Status::ParseError(std::string("snapshot truncated inside ") +
                                what);
    }
    if (s >= num_terms || p >= num_terms || o >= num_terms) {
      return Status::ParseError(
          std::string("snapshot triple references unknown term in ") + what);
    }
    out->push_back(Triple{s, p, o});
  }
  return Status::OK();
}

}  // namespace

uint32_t Crc32(std::string_view bytes, uint32_t crc) {
  crc = ~crc;
  for (unsigned char b : bytes) crc = kCrcTable[(crc ^ b) & 0xff] ^ (crc >> 8);
  return ~crc;
}

Status SaveGraphSnapshot(const Graph& graph, const std::string& path) {
  // Write a sibling file and rename it over `path` once it is durable, so a
  // crash or a failed write never leaves `path` half-written.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open " + tmp + " for writing");
  }
  SnapshotWriter writer{out};
  writer.Bytes(kMagic, sizeof(kMagic));
  writer.U32(kVersion);

  const Dictionary& dict = graph.dict();
  writer.U64(dict.size());
  for (ValueId id = 0; id < dict.size(); ++id) {
    const Term& term = dict.term(id);
    const char kind = static_cast<char>(term.kind);
    writer.Bytes(&kind, 1);
    writer.U32(static_cast<uint32_t>(term.lexical.size()));
    writer.Bytes(term.lexical.data(), term.lexical.size());
  }
  WriteTriples(writer, graph.schema_triples());
  WriteTriples(writer, graph.data_triples());
  const uint32_t crc = writer.crc;
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.close();
  const int fd = out ? ::open(tmp.c_str(), O_RDONLY) : -1;
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!synced || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("write to " + path + " failed");
  }
  return Status::OK();
}

Result<Graph> LoadGraphSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + path);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0);

  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return Status::ParseError(path + " is not an rdfopt snapshot");
  }
  uint32_t version = 0;
  if (!ReadU32(in, &version) || version != kVersion) {
    return Status::ParseError("unsupported snapshot version");
  }

  Graph graph;
  uint64_t num_terms = 0;
  if (!ReadU64(in, &num_terms)) {
    return Status::ParseError("snapshot truncated before the dictionary");
  }
  for (uint64_t i = 0; i < num_terms; ++i) {
    int kind_byte = in.get();
    uint32_t len = 0;
    if (kind_byte == EOF || !ReadU32(in, &len)) {
      return Status::ParseError("snapshot truncated inside the dictionary");
    }
    if (kind_byte > 2) {
      return Status::ParseError("snapshot contains an unknown term kind");
    }
    if (len > BytesLeft(in, file_size)) {
      return Status::ParseError("snapshot term length exceeds the file");
    }
    std::string lexical(len, '\0');
    in.read(lexical.data(), static_cast<std::streamsize>(len));
    if (!in.good()) {
      return Status::ParseError("snapshot truncated inside a term");
    }
    Term term{static_cast<TermKind>(kind_byte), std::move(lexical)};
    ValueId assigned = graph.dict().Intern(term);
    if (assigned != i) {
      // The graph constructor pre-interns the five vocabulary IRIs; a valid
      // snapshot (written from a Graph) lists them first, so ids line up.
      // Anything else indicates a corrupted or foreign dictionary.
      return Status::ParseError("snapshot dictionary ids do not line up");
    }
  }

  std::vector<Triple> schema_triples;
  RDFOPT_RETURN_NOT_OK(ReadTriples(in, file_size, num_terms, "schema triples",
                                   &schema_triples));
  std::vector<Triple> data_triples;
  RDFOPT_RETURN_NOT_OK(ReadTriples(in, file_size, num_terms, "data triples",
                                   &data_triples));
  // The trailer is checked after the bounded parse: every count and length
  // above was already validated against the file size.
  uint32_t stored_crc = 0;
  if (!ReadU32(in, &stored_crc)) {
    return Status::ParseError("snapshot truncated before the checksum");
  }
  if (BytesLeft(in, file_size) != 0) {
    return Status::ParseError("snapshot has bytes after the checksum");
  }
  uint32_t crc = 0;
  if (!CrcOfPrefix(in, file_size - sizeof(stored_crc), &crc) ||
      crc != stored_crc) {
    return Status::ParseError("snapshot checksum mismatch");
  }
  for (const Triple& t : schema_triples) graph.AddEncoded(t.s, t.p, t.o);
  for (const Triple& t : data_triples) graph.AddEncoded(t.s, t.p, t.o);
  graph.FinalizeSchema();
  return graph;
}

}  // namespace rdfopt
