// Fuzz target: LoadGraphSnapshot (storage/snapshot.h) over arbitrary bytes.
// The first input byte picks the mode and the rest is the file. With the
// low bit set, the last four bytes are overwritten with the CRC of the
// bytes before them, so mutated inputs get past the checksum and reach the
// parser behind it; otherwise the bytes are loaded as they are, which
// fuzzes the checksum itself. A load must either fail with a status or
// yield a graph that saves and reloads to the same dictionary and triples.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "fuzz/fuzz_target.h"
#include "rdf/graph.h"
#include "storage/snapshot.h"

namespace {

/// A file name private to this process, so parallel fuzzing jobs sharing a
/// temp directory never read each other's inputs.
std::string TempPath(const char* suffix) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") +
         "/rdfopt_snapshot_fuzz_" + std::to_string(::getpid()) + suffix;
}

bool SameGraph(const rdfopt::Graph& a, const rdfopt::Graph& b) {
  if (a.dict().size() != b.dict().size()) return false;
  for (rdfopt::ValueId id = 0; id < a.dict().size(); ++id) {
    if (!(a.dict().term(id) == b.dict().term(id))) return false;
  }
  return a.schema_triples() == b.schema_triples() &&
         a.data_triples() == b.data_triples();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 1 || size > 1 << 16) return 0;
  std::string bytes(reinterpret_cast<const char*>(data) + 1, size - 1);
  if ((data[0] & 1) != 0 && bytes.size() >= sizeof(uint32_t)) {
    const size_t body = bytes.size() - sizeof(uint32_t);
    const uint32_t crc = rdfopt::Crc32(std::string_view(bytes).substr(0, body));
    std::memcpy(bytes.data() + body, &crc, sizeof(crc));
  }

  static const std::string input_path = TempPath(".in");
  static const std::string resaved_path = TempPath(".out");
  {
    std::ofstream out(input_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  rdfopt::Result<rdfopt::Graph> loaded = rdfopt::LoadGraphSnapshot(input_path);
  std::remove(input_path.c_str());
  if (!loaded.ok()) {
    (void)loaded.status().ToString().size();
    return 0;
  }

  // An accepted snapshot must survive its own save and reload unchanged.
  if (!rdfopt::SaveGraphSnapshot(loaded.ValueOrDie(), resaved_path).ok()) {
    __builtin_trap();
  }
  rdfopt::Result<rdfopt::Graph> reloaded =
      rdfopt::LoadGraphSnapshot(resaved_path);
  std::remove(resaved_path.c_str());
  if (!reloaded.ok() ||
      !SameGraph(loaded.ValueOrDie(), reloaded.ValueOrDie())) {
    __builtin_trap();
  }
  return 0;
}
