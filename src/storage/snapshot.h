#ifndef RDFOPT_STORAGE_SNAPSHOT_H_
#define RDFOPT_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "rdf/graph.h"

namespace rdfopt {

/// Binary snapshots of an RDF database (dictionary + schema + data triples).
///
/// Loading a snapshot is much faster than re-parsing N-Triples or
/// re-generating a synthetic workload, which matters once datasets reach
/// the paper's scales. The format is a private, versioned, little-endian
/// layout:
///
///   magic "RDFO" | u32 version | u64 #terms | terms (u8 kind, u32 len,
///   bytes) | u64 #schema triples | (u32 s,p,o)* | u64 #data triples |
///   (u32 s,p,o)* | u32 crc
///
/// The version is 2; `crc` is Crc32 of every byte before it.
/// Term ids are implicit (dense, in dictionary order), so triples reference
/// terms by position. Snapshots are not portable across endiannesses.
/// The file is written as `<path>.tmp`, fsynced and renamed over `path`, so
/// a failed save leaves any previous snapshot at `path` intact.
Status SaveGraphSnapshot(const Graph& graph, const std::string& path);

/// Loads a snapshot written by SaveGraphSnapshot. The returned graph's
/// schema is already finalized. Counts and lengths read from the file are
/// checked against its size before anything is allocated for them; a
/// checksum that does not match the bytes is a ParseError.
Result<Graph> LoadGraphSnapshot(const std::string& path);

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `bytes`, continued from the
/// CRC `crc` of the bytes before them (0 to start).
uint32_t Crc32(std::string_view bytes, uint32_t crc = 0);

}  // namespace rdfopt

#endif  // RDFOPT_STORAGE_SNAPSHOT_H_
