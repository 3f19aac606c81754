// Durable append-only mutation log for graph::MutableGraph
// (docs/serving.md "Dynamic graphs"): the write-ahead record of every
// accepted overlay mutation, so a crashed server can replay the overlay it
// had not yet compacted. Whole-file writes, the append loop and the byte
// codec come from the shared durable-file layer (common/durable_file.h).
//
// On-disk layout (little-endian, packed):
//   header   u64 magic|version ("FWML" << 32 | 1), u64 base_seq,
//            u64 base_nodes, u64 base_edges, u64 feature_dim,
//            u32 crc32(previous 40 bytes)
//   record*  u32 payload_bytes, payload, u32 crc32(payload)
//   payload  u32 kind, i64 u, i64 v, u32 feature_count, f32[feature_count]
//
// Durability contract:
//   * Append/AppendBatch fsync before returning OK — a mutation is only
//     acknowledged once its record is on stable storage. The
//     kMutationLogAppend fault site is probed first; an injected fault
//     rejects the mutation with Internal and leaves the file untouched.
//   * Replay tolerates a torn tail (a crash mid-append leaves a partial
//     final record for a mutation that was never acknowledged — it is
//     dropped and reported via `torn_tail`), but any CRC mismatch or
//     malformed complete record is rejected with a precise IoError: a
//     corrupt log must never replay garbage into a serving graph.
//   * Reset() atomically replaces the log with a new generation header plus
//     the mutations a compaction carried over (common::WriteFileDurably) —
//     the log-truncation half of the compact lifecycle.
//
// The `base_seq` generation counter ties the log to the graph base it
// replays against. Generation 0 is the construction-time base; every
// successful MutableGraph::Compact() writes the merged base to `<log>.base`
// as an FWCP v5 envelope (WriteGraphBase, seq = generation + 1, `folded` =
// the count of this generation's records it absorbed) and then Resets the
// log to the next generation. MutableGraph::Recover() stitches the two
// files back together across every crash window (mutable_graph.cc
// documents the case analysis).
#ifndef FAIRWOS_GRAPH_MUTATION_LOG_H_
#define FAIRWOS_GRAPH_MUTATION_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "tensor/tensor.h"

namespace fairwos::graph {

class MutationLog {
 public:
  /// Generation header: which base the records replay against, and the
  /// shape that base must have (validated at recovery).
  struct Header {
    uint64_t base_seq = 0;
    int64_t base_nodes = 0;
    int64_t base_edges = 0;
    int64_t feature_dim = 0;
  };

  /// Everything Replay() learned from the file.
  struct ReplayResult {
    Header header;
    std::vector<GraphMutation> records;
    /// Bytes of header + complete records; a torn tail (if any) lies past
    /// this offset and is discarded by Open().
    int64_t valid_bytes = 0;
    /// True when the file ended inside a record — the fingerprint of a
    /// crash mid-append. The partial record was never acknowledged.
    bool torn_tail = false;
  };

  ~MutationLog();
  MutationLog(const MutationLog&) = delete;
  MutationLog& operator=(const MutationLog&) = delete;

  /// Creates a fresh log at `path` (truncating any existing file), writes
  /// the generation header durably, and returns the log open for append.
  static common::Result<std::unique_ptr<MutationLog>> Create(
      const std::string& path, const Header& header);

  /// Parses `path`: header, every complete record (CRC-verified), and
  /// whether a torn tail follows. Rejects a missing file, a bad magic or
  /// header CRC, and any corrupt complete record with a precise Status.
  static common::Result<ReplayResult> Replay(const std::string& path);

  /// Opens an existing, already-Replay()ed log for append. Truncates the
  /// file to `replay.valid_bytes` first, dropping any torn tail.
  static common::Result<std::unique_ptr<MutationLog>> Open(
      const std::string& path, const ReplayResult& replay);

  /// Appends one record and fsyncs. Probes kMutationLogAppend first: an
  /// injected fault returns Internal with the file untouched.
  common::Status Append(const GraphMutation& m);

  /// Appends `batch` as one write + one fsync (all records durable or, on
  /// error, the file rolled back to its previous size). One
  /// kMutationLogAppend probe per call.
  common::Status AppendBatch(const std::vector<GraphMutation>& batch);

  /// Truncates the file back to before the most recent successful
  /// Append/AppendBatch — the undo path for a mutation the overlay then
  /// refused (only an injected kGraphDeltaApply fault can cause that; real
  /// applies are pre-validated).
  common::Status RollbackLastAppend();

  /// Atomically replaces the log with a new generation: `header` plus
  /// `carried` (the mutations a compaction replayed onto its new base).
  /// On success the log continues appending to the new generation.
  common::Status Reset(const Header& header,
                       const std::vector<GraphMutation>& carried);

  const std::string& path() const { return path_; }
  const Header& header() const { return header_; }
  /// Records in the current generation's file (including carried-over ones).
  int64_t records() const { return records_; }
  int64_t bytes() const { return bytes_; }

 private:
  MutationLog(std::string path, Header header);

  common::Status AppendSerialized(const std::string& bytes, int64_t count);

  std::string path_;
  Header header_;
  int fd_ = -1;  // O_APPEND fd
  int64_t records_ = 0;
  int64_t bytes_ = 0;
  int64_t last_append_bytes_ = -1;  // file size before the last append
};

/// A durable checkpoint of a compacted merged base: the graph, its feature
/// matrix, the log generation it supersedes (`seq` = generation + 1), and
/// `folded` — how many records of that generation it absorbed.
///
/// On disk it is an FWCP envelope of version 5 (common::kGraphBaseVersion)
/// whose payload is u64 seq, u64 folded, u64 nodes, u64 edges,
/// u64 feature_dim, then u64 (u, v) per undirected edge with u < v, then
/// nodes x feature_dim f32 features. ReadGraphBase reports the envelope's
/// Status codes (InvalidArgument for a wrong magic or version, IoError for
/// damage) and IoError for a payload that does not describe a valid graph.
struct GraphBaseCheckpoint {
  uint64_t seq = 0;
  int64_t folded = 0;
  std::shared_ptr<const Graph> graph;
  tensor::Tensor features;
};

common::Status WriteGraphBase(const std::string& path,
                              const GraphBaseCheckpoint& base);
common::Result<GraphBaseCheckpoint> ReadGraphBase(const std::string& path);

}  // namespace fairwos::graph

#endif  // FAIRWOS_GRAPH_MUTATION_LOG_H_
