#include "graph/mutation_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/fault.h"

namespace fairwos::graph {
namespace {

using common::AppendFloats;
using common::AppendU32;
using common::AppendU64;
using common::PayloadReader;

constexpr uint64_t kLogMagic = 0x46574D4Cull;  // "FWML"
constexpr uint64_t kLogVersion = 1;
constexpr size_t kHeaderBytes = 5 * sizeof(uint64_t) + sizeof(uint32_t);
// A record is one mutation; anything claiming more than this is a
// malformed length, not a real payload.
constexpr uint32_t kMaxRecordBytes = 1u << 24;

std::string SerializeHeader(const MutationLog::Header& h) {
  std::string out;
  out.reserve(kHeaderBytes);
  AppendU64(&out, (kLogMagic << 32) | kLogVersion);
  AppendU64(&out, h.base_seq);
  AppendU64(&out, static_cast<uint64_t>(h.base_nodes));
  AppendU64(&out, static_cast<uint64_t>(h.base_edges));
  AppendU64(&out, static_cast<uint64_t>(h.feature_dim));
  AppendU32(&out, common::Crc32(out.data(), out.size()));
  return out;
}

std::string SerializeRecord(const GraphMutation& m) {
  std::string payload;
  payload.reserve(20 + m.features.size() * sizeof(float));
  AppendU32(&payload, static_cast<uint32_t>(m.kind));
  AppendU64(&payload, static_cast<uint64_t>(m.u));
  AppendU64(&payload, static_cast<uint64_t>(m.v));
  AppendU32(&payload, static_cast<uint32_t>(m.features.size()));
  AppendFloats(&payload, m.features);
  std::string out;
  out.reserve(payload.size() + 2 * sizeof(uint32_t));
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  AppendU32(&out, common::Crc32(payload.data(), payload.size()));
  return out;
}

common::Result<GraphMutation> ParseRecordPayload(std::string_view payload,
                                                 int64_t index) {
  PayloadReader in(payload);
  uint32_t kind = 0, nfeat = 0;
  uint64_t u = 0, v = 0;
  if (!in.ReadU32(&kind) || !in.ReadU64(&u) || !in.ReadU64(&v) ||
      !in.ReadU32(&nfeat) ||
      in.remaining() != static_cast<size_t>(nfeat) * sizeof(float)) {
    return common::Status::IoError("mutation log record " +
                                   std::to_string(index) +
                                   " has a malformed payload");
  }
  if (kind > static_cast<uint32_t>(MutationKind::kRemoveEdge)) {
    return common::Status::IoError(
        "mutation log record " + std::to_string(index) +
        " names unknown mutation kind " + std::to_string(kind));
  }
  GraphMutation m;
  m.kind = static_cast<MutationKind>(kind);
  m.u = static_cast<int64_t>(u);
  m.v = static_cast<int64_t>(v);
  m.features.resize(nfeat);
  in.ReadFloats(&m.features);
  return m;
}

}  // namespace

MutationLog::MutationLog(std::string path, Header header)
    : path_(std::move(path)), header_(header) {}

MutationLog::~MutationLog() {
  if (fd_ >= 0) ::close(fd_);
}

common::Result<std::unique_ptr<MutationLog>> MutationLog::Create(
    const std::string& path, const Header& header) {
  const std::string bytes = SerializeHeader(header);
  FW_RETURN_IF_ERROR(common::WriteFileDurably(path, bytes));
  auto log = std::unique_ptr<MutationLog>(new MutationLog(path, header));
  log->bytes_ = static_cast<int64_t>(bytes.size());
  log->fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (log->fd_ < 0) {
    return common::Status::IoError("cannot open for append: " + path);
  }
  return log;
}

common::Result<MutationLog::ReplayResult> MutationLog::Replay(
    const std::string& path) {
  std::string bytes;
  FW_RETURN_IF_ERROR(common::ReadFile(path, &bytes));
  if (bytes.size() < kHeaderBytes) {
    return common::Status::IoError("mutation log header truncated: " + path);
  }
  PayloadReader in(bytes);
  uint64_t magic_version = 0, base_seq = 0, nodes = 0, edges = 0, fdim = 0;
  uint32_t header_crc = 0;
  in.ReadU64(&magic_version);
  in.ReadU64(&base_seq);
  in.ReadU64(&nodes);
  in.ReadU64(&edges);
  in.ReadU64(&fdim);
  const uint32_t crc_expected = common::Crc32(bytes.data(), in.position());
  in.ReadU32(&header_crc);
  if (magic_version != ((kLogMagic << 32) | kLogVersion)) {
    return common::Status::IoError("not a mutation log (bad magic): " + path);
  }
  if (header_crc != crc_expected) {
    return common::Status::IoError("mutation log header failed CRC: " + path);
  }
  ReplayResult result;
  result.header = {base_seq, static_cast<int64_t>(nodes),
                   static_cast<int64_t>(edges), static_cast<int64_t>(fdim)};
  result.valid_bytes = static_cast<int64_t>(in.position());
  while (!in.exhausted()) {
    uint32_t len = 0, crc = 0;
    std::string_view payload;
    if (!in.ReadU32(&len)) {
      result.torn_tail = true;  // partial length prefix at EOF
      break;
    }
    if (len > kMaxRecordBytes) {
      return common::Status::IoError(
          "mutation log record " + std::to_string(result.records.size()) +
          " claims " + std::to_string(len) + " bytes (malformed length)");
    }
    if (!in.ReadBytes(len, &payload) || !in.ReadU32(&crc)) {
      result.torn_tail = true;  // record cut off mid-write by a crash
      break;
    }
    if (crc != common::Crc32(payload.data(), payload.size())) {
      return common::Status::IoError(
          "mutation log record " + std::to_string(result.records.size()) +
          " failed CRC in " + path);
    }
    FW_ASSIGN_OR_RETURN(
        GraphMutation m,
        ParseRecordPayload(payload,
                           static_cast<int64_t>(result.records.size())));
    result.records.push_back(std::move(m));
    result.valid_bytes = static_cast<int64_t>(in.position());
  }
  return result;
}

common::Result<std::unique_ptr<MutationLog>> MutationLog::Open(
    const std::string& path, const ReplayResult& replay) {
  if (replay.torn_tail) {
    // Drop the unacknowledged partial record so new appends start on a
    // record boundary.
    std::error_code ec;
    std::filesystem::resize_file(
        path, static_cast<uint64_t>(replay.valid_bytes), ec);
    if (ec) {
      return common::Status::IoError("cannot drop torn tail of: " + path);
    }
  }
  auto log =
      std::unique_ptr<MutationLog>(new MutationLog(path, replay.header));
  log->records_ = static_cast<int64_t>(replay.records.size());
  log->bytes_ = replay.valid_bytes;
  log->fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (log->fd_ < 0) {
    return common::Status::IoError("cannot open for append: " + path);
  }
  return log;
}

common::Status MutationLog::AppendSerialized(const std::string& bytes,
                                             int64_t count) {
  if (auto* fi = testing::ActiveFaultInjector();
      fi != nullptr &&
      fi->ShouldFire(testing::FaultSite::kMutationLogAppend)) {
    return common::Status::Internal(
        "injected mutation-log append fault; mutation rejected, log and "
        "overlay untouched");
  }
  const int64_t before = bytes_;
  FW_CHECK_GE(fd_, 0);
  if (!common::WriteAll(fd_, bytes.data(), bytes.size())) {
    // A short write leaves a torn tail; roll it back so the file stays on
    // a record boundary (Replay would tolerate it either way).
    std::error_code ec;
    std::filesystem::resize_file(path_, static_cast<uint64_t>(before), ec);
    return common::Status::IoError("append failed: " + path_);
  }
  if (::fsync(fd_) != 0) {
    return common::Status::IoError("append fsync failed: " + path_);
  }
  last_append_bytes_ = before;
  bytes_ += static_cast<int64_t>(bytes.size());
  records_ += count;
  return common::Status::OK();
}

common::Status MutationLog::Append(const GraphMutation& m) {
  return AppendSerialized(SerializeRecord(m), 1);
}

common::Status MutationLog::AppendBatch(
    const std::vector<GraphMutation>& batch) {
  if (batch.empty()) return common::Status::OK();
  std::string bytes;
  for (const GraphMutation& m : batch) bytes += SerializeRecord(m);
  return AppendSerialized(bytes, static_cast<int64_t>(batch.size()));
}

common::Status MutationLog::RollbackLastAppend() {
  FW_CHECK_GE(last_append_bytes_, 0)
      << "RollbackLastAppend without a preceding append";
  std::error_code ec;
  std::filesystem::resize_file(
      path_, static_cast<uint64_t>(last_append_bytes_), ec);
  if (ec) {
    return common::Status::IoError("mutation log rollback failed: " + path_);
  }
  // The append fd's offset is implicit (O_APPEND); nothing to seek.
  if (fd_ >= 0) ::fsync(fd_);
  bytes_ = last_append_bytes_;
  records_ -= 1;  // single-record rollback (batch commits cannot fail)
  last_append_bytes_ = -1;
  return common::Status::OK();
}

common::Status MutationLog::Reset(const Header& header,
                                  const std::vector<GraphMutation>& carried) {
  std::string bytes = SerializeHeader(header);
  for (const GraphMutation& m : carried) bytes += SerializeRecord(m);
  FW_RETURN_IF_ERROR(common::WriteFileDurably(path_, bytes));
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return common::Status::IoError("cannot reopen for append: " + path_);
  }
  header_ = header;
  records_ = static_cast<int64_t>(carried.size());
  bytes_ = static_cast<int64_t>(bytes.size());
  last_append_bytes_ = -1;
  return common::Status::OK();
}

common::Status WriteGraphBase(const std::string& path,
                              const GraphBaseCheckpoint& base) {
  FW_CHECK(base.graph != nullptr);
  const Graph& g = *base.graph;
  std::string payload;
  payload.reserve(5 * sizeof(uint64_t) +
                  static_cast<size_t>(g.num_edges()) * 2 * sizeof(uint64_t) +
                  base.features.data().size() * sizeof(float));
  AppendU64(&payload, base.seq);
  AppendU64(&payload, static_cast<uint64_t>(base.folded));
  AppendU64(&payload, static_cast<uint64_t>(g.num_nodes()));
  AppendU64(&payload, static_cast<uint64_t>(g.num_edges()));
  AppendU64(&payload, static_cast<uint64_t>(
                          base.features.rank() == 2 ? base.features.dim(1) : 0));
  for (int64_t u = 0; u < g.num_nodes(); ++u) {
    for (int64_t v : g.Neighbors(u)) {
      if (v > u) {
        AppendU64(&payload, static_cast<uint64_t>(u));
        AppendU64(&payload, static_cast<uint64_t>(v));
      }
    }
  }
  AppendFloats(&payload, base.features.data());
  return common::WriteCheckpointEnvelope(path, common::kGraphBaseVersion,
                                         std::move(payload));
}

common::Result<GraphBaseCheckpoint> ReadGraphBase(const std::string& path) {
  std::string payload;
  FW_RETURN_IF_ERROR(common::ReadCheckpointEnvelope(
      path, common::kGraphBaseVersion, &payload));
  PayloadReader in(payload);
  uint64_t seq = 0, folded = 0, nodes = 0, edges = 0, fdim = 0;
  const bool header_ok = in.ReadU64(&seq) && in.ReadU64(&folded) &&
                         in.ReadU64(&nodes) && in.ReadU64(&edges) &&
                         in.ReadU64(&fdim);
  // Division-based so that no corrupt count can overflow the size check.
  const size_t edge_bytes = 2 * sizeof(uint64_t);
  if (!header_ok || edges > in.remaining() / edge_bytes ||
      (fdim != 0 && nodes > in.remaining() / sizeof(float) / fdim) ||
      edges * edge_bytes + nodes * fdim * sizeof(float) != in.remaining()) {
    return common::Status::IoError("graph-base payload malformed: " + path);
  }
  Graph g(static_cast<int64_t>(nodes));
  for (uint64_t i = 0; i < edges; ++i) {
    uint64_t u = 0, v = 0;
    in.ReadU64(&u);
    in.ReadU64(&v);
    // Range-check before AddEdge: a corrupt id must reject with a Status,
    // not trip AddEdge's FW_CHECKs.
    if (u >= nodes || v >= nodes ||
        !g.AddEdge(static_cast<int64_t>(u), static_cast<int64_t>(v))) {
      return common::Status::IoError("graph-base edge list invalid: " + path);
    }
  }
  std::vector<float> feat(nodes * fdim);
  in.ReadFloats(&feat);
  GraphBaseCheckpoint out;
  out.seq = seq;
  out.folded = static_cast<int64_t>(folded);
  out.graph = std::make_shared<const Graph>(std::move(g));
  out.features = tensor::Tensor::FromVector(
      {static_cast<int64_t>(nodes), static_cast<int64_t>(fdim)},
      std::move(feat));
  return out;
}

}  // namespace fairwos::graph
