#include "nn/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "nn/payload.h"

namespace fairwos::nn {
namespace {

constexpr uint32_t kMagic = 0x46574350;  // "FWCP"
constexpr uint32_t kTrainStateVersion = kTrainStateCheckpointVersion;
constexpr size_t kHeaderBytes = 3 * sizeof(uint64_t);

constexpr char kRotationPrefix[] = "state-";
constexpr char kRotationSuffix[] = ".fwck";

/// Fault-injection sites modelling a failing disk on the write path: the
/// checksum is computed from the intended bytes *before* these run, so
/// either corruption is caught at load time.
void MaybeCorruptForSave(std::string* payload) {
  auto* fi = testing::ActiveFaultInjector();
  if (fi == nullptr) return;
  if (!payload->empty() &&
      fi->ShouldFire(testing::FaultSite::kCheckpointFlip)) {
    const auto offset = static_cast<size_t>(
        fi->rng()->UniformInt(static_cast<int64_t>(payload->size())));
    (*payload)[offset] = static_cast<char>((*payload)[offset] ^
                                           (1 << fi->rng()->UniformInt(8)));
  }
  if (fi->ShouldFire(testing::FaultSite::kCheckpointTruncate)) {
    payload->resize(payload->size() / 2);
  }
}

/// Fault-injection site modelling a corrupt read (bus error, bitrot that
/// beat the write-side checks): flips one bit in the buffer read back from
/// disk, before the CRC verification that must then reject it.
void MaybeCorruptAfterRead(std::string* payload) {
  auto* fi = testing::ActiveFaultInjector();
  if (fi == nullptr || payload->empty()) return;
  if (fi->ShouldFire(testing::FaultSite::kCheckpointRead)) {
    const auto offset = static_cast<size_t>(
        fi->rng()->UniformInt(static_cast<int64_t>(payload->size())));
    (*payload)[offset] = static_cast<char>((*payload)[offset] ^
                                           (1 << fi->rng()->UniformInt(8)));
  }
}

#if !defined(_WIN32)
bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}
#endif

/// Writes header+payload to `path` atomically and durably: the bytes are
/// flushed to stable storage (fsync) *before* the rename, and the directory
/// entry is flushed after it — a crash at any instant leaves either the old
/// file or the complete new one, never a truncated rename target.
common::Status WriteFileDurably(const std::string& path,
                                const std::string& header,
                                const std::string& payload) {
  const std::string tmp_path = path + ".tmp";
#if defined(_WIN32)
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return common::Status::IoError("cannot open for write: " + tmp_path);
    }
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp_path.c_str());
      return common::Status::IoError("write failed: " + tmp_path);
    }
  }
#else
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return common::Status::IoError("cannot open for write: " + tmp_path);
  }
  if (!WriteAll(fd, header.data(), header.size()) ||
      !WriteAll(fd, payload.data(), payload.size()) || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return common::Status::IoError("write failed: " + tmp_path);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return common::Status::IoError("close failed: " + tmp_path);
  }
#endif
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return common::Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
#if !defined(_WIN32)
  // Flush the rename itself: without a directory fsync the new entry can
  // still be lost to a power cut. Opening a directory read-only can fail on
  // exotic filesystems — skip silently then; an fsync error on an open
  // directory fd is a real durability failure and is reported.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    const bool synced = ::fsync(dfd) == 0;
    ::close(dfd);
    if (!synced) {
      return common::Status::IoError("directory fsync failed for: " + path);
    }
  }
#endif
  return common::Status::OK();
}

}  // namespace

common::Status ReadCheckpointEnvelope(const std::string& path,
                                      uint32_t expected_version,
                                      std::string* payload) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return common::Status::IoError("cannot open for read: " + path);

  char header[kHeaderBytes];
  in.read(header, static_cast<std::streamsize>(kHeaderBytes));
  if (!in) {
    return common::Status::IoError("truncated checkpoint header: " + path);
  }
  uint64_t magic_version = 0, payload_size = 0, crc_expected = 0;
  std::memcpy(&magic_version, header, sizeof(uint64_t));
  std::memcpy(&payload_size, header + sizeof(uint64_t), sizeof(uint64_t));
  std::memcpy(&crc_expected, header + 2 * sizeof(uint64_t), sizeof(uint64_t));
  if ((magic_version >> 32) != kMagic) {
    return common::Status::InvalidArgument("not a Fairwos checkpoint: " + path);
  }
  if ((magic_version & 0xFFFFFFFFu) != expected_version) {
    return common::Status::InvalidArgument(
        "unsupported checkpoint version " +
        std::to_string(magic_version & 0xFFFFFFFFu) + " (expected " +
        std::to_string(expected_version) + "): " + path);
  }

  // Validate the (untrusted) size field against the real file size before
  // allocating anything — a flipped bit in it must not become a huge alloc.
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  if (payload_size != file_size - kHeaderBytes) {
    return common::Status::IoError(
        "checkpoint size mismatch: header promises " +
        std::to_string(payload_size) + " payload bytes, file has " +
        std::to_string(file_size - kHeaderBytes) + ": " + path);
  }
  in.seekg(static_cast<std::streamoff>(kHeaderBytes));
  payload->assign(payload_size, '\0');
  in.read(payload->data(), static_cast<std::streamsize>(payload_size));
  if (static_cast<uint64_t>(in.gcount()) != payload_size) {
    return common::Status::IoError("truncated checkpoint: " + path);
  }
  MaybeCorruptAfterRead(payload);
  const uint32_t crc_actual = common::Crc32(payload->data(), payload->size());
  if (crc_actual != static_cast<uint32_t>(crc_expected)) {
    return common::Status::IoError("checkpoint CRC mismatch (corrupt file): " +
                                   path);
  }
  return common::Status::OK();
}

common::Status WriteCheckpointEnvelope(const std::string& path,
                                       uint32_t version, std::string payload) {
  const uint64_t payload_size = payload.size();
  const uint32_t crc = common::Crc32(payload.data(), payload.size());
  MaybeCorruptForSave(&payload);
  std::string header;
  AppendU64(&header, (static_cast<uint64_t>(kMagic) << 32) | version);
  AppendU64(&header, payload_size);
  AppendU64(&header, crc);
  FW_RETURN_IF_ERROR(WriteFileDurably(path, header, payload));
  obs::MetricsRegistry::Global().GetCounter("checkpoint.saves")->Increment();
  obs::EmitEvent(
      obs::Event("checkpoint_save")
          .Set("path", path)
          .Set("version", static_cast<int64_t>(version))
          .Set("bytes", static_cast<int64_t>(kHeaderBytes + payload.size())));
  return common::Status::OK();
}

common::Status CheckParamsCompatible(
    const std::vector<tensor::Tensor>& params,
    const std::vector<std::vector<float>>& saved, const char* what) {
  if (saved.size() != params.size()) {
    return common::Status::FailedPrecondition(
        std::string("checkpoint ") + what + " holds " +
        std::to_string(saved.size()) + " tensors, model has " +
        std::to_string(params.size()));
  }
  for (size_t i = 0; i < saved.size(); ++i) {
    if (saved[i].size() != params[i].data().size()) {
      return common::Status::FailedPrecondition(
          std::string("checkpoint ") + what + " tensor " + std::to_string(i) +
          " has " + std::to_string(saved[i].size()) + " values, model wants " +
          std::to_string(params[i].data().size()));
    }
  }
  return common::Status::OK();
}

namespace {

/// Parses the rotation sequence number out of a `state-<seq>.fwck`
/// filename; returns -1 for anything else.
int64_t ParseRotationSeq(const std::string& filename) {
  const size_t prefix_len = sizeof(kRotationPrefix) - 1;
  const size_t suffix_len = sizeof(kRotationSuffix) - 1;
  if (filename.size() <= prefix_len + suffix_len ||
      filename.compare(0, prefix_len, kRotationPrefix) != 0 ||
      filename.compare(filename.size() - suffix_len, suffix_len,
                       kRotationSuffix) != 0) {
    return -1;
  }
  int64_t seq = 0;
  for (size_t i = prefix_len; i < filename.size() - suffix_len; ++i) {
    if (filename[i] < '0' || filename[i] > '9') return -1;
    seq = seq * 10 + (filename[i] - '0');
  }
  return seq;
}

}  // namespace

common::Status SaveTrainState(const std::string& path,
                              const TrainState& state) {
  FW_TRACE_SPAN("checkpoint/save_train_state");
  FW_CHECK_EQ(state.optimizer.moment1.size(), state.optimizer.moment2.size());
  std::string payload;
  AppendU64(&payload, static_cast<uint64_t>(state.phase));
  AppendU64(&payload, static_cast<uint64_t>(state.epoch));
  for (uint64_t w : state.rng.words) AppendU64(&payload, w);
  AppendU64(&payload, state.rng.has_cached_normal ? 1 : 0);
  AppendF64(&payload, state.rng.cached_normal);
  AppendF32(&payload, state.optimizer.lr);
  AppendF32(&payload, state.optimizer.max_grad_norm);
  AppendU64(&payload, static_cast<uint64_t>(state.optimizer.step_count));
  AppendU64(&payload, state.optimizer.moment1.size());
  for (size_t i = 0; i < state.optimizer.moment1.size(); ++i) {
    FW_CHECK_EQ(state.optimizer.moment1[i].size(),
                state.optimizer.moment2[i].size());
    AppendU64(&payload, state.optimizer.moment1[i].size());
    AppendFloats(&payload, state.optimizer.moment1[i]);
    AppendFloats(&payload, state.optimizer.moment2[i]);
  }
  for (const auto* section : {&state.params, &state.blobs}) {
    AppendU64(&payload, section->size());
    for (const auto& v : *section) {
      AppendU64(&payload, v.size());
      AppendFloats(&payload, v);
    }
  }
  AppendU64(&payload, state.scalars.size());
  for (double s : state.scalars) AppendF64(&payload, s);
  AppendU64(&payload, state.counters.size());
  for (int64_t c : state.counters) {
    AppendU64(&payload, static_cast<uint64_t>(c));
  }
  return WriteCheckpointEnvelope(path, kTrainStateVersion, std::move(payload));
}

common::Status LoadTrainState(const std::string& path, TrainState* state) {
  FW_CHECK(state != nullptr);
  std::string payload;
  FW_RETURN_IF_ERROR(ReadCheckpointEnvelope(path, kTrainStateVersion, &payload));

  const auto malformed = [&path](const std::string& what) {
    return common::Status::IoError("payload ends inside " + what + ": " + path);
  };
  PayloadReader reader(payload);
  TrainState staged;
  uint64_t u = 0;
  if (!reader.ReadU64(&u)) return malformed("phase");
  staged.phase = static_cast<int64_t>(u);
  if (!reader.ReadU64(&u)) return malformed("epoch");
  staged.epoch = static_cast<int64_t>(u);
  for (auto& w : staged.rng.words) {
    if (!reader.ReadU64(&w)) return malformed("rng state");
  }
  if (!reader.ReadU64(&u)) return malformed("rng state");
  staged.rng.has_cached_normal = u != 0;
  if (!reader.ReadF64(&staged.rng.cached_normal)) return malformed("rng state");
  if (!reader.ReadF32(&staged.optimizer.lr) ||
      !reader.ReadF32(&staged.optimizer.max_grad_norm) ||
      !reader.ReadU64(&u)) {
    return malformed("optimizer state");
  }
  staged.optimizer.step_count = static_cast<int64_t>(u);
  uint64_t slots = 0;
  if (!reader.ReadU64(&slots)) return malformed("optimizer state");
  // The slot count is bounded by the payload itself (each slot costs at
  // least one u64), so a corrupt count cannot drive a huge reserve.
  if (slots > reader.remaining() / sizeof(uint64_t)) {
    return malformed("optimizer moments");
  }
  staged.optimizer.moment1.resize(slots);
  staged.optimizer.moment2.resize(slots);
  for (uint64_t i = 0; i < slots; ++i) {
    uint64_t n = 0;
    if (!reader.ReadU64(&n)) return malformed("optimizer moments");
    if (reader.remaining() / sizeof(float) < 2 * n) {
      return malformed("optimizer moments");
    }
    staged.optimizer.moment1[i].resize(n);
    staged.optimizer.moment2[i].resize(n);
    if (!reader.ReadFloats(&staged.optimizer.moment1[i]) ||
        !reader.ReadFloats(&staged.optimizer.moment2[i])) {
      return malformed("optimizer moments");
    }
  }
  for (auto* section : {&staged.params, &staged.blobs}) {
    uint64_t count = 0;
    if (!reader.ReadU64(&count)) return malformed("tensor section");
    if (count > reader.remaining() / sizeof(uint64_t)) {
      return malformed("tensor section");
    }
    section->resize(count);
    for (auto& v : *section) {
      if (!reader.ReadSizedFloats(&v)) return malformed("tensor section");
    }
  }
  uint64_t count = 0;
  if (!reader.ReadU64(&count)) return malformed("scalars");
  if (count > reader.remaining() / sizeof(double)) return malformed("scalars");
  staged.scalars.resize(count);
  for (auto& s : staged.scalars) {
    if (!reader.ReadF64(&s)) return malformed("scalars");
  }
  if (!reader.ReadU64(&count)) return malformed("counters");
  if (count > reader.remaining() / sizeof(uint64_t)) {
    return malformed("counters");
  }
  staged.counters.resize(count);
  for (auto& c : staged.counters) {
    if (!reader.ReadU64(&u)) return malformed("counters");
    c = static_cast<int64_t>(u);
  }
  if (!reader.exhausted()) {
    return common::Status::IoError("payload has trailing bytes: " + path);
  }
  *state = std::move(staged);
  return common::Status::OK();
}

CheckpointRotation::CheckpointRotation(std::string dir, int64_t keep)
    : dir_(std::move(dir)), keep_(keep) {
  FW_CHECK(!dir_.empty());
  FW_CHECK_GE(keep_, 1);
}

std::vector<std::string> CheckpointRotation::ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const int64_t seq = ParseRotationSeq(entry.path().filename().string());
    if (seq >= 0) found.emplace_back(seq, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [seq, path] : found) paths.push_back(std::move(path));
  return paths;
}

common::Status CheckpointRotation::Save(const TrainState& state) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return common::Status::IoError("cannot create checkpoint dir " + dir_ +
                                   ": " + ec.message());
  }
  if (next_seq_ < 0) {
    next_seq_ = 0;
    for (const auto& path : ListCheckpoints(dir_)) {
      const int64_t seq =
          ParseRotationSeq(std::filesystem::path(path).filename().string());
      if (seq >= next_seq_) next_seq_ = seq + 1;
    }
  }
  const std::string path =
      dir_ + "/" + kRotationPrefix +
      common::StrFormat("%06lld", static_cast<long long>(next_seq_)) +
      kRotationSuffix;
  FW_RETURN_IF_ERROR(SaveTrainState(path, state));
  ++next_seq_;
  auto existing = ListCheckpoints(dir_);
  for (size_t i = 0;
       i + static_cast<size_t>(keep_) < existing.size(); ++i) {
    std::filesystem::remove(existing[i], ec);  // best-effort prune
  }
  return common::Status::OK();
}

common::Result<TrainState> CheckpointRotation::LoadLatestValid() {
  auto files = ListCheckpoints(dir_);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    TrainState state;
    const common::Status status = LoadTrainState(*it, &state);
    if (status.ok()) {
      last_loaded_path_ = *it;
      return state;
    }
    // A torn or corrupt newer checkpoint is exactly what the rotation is
    // for: fall back to the previous slot, loudly.
    FW_LOG(Warning) << "checkpoint " << *it
                    << " is unusable, falling back to the previous slot: "
                    << status.ToString();
    obs::MetricsRegistry::Global().GetCounter("resume.fallbacks")->Increment();
    obs::EmitEvent(obs::Event("resume_fallback")
                       .Set("path", *it)
                       .Set("reason", status.ToString()));
  }
  return common::Status::NotFound("no valid checkpoint in " + dir_);
}

}  // namespace fairwos::nn
