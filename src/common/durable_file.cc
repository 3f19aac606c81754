#include "common/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/telemetry.h"

namespace fairwos::common {
namespace {

constexpr uint32_t kMagic = 0x46574350;  // "FWCP"
constexpr size_t kEnvelopeHeaderBytes = 3 * sizeof(uint64_t);

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

/// Opens `path` for a bulk read and reports its size. Anything but a regular
/// file (a directory, a FIFO, a missing path) is an IoError here, before a
/// byte is read or a buffer sized from it.
Status OpenRegularFile(const std::string& path, std::ifstream* in,
                       uint64_t* size) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::IoError("cannot open for read (not a regular file): " +
                           path);
  }
  *size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat: " + path);
  in->open(path, std::ios::binary);
  if (!*in) return Status::IoError("cannot open for read: " + path);
  return Status::OK();
}

}  // namespace

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

Status WriteFileDurably(const std::string& path, std::string_view head,
                        std::string_view body) {
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("cannot open for write: " + tmp_path);
  if (!WriteAll(fd, head.data(), head.size()) ||
      !WriteAll(fd, body.data(), body.size()) || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::IoError("write failed: " + tmp_path);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::IoError("close failed: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  // Flush the rename itself: without a directory fsync the new entry can
  // still be lost to a power cut. Opening a directory read-only can fail on
  // exotic filesystems — skip silently then; an fsync error on an open
  // directory fd is a real durability failure and is reported.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    const bool synced = ::fsync(dfd) == 0;
    ::close(dfd);
    if (!synced) return Status::IoError("directory fsync failed for: " + path);
  }
  return Status::OK();
}

Status ReadFile(const std::string& path, std::string* bytes) {
  std::ifstream in;
  uint64_t size = 0;
  FW_RETURN_IF_ERROR(OpenRegularFile(path, &in, &size));
  bytes->resize(size);
  if (!in.read(bytes->data(), static_cast<std::streamsize>(size))) {
    return Status::IoError("read failed: " + path);
  }
  return Status::OK();
}

Status WriteCheckpointEnvelope(const std::string& path, uint32_t version,
                               std::string payload) {
  const uint64_t payload_size = payload.size();
  const uint32_t crc = Crc32(payload.data(), payload.size());
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
          .Set("bytes", static_cast<int64_t>(header.size() + payload.size())));
  return Status::OK();
}

Status ReadCheckpointEnvelope(const std::string& path,
                              uint32_t expected_version, std::string* payload) {
  std::ifstream in;
  uint64_t file_size = 0;
  FW_RETURN_IF_ERROR(OpenRegularFile(path, &in, &file_size));
  // The header is authenticated before anything is allocated: a wrong file
  // (or a flipped size field) is refused without reading its body.
  char header[kEnvelopeHeaderBytes];
  if (!in.read(header, sizeof(header))) {
    return Status::IoError("truncated checkpoint header: " + path);
  }
  PayloadReader fields(std::string_view(header, sizeof(header)));
  uint64_t magic_version = 0, payload_size = 0, crc_expected = 0;
  fields.ReadU64(&magic_version);
  fields.ReadU64(&payload_size);
  fields.ReadU64(&crc_expected);
  if ((magic_version >> 32) != kMagic) {
    return Status::InvalidArgument("not a Fairwos checkpoint: " + path);
  }
  if ((magic_version & 0xFFFFFFFFu) != expected_version) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " +
        std::to_string(magic_version & 0xFFFFFFFFu) + " (expected " +
        std::to_string(expected_version) + "): " + path);
  }
  const uint64_t body_size = file_size - kEnvelopeHeaderBytes;
  if (payload_size != body_size) {
    return Status::IoError("checkpoint size mismatch: header promises " +
                           std::to_string(payload_size) +
                           " payload bytes, file has " +
                           std::to_string(body_size) + ": " + path);
  }
  std::string bytes(body_size, '\0');
  if (!in.read(bytes.data(), static_cast<std::streamsize>(body_size))) {
    return Status::IoError("truncated checkpoint: " + path);
  }
  MaybeCorruptAfterRead(&bytes);
  // All 64 bits: the writer zero-extends the CRC-32, so a set bit in the
  // high word is corruption like any other.
  if (Crc32(bytes.data(), bytes.size()) != crc_expected) {
    return Status::IoError("checkpoint CRC mismatch (corrupt file): " + path);
  }
  *payload = std::move(bytes);
  return Status::OK();
}

}  // namespace fairwos::common
