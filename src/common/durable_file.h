// Durable files: the one layer every on-disk format of this repo is written
// and read through (docs/robustness.md).
//
//   * WriteFileDurably replaces a whole file atomically AND durably: the
//     bytes go to `<path>.tmp`, are flushed to stable storage (fsync), the
//     tmp file is renamed into place, and the directory entry is flushed —
//     a crash at any instant leaves either the old file or the complete new
//     one, never a torn file. WriteAll is its full-write loop, also used by
//     the mutation log's appends.
//
//   * The FWCP envelope (little-endian) frames every checkpoint-family file:
//       u64  (magic "FWCP" << 32) | version
//       u64  payload byte size
//       u64  CRC-32 of the payload (zero-extended: a non-zero high word is
//            corruption)
//       payload
//     ReadCheckpointEnvelope authenticates the magic, the exact version, the
//     size field and all 64 CRC bits before any byte reaches the caller, and
//     never aborts on malformed input: the 24-byte header is checked before
//     the payload is read or allocated. Both directions carry the
//     fairwos::testing fault hooks (kCheckpointFlip / kCheckpointTruncate on
//     write, kCheckpointRead on read); every successful write ticks the
//     `checkpoint.saves` counter and emits one `checkpoint_save` event.
//
//   * The payload codec: Append* build a little-endian payload string;
//     PayloadReader parses one back with bounds checking, so a corrupt
//     length field never turns into a huge allocation or an out-of-bounds
//     read.
//
// Status codes returned by the readers:
//   InvalidArgument  wrong magic or unsupported version
//   IoError          not a regular file, unreadable, truncated,
//                    size-mismatched, or CRC-mismatched (corrupt) file
#ifndef FAIRWOS_COMMON_DURABLE_FILE_H_
#define FAIRWOS_COMMON_DURABLE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fairwos::common {

// --------------------------------------------------------------------------
// Atomic durable writes
// --------------------------------------------------------------------------

/// Writes all `size` bytes to `fd`, retrying short writes and EINTR.
bool WriteAll(int fd, const char* data, size_t size);

/// Replaces `path` with `head` followed by `body`: tmp file + fsync + rename
/// + directory fsync. IoError (and no tmp file left behind) on any failure.
/// Two pieces so a caller that frames a large body never copies it.
Status WriteFileDurably(const std::string& path, std::string_view head,
                        std::string_view body = {});

/// Reads the whole file into `bytes`; IoError when `path` is not a regular
/// file or cannot be read.
Status ReadFile(const std::string& path, std::string* bytes);

// --------------------------------------------------------------------------
// FWCP envelope
// --------------------------------------------------------------------------

/// Envelope versions in use. Each reader accepts exactly one of them.
inline constexpr uint32_t kTrainStateCheckpointVersion = 3;  // nn/checkpoint.h
inline constexpr uint32_t kModelArtifactVersion = 4;         // serve/artifact.h
inline constexpr uint32_t kGraphBaseVersion = 5;  // graph/mutation_log.h

/// Writes `payload` to `path` inside the FWCP header through
/// WriteFileDurably. Carries the write-path fault hooks.
Status WriteCheckpointEnvelope(const std::string& path, uint32_t version,
                               std::string payload);

/// Reads and authenticates an FWCP file of exactly `expected_version`.
/// `payload` is written only on success. Carries the read-path fault hook.
Status ReadCheckpointEnvelope(const std::string& path,
                              uint32_t expected_version, std::string* payload);

// --------------------------------------------------------------------------
// Payload codec
// --------------------------------------------------------------------------

inline void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void AppendF32(std::string* out, float v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void AppendF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Works for std::vector<float> with any allocator, e.g. the 64-byte-aligned
/// tensor::FloatBuffer behind tensor storage.
template <typename FloatContainer>
inline void AppendFloats(std::string* out, const FloatContainer& v) {
  static_assert(sizeof(typename FloatContainer::value_type) == sizeof(float));
  out->append(reinterpret_cast<const char*>(v.data()),
              v.size() * sizeof(float));
}

/// u64 byte count followed by the raw bytes.
inline void AppendString(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  out->append(s);
}

/// Bounds-checked sequential reads from a byte buffer the reader does not
/// own. Every Read* returns false instead of reading past the end; the sized
/// variants validate the element count against the remaining bytes before
/// allocating.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view buffer) : buffer_(buffer) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF32(float* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }

  /// Fills `out` to its current size.
  bool ReadFloats(std::vector<float>* out) {
    return ReadRaw(out->data(), out->size() * sizeof(float));
  }

  /// u64 element count followed by that many floats. The count is validated
  /// against the remaining payload before the allocation, so a flipped size
  /// field never becomes a huge alloc.
  bool ReadSizedFloats(std::vector<float>* out) {
    uint64_t n = 0;
    if (!ReadU64(&n)) return false;
    if (remaining() / sizeof(float) < n) return false;
    out->resize(n);
    return ReadFloats(out);
  }

  /// The next `n` bytes, as a view into the buffer.
  bool ReadBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = buffer_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// u64 byte count followed by the raw bytes (pairs with AppendString).
  bool ReadString(std::string* out) {
    uint64_t n = 0;
    std::string_view bytes;
    if (!ReadU64(&n) || !ReadBytes(n, &bytes)) return false;
    out->assign(bytes);
    return true;
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return buffer_.size() - pos_; }
  bool exhausted() const { return pos_ == buffer_.size(); }

 private:
  bool ReadRaw(void* out, size_t bytes) {
    if (remaining() < bytes) return false;
    if (bytes > 0) std::memcpy(out, buffer_.data() + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  std::string_view buffer_;
  size_t pos_ = 0;
};

}  // namespace fairwos::common

#endif  // FAIRWOS_COMMON_DURABLE_FILE_H_
