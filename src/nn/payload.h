// Byte-level payload primitives shared by every FWCP envelope payload: the
// v2 module and v3 train-state checkpoints (nn/checkpoint.cc) and the v4
// frozen-model artifact (serve/artifact.cc). Append* build a little-endian
// payload string; PayloadReader parses one back with bounds checking, so a
// corrupt length field never turns into a huge allocation or an
// out-of-bounds read.
#ifndef FAIRWOS_NN_PAYLOAD_H_
#define FAIRWOS_NN_PAYLOAD_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fairwos::nn {

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

/// Bounds-checked sequential reads from a CRC-verified payload buffer.
/// Every Read* returns false instead of reading past the end; the sized
/// variants validate the element count against the remaining bytes before
/// allocating.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& buffer) : buffer_(buffer) {}

  bool ReadU64(uint64_t* v) {
    if (remaining() < sizeof(*v)) return false;
    std::memcpy(v, buffer_.data() + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return true;
  }

  bool ReadF32(float* v) {
    if (remaining() < sizeof(*v)) return false;
    std::memcpy(v, buffer_.data() + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return true;
  }

  bool ReadF64(double* v) {
    if (remaining() < sizeof(*v)) return false;
    std::memcpy(v, buffer_.data() + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return true;
  }

  bool ReadFloats(std::vector<float>* out) {
    const size_t bytes = out->size() * sizeof(float);
    if (remaining() < bytes) return false;
    std::memcpy(out->data(), buffer_.data() + pos_, bytes);
    pos_ += bytes;
    return true;
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

  /// u64 byte count followed by the raw bytes (pairs with AppendString).
  bool ReadString(std::string* out) {
    uint64_t n = 0;
    if (!ReadU64(&n)) return false;
    if (remaining() < n) return false;
    out->assign(buffer_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return buffer_.size() - pos_; }
  bool exhausted() const { return pos_ == buffer_.size(); }

 private:
  const std::string& buffer_;
  size_t pos_ = 0;
};

}  // namespace fairwos::nn

#endif  // FAIRWOS_NN_PAYLOAD_H_
