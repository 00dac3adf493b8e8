// Little-endian byte (de)serialization used by the HOF object format, the HXE load-image
// format, and SFS persistence.
#ifndef SRC_BASE_BYTES_H_
#define SRC_BASE_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace hemlock {

// Appends fixed-width little-endian values and length-prefixed blobs to a buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  // Sizes the buffer for |n| more bytes up front, so a writer whose output size
  // is known (or bounded) fills one allocation instead of growing by doubling.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v));
    U16(static_cast<uint16_t>(v >> 16));
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }

  // 32-bit length prefix followed by raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void Bytes(std::span<const uint8_t> b) {
    U32(static_cast<uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void Bytes(const std::vector<uint8_t>& b) { Bytes(std::span<const uint8_t>(b)); }
  void Raw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  // Overwrites a previously written U32 at |offset| (for back-patched headers).
  void PatchU32(size_t offset, uint32_t v) {
    buf_[offset] = static_cast<uint8_t>(v);
    buf_[offset + 1] = static_cast<uint8_t>(v >> 8);
    buf_[offset + 2] = static_cast<uint8_t>(v >> 16);
    buf_[offset + 3] = static_cast<uint8_t>(v >> 24);
  }

 private:
  std::vector<uint8_t> buf_;
};

// Bounds-checked reader over a byte buffer; all accessors report truncation as
// kCorruptData rather than reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> buf) : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> U8() {
    if (pos_ + 1 > size_) {
      return Truncated();
    }
    return data_[pos_++];
  }
  Result<uint16_t> U16() {
    if (pos_ + 2 > size_) {
      return Truncated();
    }
    uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  Result<uint32_t> U32() {
    if (pos_ + 4 > size_) {
      return Truncated();
    }
    uint32_t v = static_cast<uint32_t>(data_[pos_]) | (static_cast<uint32_t>(data_[pos_ + 1]) << 8) |
                 (static_cast<uint32_t>(data_[pos_ + 2]) << 16) |
                 (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    ASSIGN_OR_RETURN(uint32_t lo, U32());
    ASSIGN_OR_RETURN(uint32_t hi, U32());
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }
  Result<int32_t> I32() {
    ASSIGN_OR_RETURN(uint32_t v, U32());
    return static_cast<int32_t>(v);
  }

  // A length-prefixed string as a view into the buffer: valid only while the
  // buffer is.
  Result<std::string_view> StrView() {
    ASSIGN_OR_RETURN(uint32_t n, U32());
    if (pos_ + n > size_) {
      return Truncated();
    }
    std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  Result<std::string> Str() {
    ASSIGN_OR_RETURN(std::string_view s, StrView());
    return std::string(s);
  }
  // A length-prefixed blob as a view into the buffer: valid only while the
  // buffer is.
  Result<std::span<const uint8_t>> BytesView() {
    ASSIGN_OR_RETURN(uint32_t n, U32());
    if (pos_ + n > size_) {
      return Truncated();
    }
    std::span<const uint8_t> b(data_ + pos_, n);
    pos_ += n;
    return b;
  }
  Result<std::vector<uint8_t>> Bytes() {
    ASSIGN_OR_RETURN(std::span<const uint8_t> b, BytesView());
    return std::vector<uint8_t>(b.begin(), b.end());
  }

  // Copies |n| raw bytes into |out|. A zero-length read copies nothing, so |out|
  // (and the source) may be null then — an empty vector's data().
  Status ReadRaw(uint8_t* out, size_t n) {
    if (pos_ + n > size_) {
      return Truncated();
    }
    if (n == 0) {
      return OkStatus();
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return OkStatus();
  }

  // Reads a 32-bit element count and validates it against the bytes actually left in
  // the stream (each element needs at least |min_bytes_per_elem|) and an absolute cap.
  // Rejecting the count up front turns an attacker-controlled "reserve 4 billion
  // entries" header into kCorruptData instead of an allocation bomb.
  Result<uint32_t> Count(size_t min_bytes_per_elem, uint32_t max_elems) {
    ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > max_elems) {
      return CorruptData("element count " + std::to_string(n) + " exceeds cap " +
                         std::to_string(max_elems));
    }
    if (min_bytes_per_elem > 0 &&
        static_cast<uint64_t>(n) * min_bytes_per_elem > remaining()) {
      return CorruptData("element count " + std::to_string(n) +
                         " exceeds the bytes remaining in the stream");
    }
    return n;
  }

  // Succeeds only when the whole buffer has been consumed; trailing bytes in an
  // external image are corruption, not padding.
  Status ExpectEnd(std::string_view what) const {
    if (!AtEnd()) {
      return CorruptData(std::string(what) + ": " + std::to_string(remaining()) +
                         " trailing byte(s) after the last record");
    }
    return OkStatus();
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Truncated() const { return CorruptData("byte stream truncated at offset " + std::to_string(pos_)); }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace hemlock

#endif  // SRC_BASE_BYTES_H_
