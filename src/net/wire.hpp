// Bounds-checked binary serialization primitives for the receipt wire
// format: little-endian fixed-width fields and LEB128 varints.
//
// Receipts cross trust boundaries — a verifier parses receipts produced by
// *other domains* (Section 4), so the reader must treat input as hostile:
// every read is bounds-checked and malformed input raises WireError rather
// than corrupting state.
#ifndef VPM_NET_WIRE_HPP
#define VPM_NET_WIRE_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace vpm::net {

/// A varint carries 7 bits per byte, so 64 bits need at most 10 bytes.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Bytes ByteWriter::varint writes for `v`.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Zigzag mapping of a signed value onto an unsigned one, so small
/// magnitudes of either sign encode as short varints (0, -1, 1, -2, ... ->
/// 0, 1, 2, 3, ...).
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Raised on truncated or malformed wire input.
///
/// Two severities, because the two failure modes demand opposite consumer
/// reactions (ISSUE 6): a TRANSIENT error means the bytes so far are a
/// well-formed prefix that simply ends early — a truncated fetch the
/// consumer should retry with the complete payload, leaving decoder state
/// untouched.  A FATAL error means the bytes are structurally wrong
/// (hostile or corrupt); retrying the same stream cannot help and the
/// decoder must resynchronize at the next self-delimiting boundary.
class WireError : public std::runtime_error {
 public:
  enum class Severity : std::uint8_t {
    kFatal,      ///< malformed content: retry cannot succeed
    kTransient,  ///< incomplete input: retry with the full payload
  };

  explicit WireError(const std::string& what,
                     Severity severity = Severity::kFatal)
      : std::runtime_error(what), severity_(severity) {}

  [[nodiscard]] Severity severity() const noexcept { return severity_; }
  [[nodiscard]] bool transient() const noexcept {
    return severity_ == Severity::kTransient;
  }

 private:
  Severity severity_ = Severity::kFatal;
};

/// Append-only little-endian byte sink.  Each field grows the buffer once,
/// so an encoder writing straight into a shared buffer (the exporter's
/// open chunk) pays one amortised append per field, not one per byte.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { put_le<2>(v); }
  /// 24-bit field: the paper's 3-byte timestamps (Section 7.1).
  void u24(std::uint32_t v) { put_le<3>(v & 0xFFFFFFu); }
  void u32(std::uint32_t v) { put_le<4>(v); }
  void u64(std::uint64_t v) { put_le<8>(v); }
  void i64(std::int64_t v) { put_le<8>(static_cast<std::uint64_t>(v)); }
  /// Unsigned LEB128: seven bits per byte, lowest group first, the high
  /// bit set on every byte but the last.
  void varint(std::uint64_t v) {
    std::array<std::byte, kMaxVarintBytes> b{};
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7) {
      b[n++] = static_cast<std::byte>((v & 0x7Fu) | 0x80u);
    }
    b[n++] = static_cast<std::byte>(v);
    buf_.insert(buf_.end(), b.begin(),
                b.begin() + static_cast<std::ptrdiff_t>(n));
  }
  void bytes(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Overwrite the u32 written at byte `offset` (a count only known once
  /// the fields after it are written).  Throws std::out_of_range when the
  /// field lies outside what was written.
  void patch_u32(std::size_t offset, std::uint32_t v) {
    if (offset > buf_.size() || buf_.size() - offset < 4) {
      throw std::out_of_range("ByteWriter::patch_u32 past the end");
    }
    for (unsigned i = 0; i < 4; ++i) {
      buf_[offset + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
    }
  }

  [[nodiscard]] std::span<const std::byte> view() const noexcept {
    return buf_;
  }
  /// Hands the buffer over and leaves the writer empty.
  [[nodiscard]] std::vector<std::byte> take() && {
    return std::exchange(buf_, {});
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buf_.capacity();
  }
  void reserve(std::size_t n) { buf_.reserve(n); }
  void shrink_to_fit() { buf_.shrink_to_fit(); }

 private:
  template <unsigned N>
  void put_le(std::uint64_t v) {
    std::array<std::byte, N> le{};
    for (unsigned i = 0; i < N; ++i) {
      le[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
    }
    buf_.insert(buf_.end(), le.begin(), le.end());
  }
  std::vector<std::byte> buf_;
};

/// Sequential bounds-checked little-endian reader over a byte view.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    return static_cast<std::uint8_t>(get_le<1>());
  }
  [[nodiscard]] std::uint16_t u16() {
    return static_cast<std::uint16_t>(get_le<2>());
  }
  [[nodiscard]] std::uint32_t u24() {
    return static_cast<std::uint32_t>(get_le<3>());
  }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(get_le<4>());
  }
  [[nodiscard]] std::uint64_t u64() { return get_le<8>(); }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(get_le<8>());
  }
  /// Unsigned LEB128 (see ByteWriter::varint).  Input that ends inside the
  /// varint is a TRANSIENT truncation; a varint longer than 10 bytes, or
  /// whose tenth byte carries bits past the 64th, is FATAL.
  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
      expect_at_least(1);
      const auto b = std::to_integer<std::uint8_t>(data_[pos_++]);
      if (i == kMaxVarintBytes - 1) {
        if ((b & 0x80u) != 0) throw WireError("varint longer than 10 bytes");
        if (b > 1) throw WireError("varint wider than 64 bits");
      }
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << (7 * i);
      if ((b & 0x80u) == 0) break;
    }
    return v;
  }

  /// Advance past `n` bytes without decoding them (bounds-checked) — for
  /// structural scans and resync walks over self-framing sections.
  void skip(std::size_t n) {
    expect_at_least(n);
    pos_ += n;
  }

  /// The next `n` bytes as a view into the input (bounds-checked), for
  /// copying a counted payload once or reading a counted section through
  /// its own reader.
  [[nodiscard]] std::span<const std::byte> bytes(std::size_t n) {
    expect_at_least(n);
    const std::span<const std::byte> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

  /// Require exactly `n` more bytes (for validating counted sections).
  /// Throws TRANSIENT: running out of bytes means the input is (at most) a
  /// prefix of a valid stream — the retryable failure mode.  Callers that
  /// can prove the full payload is present (a sealed envelope) wrap it
  /// into a fatal error at their boundary.
  void expect_at_least(std::size_t n) const {
    if (remaining() < n) truncated(n, remaining());
  }

 private:
  [[noreturn]] static void truncated(std::size_t need, std::size_t have) {
    throw WireError("truncated input: need " + std::to_string(need) +
                        " bytes, have " + std::to_string(have),
                    WireError::Severity::kTransient);
  }

  template <unsigned N>
  std::uint64_t get_le() {
    expect_at_least(N);
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, N);
    } else {
      for (unsigned i = 0; i < N; ++i) {
        v |= static_cast<std::uint64_t>(
                 std::to_integer<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
      }
    }
    pos_ += N;
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace vpm::net

#endif  // VPM_NET_WIRE_HPP
