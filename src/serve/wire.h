// The benchmark's output-digest encoder: a little-endian byte stream
// (WireWriter) hashed with FNV-1a 64 (fnv1a64). scapbench/scapbench.cpp
// encodes every workload's outputs with it and compares the digests for
// equality only, so the encoded bytes must never change. The file stays at
// this path because scapbench/ includes it from here.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace scap::serve {

/// FNV-1a 64-bit. Stable and dependency-free; not cryptographic.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  /// u32 length followed by the raw bytes.
  void str32(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

}  // namespace scap::serve
