#include "store/checksum.h"

#include <array>

#include "wire/wire.h"

namespace pulse {
namespace store {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // CRC-32C, reflected.

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : (crc >> 1);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t Crc32c(const char* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ static_cast<uint8_t>(data[i])) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t FnvMix(const char* data, size_t n, uint64_t h) {
  constexpr uint64_t kPrime = 1099511628211ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= kPrime;
  }
  return h;
}

uint64_t CanonicalSegmentHash(const Segment& s, uint64_t h) {
  Segment canonical = s;
  canonical.id = 0;
  std::string bytes;
  wire::PutSegment(&bytes, canonical);
  return FnvMix(bytes.data(), bytes.size(), h);
}

}  // namespace store
}  // namespace pulse
