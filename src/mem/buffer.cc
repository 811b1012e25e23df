#include "src/mem/buffer.h"

#include <algorithm>

namespace nadino {

namespace {

constexpr uint64_t kLcgMul = 6364136223846793005ULL;
constexpr uint64_t kLcgInc = 1442695040888963407ULL;
constexpr uint64_t kHashMul = 0x9E3779B97F4A7C15ULL;  // Odd, so `* kHashMul` is a bijection.

// One hash step. For a fixed word it is a bijection of the state (xor, odd
// multiply and xorshift are each invertible); for a fixed state it is
// injective in the word. So two inputs that differ in exactly one word leave
// different states behind it, and every later step keeps them apart.
inline uint64_t Mix(uint64_t h, uint64_t word) {
  h = (h ^ word) * kHashMul;
  return h ^ (h >> 32);
}

inline uint64_t LoadWord(const std::byte* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace

void FillDeterministic(std::span<std::byte> out, uint64_t seed) {
  uint64_t x = seed;
  std::byte* p = out.data();
  size_t n = out.size();
  for (; n >= sizeof(x); p += sizeof(x), n -= sizeof(x)) {
    x = x * kLcgMul + kLcgInc;
    std::memcpy(p, &x, sizeof(x));
  }
  if (n > 0) {
    x = x * kLcgMul + kLcgInc;
    std::memcpy(p, &x, n);
  }
}

void Buffer::FillPattern(uint64_t seed, uint32_t payload_length) {
  length = static_cast<uint32_t>(std::min<size_t>(payload_length, data.size()));
  FillDeterministic(data.first(length), seed ^ 0x9E3779B97F4A7C15ULL);
}

std::array<std::byte, BufferDescriptor::kWireSize> BufferDescriptor::Encode() const {
  std::array<std::byte, kWireSize> wire{};
  std::memcpy(wire.data() + 0, &pool, 4);
  std::memcpy(wire.data() + 4, &buffer_index, 4);
  std::memcpy(wire.data() + 8, &length, 4);
  std::memcpy(wire.data() + 12, &dst_function, 4);
  return wire;
}

BufferDescriptor BufferDescriptor::Decode(std::span<const std::byte, kWireSize> wire) {
  BufferDescriptor d;
  std::memcpy(&d.pool, wire.data() + 0, 4);
  std::memcpy(&d.buffer_index, wire.data() + 4, 4);
  std::memcpy(&d.length, wire.data() + 8, 4);
  std::memcpy(&d.dst_function, wire.data() + 12, 4);
  return d;
}

uint64_t Checksum(std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  size_t n = bytes.size();
  // Four independent lanes hash consecutive words of each 32-byte block, so
  // the multiplies overlap instead of forming one serial chain.
  uint64_t lane0 = 0x243F6A8885A308D3ULL;
  uint64_t lane1 = 0x13198A2E03707344ULL;
  uint64_t lane2 = 0xA4093822299F31D0ULL;
  uint64_t lane3 = 0x082EFA98EC4E6C89ULL;
  for (; n >= 32; p += 32, n -= 32) {
    lane0 = Mix(lane0, LoadWord(p));
    lane1 = Mix(lane1, LoadWord(p + 8));
    lane2 = Mix(lane2, LoadWord(p + 16));
    lane3 = Mix(lane3, LoadWord(p + 24));
  }
  for (; n >= 8; p += 8, n -= 8) {
    lane0 = Mix(lane0, LoadWord(p));
  }
  if (n > 0) {
    uint64_t tail = 0;  // The last 1-7 bytes, zero-extended into one word.
    std::memcpy(&tail, p, n);
    lane0 = Mix(lane0, tail);
  }
  // Fold the lanes through the same step, then the length, which separates
  // inputs that differ only by trailing zero bytes.
  uint64_t h = Mix(Mix(Mix(Mix(0xB7E151628AED2A6AULL, lane0), lane1), lane2), lane3);
  h = Mix(h, bytes.size());
  // SplitMix64 finalizer (also a bijection) spreads every input bit over
  // the whole digest.
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 32);
}

}  // namespace nadino
