// Shared-memory buffers and the 16-byte buffer descriptors exchanged over
// intra-node IPC (SK_MSG), the DOCA-Comch-like channel, and the DNE.

#ifndef SRC_MEM_BUFFER_H_
#define SRC_MEM_BUFFER_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/core/types.h"

namespace nadino {

// A fixed-capacity buffer carved from a tenant's unified memory pool. The
// payload bytes are real: experiments checksum them end-to-end to prove the
// zero-copy paths do not corrupt or duplicate data.
struct Buffer {
  PoolId pool = 0;
  uint32_t index = 0;
  TenantId tenant = 0;
  uint32_t length = 0;      // Valid payload bytes, <= capacity.
  uint32_t generation = 0;  // Bumped on every recycle; detects stale descriptors.
  OwnerId owner = OwnerId::None();
  std::span<std::byte> data;  // Capacity-sized view into the arena.

  size_t capacity() const { return data.size(); }

  std::span<std::byte> payload() { return data.subspan(0, length); }
  std::span<const std::byte> payload() const { return data.subspan(0, length); }

  // Sets `length` and fills the payload with FillDeterministic's pattern
  // for `seed`.
  void FillPattern(uint64_t seed, uint32_t payload_length);
};

// The compact descriptor that travels instead of the data. 16 bytes, the size
// the paper quotes for Comch descriptor exchanges (section 3.5.4).
struct BufferDescriptor {
  PoolId pool = 0;
  uint32_t buffer_index = 0;
  uint32_t length = 0;
  FunctionId dst_function = kInvalidFunction;

  friend bool operator==(const BufferDescriptor&, const BufferDescriptor&) = default;

  static constexpr size_t kWireSize = 16;

  std::array<std::byte, kWireSize> Encode() const;
  static BufferDescriptor Decode(std::span<const std::byte, kWireSize> wire);
};

// Writes a deterministic pseudo-random pattern over `out`: one 64-bit LCG
// state per 8 bytes (the low bytes of one more state for a 1-7 byte tail).
// The model never interprets payload contents, only copies and hashes them,
// so the pattern only has to differ between seeds, not look random byte by
// byte.
void FillDeterministic(std::span<std::byte> out, uint64_t seed);

// 64-bit digest used by integrity assertions along the data plane. It reads
// 8-byte little-endian words (the 1-7 byte tail zero-extended into one more
// word) into four interleaved lanes, folds the lanes and then the length
// through the same step, and finishes with a SplitMix64 avalanche. Every
// step is a bijection of the running state for a fixed input word and
// injective in the word, so any change confined to one word or one tail byte
// always changes the digest. Folding in the length keeps a tail apart from
// the same tail with zero bytes appended, which zero-extension alone merges.
uint64_t Checksum(std::span<const std::byte> bytes);

}  // namespace nadino

#endif  // SRC_MEM_BUFFER_H_
