#include "src/runtime/message_header.h"

#include <cstring>

namespace nadino {

namespace {

// Offset of the checksum field inside the serialized header, and its index
// among the header's five 8-byte words.
constexpr size_t kChecksumOffset = 24;
constexpr size_t kChecksumWord = kChecksumOffset / sizeof(uint64_t);

void FillPayload(Buffer* buffer, uint64_t seed, uint32_t length) {
  FillDeterministic(buffer->data.subspan(MessageHeader::kWireSize, length),
                    seed ^ 0xD1B54A32D192ED03ULL);
}

// The message digest is HeaderDigest(wire) ^ PayloadDigest(payload), so
// RewriteHeader can swap the header term alone. Covering the header bytes —
// including routing and correlation fields and the padding — means a single
// flipped bit anywhere in the message is caught, not just flips that land in
// the payload. HeaderDigest hashes the serialized header at `wire` with its
// checksum word zeroed.
uint64_t HeaderDigest(const std::byte* wire) {
  uint64_t words[MessageHeader::kWireSize / sizeof(uint64_t)];
  std::memcpy(words, wire, sizeof(words));
  words[kChecksumWord] = 0;
  return Checksum(std::as_bytes(std::span(words)));
}

uint64_t PayloadDigest(const Buffer& buffer, uint32_t payload_length) {
  return Checksum(buffer.data.subspan(MessageHeader::kWireSize, payload_length));
}

uint64_t MessageChecksum(const Buffer& buffer, uint32_t payload_length) {
  return HeaderDigest(buffer.data.data()) ^ PayloadDigest(buffer, payload_length);
}

void StoreChecksum(Buffer* buffer, uint64_t checksum) {
  std::memcpy(buffer->data.data() + kChecksumOffset, &checksum, sizeof(checksum));
}

void Serialize(const MessageHeader& h, std::byte* out) {
  std::memcpy(out + 0, &h.chain, 4);
  std::memcpy(out + 4, &h.src, 4);
  std::memcpy(out + 8, &h.dst, 4);
  std::memcpy(out + 12, &h.payload_length, 4);
  std::memcpy(out + 16, &h.request_id, 8);
  std::memcpy(out + 24, &h.payload_checksum, 8);
  std::memcpy(out + 32, &h.flags, 1);
  std::memset(out + 33, 0, 7);
}

MessageHeader Deserialize(const std::byte* in) {
  MessageHeader h;
  std::memcpy(&h.chain, in + 0, 4);
  std::memcpy(&h.src, in + 4, 4);
  std::memcpy(&h.dst, in + 8, 4);
  std::memcpy(&h.payload_length, in + 12, 4);
  std::memcpy(&h.request_id, in + 16, 8);
  std::memcpy(&h.payload_checksum, in + 24, 8);
  std::memcpy(&h.flags, in + 32, 1);
  return h;
}

}  // namespace

bool WriteMessage(Buffer* buffer, MessageHeader header) {
  if (buffer == nullptr ||
      buffer->data.size() < MessageHeader::kWireSize + header.payload_length) {
    return false;
  }
  FillPayload(buffer, header.request_id, header.payload_length);
  Serialize(header, buffer->data.data());
  StoreChecksum(buffer, MessageChecksum(*buffer, header.payload_length));
  buffer->length = MessageHeader::kWireSize + header.payload_length;
  return true;
}

bool RewriteHeader(Buffer* buffer, MessageHeader header) {
  if (buffer == nullptr ||
      buffer->data.size() < MessageHeader::kWireSize + header.payload_length) {
    return false;
  }
  std::byte* wire = buffer->data.data();
  const MessageHeader old = Deserialize(wire);
  // Same payload length: the stored digest minus the old header's term is
  // the payload term, so the payload is not re-read — and a payload that
  // was corrupted since the last write stays detectably corrupt.
  const uint64_t payload_term = old.payload_length == header.payload_length
                                    ? old.payload_checksum ^ HeaderDigest(wire)
                                    : PayloadDigest(*buffer, header.payload_length);
  Serialize(header, wire);
  StoreChecksum(buffer, HeaderDigest(wire) ^ payload_term);
  buffer->length = MessageHeader::kWireSize + header.payload_length;
  return true;
}

std::optional<MessageHeader> ReadMessage(const Buffer& buffer) {
  if (buffer.length < MessageHeader::kWireSize) {
    return std::nullopt;
  }
  MessageHeader h = Deserialize(buffer.data.data());
  if (buffer.length < MessageHeader::kWireSize + h.payload_length) {
    return std::nullopt;
  }
  if (MessageChecksum(buffer, h.payload_length) != h.payload_checksum) {
    return std::nullopt;
  }
  return h;
}

}  // namespace nadino
