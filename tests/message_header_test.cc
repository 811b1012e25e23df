// Tests for the in-buffer message header and payload integrity machinery.

#include "src/runtime/message_header.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/mem/buffer_pool.h"
#include "src/mem/hugepage_arena.h"

namespace nadino {
namespace {

class MessageHeaderTest : public ::testing::Test {
 protected:
  HugepageArena arena_;
  BufferPool pool_{1, 1, 4, 8192, &arena_};
};

TEST_F(MessageHeaderTest, WriteReadRoundTrip) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.chain = 3;
  header.src = 11;
  header.dst = 22;
  header.payload_length = 1024;
  header.request_id = 0xABCDEF;
  ASSERT_TRUE(WriteMessage(b, header));
  EXPECT_EQ(b->length, MessageHeader::kWireSize + 1024);
  const auto parsed = ReadMessage(*b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->chain, 3u);
  EXPECT_EQ(parsed->src, 11u);
  EXPECT_EQ(parsed->dst, 22u);
  EXPECT_EQ(parsed->payload_length, 1024u);
  EXPECT_EQ(parsed->request_id, 0xABCDEFu);
  EXPECT_FALSE(parsed->is_response());
}

TEST_F(MessageHeaderTest, ResponseFlagRoundTrips) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.flags = MessageHeader::kFlagResponse;
  header.payload_length = 16;
  ASSERT_TRUE(WriteMessage(b, header));
  EXPECT_TRUE(ReadMessage(*b)->is_response());
}

TEST_F(MessageHeaderTest, OversizedPayloadRejected) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 100000;  // Larger than the 8 KB buffer.
  EXPECT_FALSE(WriteMessage(b, header));
}

TEST_F(MessageHeaderTest, CorruptionDetectedByChecksum) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 256;
  header.request_id = 7;
  ASSERT_TRUE(WriteMessage(b, header));
  // Flip one payload byte: the data plane corrupted the message.
  b->data[MessageHeader::kWireSize + 10] ^= std::byte{0xFF};
  EXPECT_FALSE(ReadMessage(*b).has_value());
}

TEST_F(MessageHeaderTest, TruncationDetected) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 256;
  ASSERT_TRUE(WriteMessage(b, header));
  b->length = MessageHeader::kWireSize + 100;  // Short delivery.
  EXPECT_FALSE(ReadMessage(*b).has_value());
  b->length = 10;  // Shorter than the header itself.
  EXPECT_FALSE(ReadMessage(*b).has_value());
}

TEST_F(MessageHeaderTest, RewritePreservesPayload) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 512;
  header.request_id = 42;
  ASSERT_TRUE(WriteMessage(b, header));
  const uint64_t payload_sum =
      Checksum({b->data.data() + MessageHeader::kWireSize, 512});
  // Re-address the same buffer (zero-copy forward).
  MessageHeader fwd = header;
  fwd.src = 5;
  fwd.dst = 6;
  ASSERT_TRUE(RewriteHeader(b, fwd));
  const auto parsed = ReadMessage(*b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, 6u);
  EXPECT_EQ(Checksum({b->data.data() + MessageHeader::kWireSize, 512}), payload_sum);
}

TEST_F(MessageHeaderTest, DistinctRequestsHaveDistinctPayloads) {
  Buffer* a = pool_.Get(OwnerId::External());
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader ha;
  ha.payload_length = 128;
  ha.request_id = 1;
  MessageHeader hb = ha;
  hb.request_id = 2;
  ASSERT_TRUE(WriteMessage(a, ha));
  ASSERT_TRUE(WriteMessage(b, hb));
  EXPECT_NE(ReadMessage(*a)->payload_checksum, ReadMessage(*b)->payload_checksum);
}

TEST_F(MessageHeaderTest, RewriteKeepsAnEarlierPayloadCorruptionDetectable) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 512;
  header.request_id = 42;
  ASSERT_TRUE(WriteMessage(b, header));
  b->data[MessageHeader::kWireSize + 300] ^= std::byte{0x01};
  MessageHeader reply = header;
  reply.src = 5;
  reply.dst = 6;
  reply.flags = MessageHeader::kFlagResponse;
  ASSERT_TRUE(RewriteHeader(b, reply));
  // The rewrite must not re-bless the corrupted bytes with a fresh digest.
  EXPECT_FALSE(ReadMessage(*b).has_value());
}

TEST_F(MessageHeaderTest, RewriteKeepsAnEarlierHeaderCorruptionDetectable) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 64;
  header.request_id = 9;
  ASSERT_TRUE(WriteMessage(b, header));
  b->data[17] ^= std::byte{0x80};  // Inside request_id.
  ASSERT_TRUE(RewriteHeader(b, header));
  EXPECT_FALSE(ReadMessage(*b).has_value());
}

TEST_F(MessageHeaderTest, RewriteWithANewPayloadLengthRehashesThePayload) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.payload_length = 256;
  header.request_id = 3;
  ASSERT_TRUE(WriteMessage(b, header));
  MessageHeader shorter = header;
  shorter.payload_length = 100;
  ASSERT_TRUE(RewriteHeader(b, shorter));
  const auto parsed = ReadMessage(*b);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload_length, 100u);
  EXPECT_EQ(b->length, MessageHeader::kWireSize + 100);
}

// Every single-bit flip and every single-byte XOR (the FaultPlane's corrupt
// model) anywhere in the wire image — header, checksum field, padding,
// payload words and payload tail — must fail ReadMessage.
class MessageCorruptionPropertyTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  HugepageArena arena_;
  BufferPool pool_{1, 1, 1, 8192, &arena_};
};

TEST_P(MessageCorruptionPropertyTest, EverySingleByteCorruptionIsDetected) {
  Buffer* b = pool_.Get(OwnerId::External());
  MessageHeader header;
  header.chain = 7;
  header.src = 3;
  header.dst = 4;
  header.payload_length = GetParam();
  header.request_id = 0x1234 + GetParam();
  header.flags = MessageHeader::kFlagResponse;
  ASSERT_TRUE(WriteMessage(b, header));
  ASSERT_TRUE(ReadMessage(*b).has_value());
  for (uint32_t i = 0; i < b->length; ++i) {
    for (unsigned mask = 1; mask <= 255; ++mask) {
      b->data[i] ^= std::byte(mask);
      EXPECT_FALSE(ReadMessage(*b).has_value()) << "byte " << i << " ^ " << mask;
      b->data[i] ^= std::byte(mask);
    }
  }
  EXPECT_TRUE(ReadMessage(*b).has_value());
}

INSTANTIATE_TEST_SUITE_P(PayloadLengths, MessageCorruptionPropertyTest,
                         ::testing::Values(0u, 1u, 7u, 8u, 9u, 63u, 64u, 4099u));

TEST(ChecksumTest, TrailingZeroBytesChangeTheDigest) {
  // Covers the handoff from the four-lane loop to the word loop to the tail.
  const std::vector<std::byte> zeros(25, std::byte{0});
  for (size_t n = 0; n < 25; ++n) {
    EXPECT_NE(Checksum({zeros.data(), n}), Checksum({zeros.data(), n + 1})) << n;
  }
}

}  // namespace
}  // namespace nadino
