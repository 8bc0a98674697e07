#include "coding/framing.hpp"

#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace inframe::coding;
using inframe::util::Contract_violation;
using inframe::util::Prng;

std::vector<std::uint8_t> bytes_of(const std::string& s)
{
    return {s.begin(), s.end()};
}

// The framing a session builds for a 1125-bit data frame: RS(140, 63)
// (Frame_codec at its default 55% parity).
Rs_framer session_framer(int capacity_bits = 1125)
{
    return Rs_framer(capacity_bits, 140, 63);
}

TEST(Framer, RoundTrip)
{
    const auto framer = session_framer();
    const auto payload = bytes_of("coupon: SUNRISE-20-OFF");
    const auto bits = framer.build(7, payload);
    ASSERT_EQ(bits.size(), 1125u);
    const auto parsed = framer.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->sequence, 7u);
    EXPECT_EQ(parsed->payload, payload);
}

TEST(Framer, CapacityAccounting)
{
    // 12 header bytes (magic, sequence, length, CRC) ride inside the
    // codeword's k data symbols.
    const auto framer = session_framer();
    EXPECT_EQ(framer.max_payload_bytes(), 63 - 12);
    const std::vector<std::uint8_t> too_big(
        static_cast<std::size_t>(framer.max_payload_bytes()) + 1, 0);
    EXPECT_THROW(framer.build(0, too_big), Contract_violation);
}

TEST(Framer, EmptyPayload)
{
    const auto framer = session_framer();
    const auto bits = framer.build(3, {});
    const auto parsed = framer.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->payload.empty());
}

TEST(Framer, WrongSizeRejected)
{
    const auto framer = session_framer();
    const std::vector<std::uint8_t> short_bits(1000, 0);
    EXPECT_FALSE(framer.parse(short_bits).has_value());
}

TEST(Framer, FillerIsDeterministicPerSequence)
{
    const auto framer = session_framer();
    const auto a = framer.build(9, bytes_of("x"));
    const auto b = framer.build(9, bytes_of("x"));
    EXPECT_EQ(a, b);
    const auto c = framer.build(10, bytes_of("x"));
    EXPECT_NE(a, c);
}

TEST(Framer, TooSmallCapacityRejected)
{
    // The bit vector must hold one whole codeword.
    EXPECT_THROW(session_framer(140 * 8 - 1), Contract_violation);
}

TEST(ChunkMessage, SplitsAndPreservesOrder)
{
    const auto message = bytes_of("abcdefghij");
    const auto chunks = chunk_message(message, 4);
    ASSERT_EQ(chunks.size(), 3u);
    EXPECT_EQ(chunks[0], bytes_of("abcd"));
    EXPECT_EQ(chunks[1], bytes_of("efgh"));
    EXPECT_EQ(chunks[2], bytes_of("ij"));
}

TEST(ChunkMessage, EmptyMessageYieldsOneEmptyChunk)
{
    const auto chunks = chunk_message({}, 4);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_TRUE(chunks[0].empty());
}

TEST(ChunkMessage, Validation)
{
    EXPECT_THROW(chunk_message(bytes_of("x"), 0), Contract_violation);
}

TEST(RsFramer, RoundTripClean)
{
    const Rs_framer framer(1125, 64, 40);
    const auto payload = bytes_of("rs protected payload");
    const auto bits = framer.build(5, payload);
    ASSERT_EQ(bits.size(), 1125u);
    const auto parsed = framer.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->sequence, 5u);
    EXPECT_EQ(parsed->payload, payload);
    EXPECT_EQ(parsed->corrected_symbols, 0);
}

TEST(RsFramer, CorrectsScatteredBitErrors)
{
    const Rs_framer framer(1125, 64, 40); // t = 12 symbols
    const auto payload = bytes_of("resilient");
    auto bits = framer.build(5, payload);
    // Flip bits in 6 different symbols.
    for (const std::size_t pos : {3u, 77u, 150u, 222u, 301u, 410u}) bits[pos] ^= 1;
    const auto parsed = framer.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->payload, payload);
    EXPECT_GT(parsed->corrected_symbols, 0);
}

TEST(RsFramer, GivesUpBeyondCapacity)
{
    const Rs_framer framer(1125, 32, 26); // t = 3 symbols
    auto bits = framer.build(5, bytes_of("x"));
    Prng prng(8);
    // Corrupt ~10 symbols.
    for (int i = 0; i < 80; ++i) bits[prng.next_below(32 * 8)] ^= 1;
    const auto parsed = framer.parse(bits);
    if (parsed.has_value()) {
        // Miscorrection is possible but must not reproduce the original.
        EXPECT_NE(parsed->payload, bytes_of("x"));
    }
}

TEST(RsFramer, CapacityValidation)
{
    EXPECT_THROW(Rs_framer(100, 64, 40), Contract_violation);
    const Rs_framer framer(1125, 64, 40);
    EXPECT_EQ(framer.max_payload_bytes(), 28);
    const std::vector<std::uint8_t> too_big(29, 0);
    EXPECT_THROW(framer.build(0, too_big), Contract_violation);
}

} // namespace
