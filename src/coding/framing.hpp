// Payload framing.
//
// The paper transmits raw pseudo-random data frames; a usable link needs
// structure on top: each data frame carries a small header (magic,
// sequence number, payload length) and a CRC-32 so the receiver can
// reassemble a byte stream and discard corrupted frames. Header and
// payload are wrapped in a Reed-Solomon codeword so scattered bit errors
// are corrected rather than dropping the whole frame.
#pragma once

#include "coding/reed_solomon.hpp"
#include "util/prng.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace inframe::coding {

// Splits a message into frame payload chunks of at most chunk_bytes.
std::vector<std::vector<std::uint8_t>> chunk_message(std::span<const std::uint8_t> message,
                                                     int chunk_bytes);

// RS-protected framer: payload symbols are RS(n, k)-encoded and the
// codeword is spread over the frame bits, correcting residual bit errors
// that slipped past GOB parity.
class Rs_framer {
public:
    Rs_framer(int capacity_bits, int rs_n, int rs_k);

    static constexpr std::uint16_t magic = 0x1f7a;

    int max_payload_bytes() const;

    // Builds the frame's bit vector (capacity_bits entries, 0/1). Unused
    // codeword bytes and tail bits are deterministic pseudo-random filler
    // keyed by the sequence number (white filler keeps the on-screen
    // pattern balanced).
    std::vector<std::uint8_t> build(std::uint32_t sequence,
                                    std::span<const std::uint8_t> payload) const;

    struct Parsed {
        std::uint32_t sequence = 0;
        std::vector<std::uint8_t> payload;
        int corrected_symbols = 0;
    };

    std::optional<Parsed> parse(std::span<const std::uint8_t> bits) const;

    // Erasure-aware parse: trusted is parallel to bits (1 = reliable).
    // Codeword symbols containing any untrusted bit are declared erasures,
    // doubling the correction power exactly where GOBs were lost.
    std::optional<Parsed> parse(std::span<const std::uint8_t> bits,
                                std::span<const std::uint8_t> trusted) const;

private:
    int capacity_bits_;
    Reed_solomon code_;
};

} // namespace inframe::coding
