#include "coding/framing.hpp"

#include "util/bitstream.hpp"
#include "util/contract.hpp"
#include "util/crc32.hpp"

namespace inframe::coding {

std::vector<std::vector<std::uint8_t>> chunk_message(std::span<const std::uint8_t> message,
                                                     int chunk_bytes)
{
    util::expects(chunk_bytes >= 1, "chunk_message: chunk size must be positive");
    std::vector<std::vector<std::uint8_t>> chunks;
    std::size_t offset = 0;
    while (offset < message.size()) {
        const std::size_t take =
            std::min(message.size() - offset, static_cast<std::size_t>(chunk_bytes));
        chunks.emplace_back(message.begin() + static_cast<std::ptrdiff_t>(offset),
                            message.begin() + static_cast<std::ptrdiff_t>(offset + take));
        offset += take;
    }
    if (chunks.empty()) chunks.emplace_back(); // empty message -> one empty frame
    return chunks;
}

Rs_framer::Rs_framer(int capacity_bits, int rs_n, int rs_k)
    : capacity_bits_(capacity_bits), code_(rs_n, rs_k)
{
    util::expects(capacity_bits >= rs_n * 8,
                  "rs framer: capacity cannot hold one RS codeword");
}

int Rs_framer::max_payload_bytes() const
{
    // Header inside the protected region: magic(2) + sequence(4) +
    // length(2) + crc32(4). The CRC guards against RS miscorrection: an
    // error pattern beyond t symbols can decode to a *valid-looking*
    // wrong codeword, which must not reach the application.
    return code_.k() - 12;
}

std::vector<std::uint8_t> Rs_framer::build(std::uint32_t sequence,
                                           std::span<const std::uint8_t> payload) const
{
    util::expects(static_cast<int>(payload.size()) <= max_payload_bytes(),
                  "rs framer: payload exceeds codeword capacity");
    std::vector<std::uint8_t> data;
    data.reserve(static_cast<std::size_t>(code_.k()));
    // Non-zero magic first: the all-zero vector is a valid RS codeword
    // (with a vacuously matching empty-payload CRC), and an undecodable
    // frame's fill bits are exactly all-zero.
    data.push_back(static_cast<std::uint8_t>(magic >> 8));
    data.push_back(static_cast<std::uint8_t>(magic & 0xff));
    data.push_back(static_cast<std::uint8_t>(sequence >> 24));
    data.push_back(static_cast<std::uint8_t>(sequence >> 16));
    data.push_back(static_cast<std::uint8_t>(sequence >> 8));
    data.push_back(static_cast<std::uint8_t>(sequence));
    data.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
    data.push_back(static_cast<std::uint8_t>(payload.size()));
    const std::uint32_t crc = util::crc32(payload);
    data.push_back(static_cast<std::uint8_t>(crc >> 24));
    data.push_back(static_cast<std::uint8_t>(crc >> 16));
    data.push_back(static_cast<std::uint8_t>(crc >> 8));
    data.push_back(static_cast<std::uint8_t>(crc));
    data.insert(data.end(), payload.begin(), payload.end());
    util::Prng filler(0x5e9u ^ sequence);
    while (data.size() < static_cast<std::size_t>(code_.k())) {
        data.push_back(static_cast<std::uint8_t>(filler.next_u64()));
    }
    const auto codeword = code_.encode(data);

    util::Bit_writer writer;
    writer.put_bytes(codeword);
    auto bits = writer.to_bit_vector();
    while (bits.size() < static_cast<std::size_t>(capacity_bits_)) {
        bits.push_back(static_cast<std::uint8_t>(filler.next_u64() >> 63));
    }
    return bits;
}

std::optional<Rs_framer::Parsed> Rs_framer::parse(std::span<const std::uint8_t> bits) const
{
    return parse(bits, {});
}

std::optional<Rs_framer::Parsed>
Rs_framer::parse(std::span<const std::uint8_t> bits,
                 std::span<const std::uint8_t> trusted) const
{
    if (bits.size() != static_cast<std::size_t>(capacity_bits_)) return std::nullopt;
    util::expects(trusted.empty() || trusted.size() == bits.size(),
                  "rs framer: trust mask must match the bit vector");
    const auto codeword_bits = static_cast<std::size_t>(code_.n()) * 8;
    const auto bytes = util::pack_bits(bits.first(codeword_bits));

    std::vector<int> erasures;
    if (!trusted.empty()) {
        for (int symbol = 0; symbol < code_.n(); ++symbol) {
            bool reliable = true;
            for (int bit = 0; bit < 8; ++bit) {
                reliable &= trusted[static_cast<std::size_t>(symbol) * 8
                                    + static_cast<std::size_t>(bit)]
                            != 0;
            }
            if (!reliable) erasures.push_back(symbol);
        }
        // More suspect symbols than the code can absorb: fall back to
        // errors-only decoding (some of the suspects may still be right).
        if (static_cast<int>(erasures.size()) > code_.parity_symbols()) erasures.clear();
    }

    const auto decoded = erasures.empty() ? code_.decode(bytes)
                                          : code_.decode_with_erasures(bytes, erasures);
    if (!decoded) return std::nullopt;
    const auto& data = decoded->data;
    const auto frame_magic =
        static_cast<std::uint16_t>((static_cast<int>(data[0]) << 8) | data[1]);
    if (frame_magic != magic) return std::nullopt;
    Parsed parsed;
    parsed.sequence = (static_cast<std::uint32_t>(data[2]) << 24)
                      | (static_cast<std::uint32_t>(data[3]) << 16)
                      | (static_cast<std::uint32_t>(data[4]) << 8)
                      | static_cast<std::uint32_t>(data[5]);
    const int payload_bytes = (static_cast<int>(data[6]) << 8) | static_cast<int>(data[7]);
    if (payload_bytes > max_payload_bytes()) return std::nullopt;
    const std::uint32_t expected_crc =
        (static_cast<std::uint32_t>(data[8]) << 24) | (static_cast<std::uint32_t>(data[9]) << 16)
        | (static_cast<std::uint32_t>(data[10]) << 8) | static_cast<std::uint32_t>(data[11]);
    parsed.payload.assign(data.begin() + 12, data.begin() + 12 + payload_bytes);
    if (util::crc32(parsed.payload) != expected_crc) return std::nullopt;
    parsed.corrected_symbols = decoded->corrected_errors;
    return parsed;
}

} // namespace inframe::coding
