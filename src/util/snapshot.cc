#include "util/snapshot.hh"

#include <stdexcept>

namespace tlbpf
{

void
SnapshotReader::need(std::size_t count) const
{
    // Overflow-safe: _cursor <= size() always holds, so the
    // subtraction cannot wrap even for hostile length fields.
    if (count > _bytes.size() - _cursor)
        fail("snapshot truncated (needed " + std::to_string(count) +
             " more bytes at offset " + std::to_string(_cursor) +
             " of " + std::to_string(_bytes.size()) + ")");
}

std::uint8_t
SnapshotReader::u8()
{
    need(1);
    return _bytes[_cursor++];
}

std::uint32_t
SnapshotReader::u32()
{
    need(4);
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8)
        value |= static_cast<std::uint32_t>(_bytes[_cursor++]) << shift;
    return value;
}

std::uint64_t
SnapshotReader::u64()
{
    need(8);
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8)
        value |= static_cast<std::uint64_t>(_bytes[_cursor++]) << shift;
    return value;
}

std::uint64_t
SnapshotReader::varint()
{
    std::uint64_t value = 0;
    for (unsigned shift = 0;; shift += 7) {
        std::uint8_t byte = u8();
        // The tenth byte carries bit 63 only.
        if (shift == 63 && byte > 1)
            fail("varint exceeds 64 bits");
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (byte < 0x80) {
            // A zero last byte after the first adds nothing: a longer
            // spelling of a shorter varint.
            if (byte == 0 && shift > 0)
                fail("overlong varint");
            return value;
        }
    }
}

bool
SnapshotReader::boolean()
{
    std::uint8_t byte = u8();
    if (byte > 1)
        fail("boolean byte " + std::to_string(byte) + " is neither 0 nor 1");
    return byte == 1;
}

std::string
SnapshotReader::str()
{
    std::uint64_t size = u64();
    need(size);
    std::string out(_bytes.begin() + static_cast<std::ptrdiff_t>(_cursor),
                    _bytes.begin() +
                        static_cast<std::ptrdiff_t>(_cursor + size));
    _cursor += size;
    return out;
}

void
SnapshotReader::fail(const std::string &why)
{
    throw std::invalid_argument("invalid simulator checkpoint: " + why);
}

} // namespace tlbpf
