/**
 * @file
 * Byte-stream serialization for simulator-state checkpoints.
 *
 * A checkpoint ("SimState") is the exact microarchitectural state of a
 * functional simulation at one point in its reference stream: TLB
 * entries and recency clocks, prefetch-buffer LRU order, page-table
 * contents, and every mechanism's prediction state.  Components
 * serialize themselves field by field through a SnapshotWriter and
 * reconstruct through a SnapshotReader; the encoding is explicit
 * little-endian, so a snapshot is a stable byte string independent of
 * host struct layout (padding, endianness) and of unordered-container
 * iteration order — producers with such containers must emit entries
 * in a canonical (sorted) order.
 *
 * The format favours exactness over schema evolution: a reader that
 * runs out of bytes, or a restore() that finds a mismatched geometry,
 * throws std::invalid_argument — the same clean-failure policy the
 * sweep engine uses for malformed jobs, so a stale or foreign
 * checkpoint surfaces as a batch failure, never a worker-thread abort.
 *
 * The reader accepts only what the writer produces: a boolean is the
 * byte 0 or 1, and a varint (LEB128, seven bits per byte, low group
 * first) is in its shortest form and fits 64 bits.  So every byte
 * string a restore accepts re-serializes to itself.
 */

#ifndef TLBPF_UTIL_SNAPSHOT_HH
#define TLBPF_UTIL_SNAPSHOT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bits.hh"

namespace tlbpf
{

/** Appends primitive values to a growing byte buffer. */
class SnapshotWriter
{
  public:
    /** Pre-size the buffer (checkpoint producers know their bulk). */
    void reserve(std::size_t bytes) { _bytes.reserve(bytes); }

    void u8(std::uint8_t value) { _bytes.push_back(value); }

    void
    u32(std::uint32_t value)
    {
        std::size_t at = _bytes.size();
        _bytes.resize(at + 4);
        for (int i = 0; i < 4; ++i)
            _bytes[at + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
    }

    void
    u64(std::uint64_t value)
    {
        std::size_t at = _bytes.size();
        _bytes.resize(at + 8);
        for (int i = 0; i < 8; ++i)
            _bytes[at + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
    }

    void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }

    /** LEB128: one to ten bytes, small values short. */
    void
    varint(std::uint64_t value)
    {
        while (value >= 0x80) {
            _bytes.push_back(static_cast<std::uint8_t>(value | 0x80));
            value >>= 7;
        }
        _bytes.push_back(static_cast<std::uint8_t>(value));
    }

    /** A signed value as the varint of its zigzag code. */
    void svarint(std::int64_t value) { varint(zigZagEncode(value)); }

    void boolean(bool value) { u8(value ? 1 : 0); }

    /** Bytes another writer already encoded, copied verbatim. */
    void
    raw(std::span<const std::uint8_t> bytes)
    {
        _bytes.insert(_bytes.end(), bytes.begin(), bytes.end());
    }

    void
    str(const std::string &value)
    {
        u64(value.size());
        _bytes.insert(_bytes.end(), value.begin(), value.end());
    }

    const std::vector<std::uint8_t> &bytes() const { return _bytes; }
    std::vector<std::uint8_t> take() { return std::move(_bytes); }

  private:
    std::vector<std::uint8_t> _bytes;
};

/**
 * Consumes a byte buffer written by SnapshotWriter.  Reading past the
 * end throws std::invalid_argument ("snapshot truncated"); callers
 * that expect to consume everything can assert atEnd().
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::vector<std::uint8_t> &bytes)
        : _bytes(bytes)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    /** Throws unless the varint is shortest-form and fits 64 bits. */
    std::uint64_t varint();
    std::int64_t svarint() { return zigZagDecode(varint()); }
    /** Throws on any byte but 0 and 1. */
    bool boolean();
    std::string str();

    bool atEnd() const { return _cursor == _bytes.size(); }

    /** Bytes left to read — lets producers sanity-check element
     *  counts before sizing containers from hostile length fields. */
    std::size_t remaining() const { return _bytes.size() - _cursor; }

    /**
     * Throw std::invalid_argument with @p why; restore()
     * implementations use this for geometry/identity mismatches so
     * every checkpoint failure carries an actionable message.
     */
    [[noreturn]] static void fail(const std::string &why);

  private:
    void need(std::size_t count) const;

    const std::vector<std::uint8_t> &_bytes;
    std::size_t _cursor = 0;
};

} // namespace tlbpf

#endif // TLBPF_UTIL_SNAPSHOT_HH
