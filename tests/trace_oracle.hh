/**
 * @file
 * A deliberately naive .tpf decoder: the oracle TraceReader is checked
 * against in tests/test_trace.cc and fuzz/fuzz_trace.cc.
 *
 * It holds the whole file in memory and walks it one byte at a time,
 * straight from the format description in src/trace/trace_file.hh,
 * with no buffering and no shared code with the reader.  The error
 * strings are the reader's, so a differential check can compare them.
 */

#ifndef TLBPF_TESTS_TRACE_ORACLE_HH
#define TLBPF_TESTS_TRACE_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/ref_stream.hh"

namespace tlbpf
{

/** What a decode of a whole trace image produced. */
struct OracleDecode
{
    std::vector<MemRef> refs; ///< records before the error, if any
    std::string error;        ///< "" for a valid trace
};

/** Decode @p bytes, the contents of the trace file named @p path. */
inline OracleDecode
oracleDecode(const std::vector<std::uint8_t> &bytes,
             const std::string &path)
{
    OracleDecode out;
    auto fail = [&](const std::string &why) {
        out.error = "trace file '" + path + "' " + why;
        return out;
    };
    std::size_t pos = 0;
    auto fixed = [&](int width) { // a little-endian header field
        std::uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= std::uint64_t{bytes[pos++]} << (8 * i);
        return v;
    };
    if (bytes.size() < 16)
        return fail("truncated header");
    if (fixed(4) != 0x54465054) // "TPFT"
        return fail("has bad magic");
    std::uint64_t version = fixed(4);
    if (version != 1)
        return fail("has unsupported version " + std::to_string(version));
    std::uint64_t count = fixed(8);
    MemRef prev;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t field[4] = {}; // flags, vaddr, pc, icount
        for (int f = 0; f < 4; ++f) {
            for (int group = 0;; ++group) {
                if (pos == bytes.size())
                    return fail("truncated at record " + std::to_string(i));
                std::uint8_t byte = bytes[pos++];
                if (f == 0) { // the flag byte is not a varint
                    field[0] = byte;
                    break;
                }
                field[f] |= std::uint64_t{byte & 0x7fu} << (7 * group);
                if (byte < 0x80)
                    break;
                if (group == 9)
                    return fail("has malformed varint");
            }
        }
        auto unzig = [](std::uint64_t u) { return (u >> 1) ^ (0 - (u & 1)); };
        prev.isWrite = (field[0] & 1) != 0;
        prev.vaddr += unzig(field[1]);
        prev.pc += unzig(field[2]);
        prev.icount += field[3];
        out.refs.push_back(prev);
    }
    return out;
}

} // namespace tlbpf

#endif // TLBPF_TESTS_TRACE_ORACLE_HH
