#include "trace/trace_file.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/bits.hh"
#include "util/logging.hh"

namespace tlbpf
{

namespace
{

constexpr char kMagic[4] = {'T', 'P', 'F', 'T'};
constexpr std::uint32_t kVersion = 1;

// The header is serialized field-by-field as explicit little-endian
// bytes (matching the snapshot format), never as a raw struct image,
// so a trace written on any host decodes on any other.  Layout:
// bytes 0-3 magic "TPFT", 4-7 version (LE u32), 8-15 count (LE u64).

void
putLe32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putLe64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
getLe32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

struct Header
{
    bool magicOk = false;
    std::uint32_t version = 0;
    std::uint64_t count = 0;
};

void
encodeHeader(std::uint8_t (&bytes)[kTraceHeaderBytes], std::uint64_t count)
{
    std::memcpy(bytes, kMagic, sizeof(kMagic));
    putLe32(bytes + 4, kVersion);
    putLe64(bytes + 8, count);
}

Header
decodeHeader(const std::uint8_t (&bytes)[kTraceHeaderBytes])
{
    Header hdr;
    hdr.magicOk = std::memcmp(bytes, kMagic, sizeof(kMagic)) == 0;
    hdr.version = getLe32(bytes + 4);
    hdr.count = getLe64(bytes + 8);
    return hdr;
}

/**
 * The one header validator both the probe and the reader use:
 * "" when @p hdr is valid (@p read_ok says the fread succeeded),
 * otherwise a description.
 */
std::string
checkHeader(const std::string &path, const Header &hdr, bool read_ok)
{
    if (!read_ok)
        return "trace file '" + path + "' truncated header";
    if (!hdr.magicOk)
        return "trace file '" + path + "' has bad magic";
    if (hdr.version != kVersion)
        return "trace file '" + path + "' has unsupported version " +
               std::to_string(hdr.version);
    return "";
}

/** Why a record failed to decode. */
enum class Decode
{
    Ok,
    Truncated, ///< the file ended inside the record
    Malformed  ///< a varint ran past ten bytes
};

/**
 * Decode one LEB128 varint at @p p into @p v.  A Checked decode
 * returns Truncated at @p end instead of reading it; an unchecked one
 * relies on the caller having kTraceMaxRecordBytes readable from the
 * record's start.
 */
template <bool Checked>
Decode
decodeVarint(const std::uint8_t *&p, const std::uint8_t *end,
             std::uint64_t &v)
{
    if constexpr (!Checked) {
        // Nearly every field of a trace is one or two bytes long: read
        // those without the loop (both bytes are readable here).
        std::uint64_t b0 = p[0];
        if (b0 < 0x80) {
            v = b0;
            p += 1;
            return Decode::Ok;
        }
        std::uint64_t b1 = p[1];
        if (b1 < 0x80) {
            v = (b0 & 0x7f) | (b1 << 7);
            p += 2;
            return Decode::Ok;
        }
    }
    v = 0;
    for (unsigned shift = 0;; shift += 7) {
        if (Checked && p == end)
            return Decode::Truncated;
        std::uint64_t byte = *p++;
        v |= (byte & 0x7f) << shift;
        if (byte < 0x80)
            return Decode::Ok;
        if (shift == 63)
            return Decode::Malformed;
    }
}

/**
 * Decode the record at @p p, applying its deltas to @p ref (the
 * previous record on entry).  @p ref is garbage unless Ok.
 */
template <bool Checked>
Decode
decodeRecord(const std::uint8_t *&p, const std::uint8_t *end, MemRef &ref)
{
    if (Checked && p == end)
        return Decode::Truncated;
    std::uint8_t flags = *p++;
    std::uint64_t dv = 0;
    std::uint64_t dp = 0;
    std::uint64_t di = 0;
    Decode status = decodeVarint<Checked>(p, end, dv);
    if (status == Decode::Ok)
        status = decodeVarint<Checked>(p, end, dp);
    if (status == Decode::Ok)
        status = decodeVarint<Checked>(p, end, di);
    // Unsigned adds wrap exactly like the writer's unsigned deltas.
    ref.isWrite = (flags & 1) != 0;
    ref.vaddr += static_cast<Addr>(zigZagDecode(dv));
    ref.pc += static_cast<Addr>(zigZagDecode(dp));
    ref.icount += di;
    return status;
}

std::uint8_t *
encodeVarint(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

/** Read/encode buffer size of TraceReader and TraceWriter. */
constexpr std::size_t kBufferBytes = std::size_t{1} << 16;

/** References dumpTrace() pulls from its stream per nextBatch(). */
constexpr std::size_t kDumpBatchRefs = 4096;

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : _path(path), _buf(kBufferBytes)
{
    _file = std::fopen(path.c_str(), "wb");
    if (!_file)
        tlbpf_fatal("cannot open trace file '", path, "' for writing");
    _open = true;
    writeHeader(); // count patched in close()
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::writeHeader()
{
    std::uint8_t bytes[kTraceHeaderBytes];
    encodeHeader(bytes, _count);
    if (std::fwrite(bytes, sizeof(bytes), 1, _file) != 1)
        tlbpf_fatal("cannot write trace header to '", _path, "'");
}

void
TraceWriter::flushBuffer()
{
    if (std::fwrite(_buf.data(), 1, _bufLen, _file) != _bufLen)
        tlbpf_fatal("write error on trace file '", _path, "'");
    _bufLen = 0;
}

void
TraceWriter::write(const MemRef &ref)
{
    tlbpf_assert(_open, "write to closed TraceWriter");
    if (_buf.size() - _bufLen < kTraceMaxRecordBytes)
        flushBuffer();
    // Record: flags byte, then zigzag deltas of vaddr/pc and icount
    // delta.  Flag bit 0 = write access.  The deltas are taken
    // unsigned (wrapping) so no address pair overflows.
    std::uint8_t *p = _buf.data() + _bufLen;
    *p++ = ref.isWrite ? 1 : 0;
    p = encodeVarint(
        p, zigZagEncode(static_cast<std::int64_t>(ref.vaddr - _prev.vaddr)));
    p = encodeVarint(
        p, zigZagEncode(static_cast<std::int64_t>(ref.pc - _prev.pc)));
    p = encodeVarint(p, ref.icount - _prev.icount);
    _bufLen = static_cast<std::size_t>(p - _buf.data());
    _prev = ref;
    ++_count;
}

void
TraceWriter::close()
{
    if (!_open)
        return;
    // stdio buffers writes too, so a disk-full condition may only
    // surface at flush time — flush both buffers before patching the
    // header so a truncated body cannot end up behind a valid count.
    flushBuffer();
    if (std::fflush(_file) != 0)
        tlbpf_fatal("write error on trace file '", _path, "'");
    if (std::fseek(_file, 0, SEEK_SET) != 0)
        tlbpf_fatal("cannot seek in trace file '", _path, "'");
    writeHeader();
    std::FILE *file = _file;
    _file = nullptr;
    _open = false;
    if (std::fclose(file) != 0)
        tlbpf_fatal("write error closing trace file '", _path, "'");
}

TraceReader::TraceReader(const std::string &path, ErrorPolicy policy)
    : _path(path), _policy(policy), _buf(kBufferBytes)
{
    _file = std::fopen(path.c_str(), "rb");
    if (!_file)
        fail("cannot open trace file '" + path + "'");
    readHeader();
}

void
TraceReader::fail(const std::string &why)
{
    if (_policy == ErrorPolicy::Throw) {
        // The constructor may throw before the destructor can ever
        // run; release the handle here so a rejected trace does not
        // leak one fd per attempted cell.  Every later call rethrows
        // the first error before touching the released handle.
        if (_error.empty())
            _error = why;
        if (_file) {
            std::fclose(_file);
            _file = nullptr;
        }
        throw std::invalid_argument(_error);
    }
    tlbpf_fatal(why);
}

TraceReader::~TraceReader()
{
    if (_file)
        std::fclose(_file);
}

void
TraceReader::readHeader()
{
    // Called with the decode buffer empty (constructor and reset()),
    // so reading the file directly here cannot skip buffered bytes.
    std::uint8_t bytes[kTraceHeaderBytes];
    bool read_ok = std::fread(bytes, sizeof(bytes), 1, _file) == 1;
    Header hdr = read_ok ? decodeHeader(bytes) : Header{};
    std::string error = checkHeader(_path, hdr, read_ok);
    if (!error.empty())
        fail(error);
    _count = hdr.count;
}

void
TraceReader::refill()
{
    // Carry the unread tail forward so the record it starts sits whole
    // in the buffer after the read.
    std::size_t tail = _bufLen - _bufPos;
    std::memmove(_buf.data(), _buf.data() + _bufPos, tail);
    std::size_t want = _buf.size() - tail;
    std::size_t got = std::fread(_buf.data() + tail, 1, want, _file);
    _bufPos = 0;
    _bufLen = tail + got;
    _eof = got < want;
}

bool
TraceReader::next(MemRef &ref)
{
    return TraceReader::nextBatch(&ref, 1) == 1;
}

std::size_t
TraceReader::nextBatch(MemRef *buf, std::size_t n)
{
    if (!_error.empty())
        fail(_error);
    n = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, _count - _readSoFar));
    MemRef prev = _prev;
    std::size_t filled = 0;
    Decode status = Decode::Ok;
    while (filled < n && status == Decode::Ok) {
        std::size_t avail = _bufLen - _bufPos;
        if (avail < kTraceMaxRecordBytes && !_eof) {
            refill();
            continue;
        }
        const std::uint8_t *p = _buf.data() + _bufPos;
        const std::uint8_t *end = p + avail;
        if (avail >= kTraceMaxRecordBytes) {
            // A record starting at or before `last` ends inside the
            // buffered bytes, so it decodes without bounds checks.
            const std::uint8_t *last = end - kTraceMaxRecordBytes;
            while (filled < n && p <= last) {
                status = decodeRecord<false>(p, end, prev);
                if (status != Decode::Ok)
                    break;
                buf[filled++] = prev;
            }
        } else {
            // The file's last few bytes.
            status = decodeRecord<true>(p, end, prev);
            if (status == Decode::Ok)
                buf[filled++] = prev;
        }
        _bufPos = static_cast<std::size_t>(p - _buf.data());
    }
    _prev = prev;
    _readSoFar += filled;
    if (status == Decode::Malformed)
        fail("trace file '" + _path + "' has malformed varint");
    if (status == Decode::Truncated)
        fail("trace file '" + _path + "' truncated at record " +
             std::to_string(_readSoFar));
    return filled;
}

void
TraceReader::reset()
{
    if (!_error.empty())
        fail(_error);
    std::fseek(_file, 0, SEEK_SET);
    _bufPos = 0;
    _bufLen = 0;
    _eof = false;
    readHeader();
    _readSoFar = 0;
    _prev = MemRef{};
}

std::string
TraceReader::describe() const
{
    return "trace(" + _path + ", " + std::to_string(_count) + ")";
}

std::string
probeTraceFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return "cannot open trace file '" + path + "'";
    std::uint8_t bytes[kTraceHeaderBytes];
    bool read_ok = std::fread(bytes, sizeof(bytes), 1, file) == 1;
    std::fclose(file);
    Header hdr = read_ok ? decodeHeader(bytes) : Header{};
    return checkHeader(path, hdr, read_ok);
}

std::uint64_t
dumpTrace(RefStream &stream, const std::string &path)
{
    TraceWriter writer(path);
    std::vector<MemRef> block(kDumpBatchRefs);
    while (std::size_t got = stream.nextBatch(block.data(), block.size()))
        for (std::size_t i = 0; i < got; ++i)
            writer.write(block[i]);
    writer.close();
    return writer.written();
}

} // namespace tlbpf
