/**
 * @file
 * Binary trace file format so reference streams can be captured once
 * and replayed (the Etch-traces analogue in this reproduction).
 *
 * Format: 16-byte header (magic "TPFT", version, record count)
 * followed by one record per reference: a flag byte, then the zigzag
 * deltas of vaddr and pc and the icount delta as LEB128 varints.
 * Delta/varint encoding keeps traces compact: perfbench's
 * trace_replay traces average 5.0 bytes per reference.
 */

#ifndef TLBPF_TRACE_TRACE_FILE_HH
#define TLBPF_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/ref_stream.hh"

namespace tlbpf
{

/** On-disk size of the trace header (magic, version, record count). */
constexpr std::size_t kTraceHeaderBytes = 16;

/**
 * Longest legal record: the flag byte plus three varints of at most
 * ten bytes each (ten 7-bit groups cover 64 bits).
 */
constexpr std::size_t kTraceMaxRecordBytes = 1 + 3 * 10;

/**
 * Writes a reference stream to a binary trace file.
 *
 * The header is serialized field-by-field as explicit little-endian
 * bytes (never a raw struct image), so traces written on any host
 * decode on any other.  Every write is error-checked: a full disk or
 * I/O error is a fatal exit naming the path, never a silently
 * truncated trace that happens to carry a valid header.  Records are
 * encoded into a private buffer and written a block at a time.
 */
class TraceWriter
{
  public:
    /** Open @p path for writing; fatal on failure. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append a record. */
    void write(const MemRef &ref);

    /** Finalize the header and close; safe to call twice. */
    void close();

    std::uint64_t written() const { return _count; }

  private:
    void writeHeader();
    void flushBuffer();

    std::FILE *_file = nullptr;
    std::string _path;
    std::uint64_t _count = 0;
    MemRef _prev;
    bool _open = false;
    std::vector<std::uint8_t> _buf;
    std::size_t _bufLen = 0;
};

/**
 * Replays a binary trace file as a RefStream.
 *
 * Records decode straight out of a 64 KiB read buffer.  While at least
 * kTraceMaxRecordBytes are buffered a record cannot run past them, so
 * only the file's last few bytes pay a bounds check per byte.  On that
 * unchecked path a varint that ends in its first or second byte is
 * read without the decode loop: in perfbench's trace_replay traces,
 * 96.5% of records carry no longer field.  Longer varints take the
 * loop, which still rejects one past ten bytes.  next() is a
 * one-record nextBatch().
 *
 * Under ErrorPolicy::Throw the first error is sticky: once a call has
 * thrown, every later next(), nextBatch() or reset() throws the same
 * message again.
 */
class TraceReader : public RefStream
{
  public:
    /**
     * What to do about a missing/corrupt file: Fatal exits the
     * process (the historical behaviour, right for examples and
     * direct tools); Throw raises std::invalid_argument so engine
     * worker threads surface a bad trace as a batch failure instead
     * of exiting mid-pool.
     */
    enum class ErrorPolicy
    {
        Fatal,
        Throw
    };

    /** Open @p path; fatal or throwing per @p policy. */
    explicit TraceReader(const std::string &path,
                         ErrorPolicy policy = ErrorPolicy::Fatal);
    ~TraceReader() override;

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    void reset() override;
    std::string describe() const override;

    std::uint64_t count() const { return _count; }

  private:
    void refill();
    void readHeader();
    [[noreturn]] void fail(const std::string &why);

    std::FILE *_file = nullptr;
    std::string _path;
    ErrorPolicy _policy = ErrorPolicy::Fatal;
    std::string _error; ///< first error thrown; "" while healthy
    std::uint64_t _count = 0;
    std::uint64_t _readSoFar = 0;
    MemRef _prev;
    std::vector<std::uint8_t> _buf;
    std::size_t _bufPos = 0;
    std::size_t _bufLen = 0;
    bool _eof = false; ///< the buffered bytes are the file's last
};

/** Copy an entire stream into a trace file; returns records written. */
std::uint64_t dumpTrace(RefStream &stream, const std::string &path);

/**
 * Non-fatal validity probe: "" when @p path opens and carries a valid
 * trace header, otherwise a description of what is wrong.  For tools
 * and tests that want to check a file without constructing a reader;
 * the sweep engine itself uses TraceReader's ErrorPolicy::Throw,
 * which reports the same conditions as std::invalid_argument.
 */
std::string probeTraceFile(const std::string &path);

} // namespace tlbpf

#endif // TLBPF_TRACE_TRACE_FILE_HH
