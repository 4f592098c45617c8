/**
 * @file
 * Fuzz target: the binary .tpf trace decoder.
 *
 * Attack surface: TraceReader decodes untrusted files named by
 * `trace:` workload specs — header fields, varint deltas, record
 * framing.  The harness materializes the input as a file (the reader
 * API is path-based by design), drains it through the same
 * nextBatch() path the simulator uses, and resets mid-stream the way
 * shard warm-up does.  ErrorPolicy::Throw turns every malformation
 * into std::invalid_argument; a crash or unbounded loop is a bug.
 *
 * The drain is differential: the naive decoder of
 * tests/trace_oracle.hh decodes the same bytes, and the reader must
 * return the same records, reject exactly the inputs it rejects, and
 * with the same message.  The batch size (1 to 4336) comes from the
 * input's last byte, so mutation moves batch ends across records,
 * buffer refills and the end of the file.
 */

#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "trace/trace_file.hh"
#include "trace_oracle.hh"

namespace
{

/** One scratch path per process, rewritten every input. */
const std::string &
scratchPath()
{
    static const std::string path = [] {
        const char *dir = std::getenv("TMPDIR");
        return std::string(dir && *dir ? dir : "/tmp") +
               "/tlbpf_fuzz_trace." + std::to_string(::getpid()) +
               ".tpf";
    }();
    return path;
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::string &path = scratchPath();
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return 0;
    if (size > 0 && std::fwrite(data, 1, size, file) != size) {
        std::fclose(file);
        return 0;
    }
    std::fclose(file);

    tlbpf::OracleDecode want = tlbpf::oracleDecode(
        std::vector<std::uint8_t>(data, data + size), path);
    std::size_t batch = 1 + (size > 0 ? data[size - 1] * 17u : 0u);

    // The cheap validity probe must agree with the reader: a file the
    // probe passes must construct, and one it rejects must throw.
    std::string probe = tlbpf::probeTraceFile(path);
    std::vector<tlbpf::MemRef> got;
    std::string error;
    try {
        tlbpf::TraceReader reader(
            path, tlbpf::TraceReader::ErrorPolicy::Throw);
        if (!probe.empty()) {
            std::fprintf(stderr,
                         "probe rejected ('%s') what TraceReader "
                         "accepted\n",
                         probe.c_str());
            std::abort();
        }
        std::vector<tlbpf::MemRef> block(batch);
        while (std::size_t n = reader.nextBatch(block.data(), batch))
            got.insert(got.end(), block.begin(),
                       block.begin() + static_cast<std::ptrdiff_t>(n));
        // Shard warm-up resets positioned streams; decode again after
        // a reset to cover the buffered-reader rewind path.
        reader.reset();
        (void)reader.nextBatch(block.data(), batch);
    } catch (const std::invalid_argument &e) {
        // Malformed traces are the expected rejection.
        error = e.what();
    }

    // A batch that meets an error throws, so only the whole batches
    // before the bad record come back.
    std::size_t expected = want.error.empty()
                               ? want.refs.size()
                               : want.refs.size() / batch * batch;
    if (error != want.error || got.size() != expected ||
        !std::equal(got.begin(), got.end(), want.refs.begin())) {
        std::fprintf(stderr,
                     "TraceReader (batch %zu) returned %zu records and "
                     "error '%s'; the oracle %zu records and error '%s'\n",
                     batch, got.size(), error.c_str(), want.refs.size(),
                     want.error.c_str());
        std::abort();
    }
    return 0;
}
