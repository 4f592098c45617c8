/**
 * @file
 * Fuzz target: the simulator checkpoint reader.
 *
 * Attack surface: FunctionalSimulator::restore() parses the files a
 * --cache-dir checkpoint store serves back for explicit-shard cells:
 * varint counts and deltas, sparse link lists, prediction-table rows
 * and the recency stack's head and count.  A rejection must be
 * std::invalid_argument.  The first input byte picks the (config,
 * mechanism) pair of snapshot_pairs.hh; the rest is the checkpoint.
 *
 * An accepted checkpoint then simulates a fixed stretch of mcf and is
 * snapshotted again, so a state that restores cleanly and then panics
 * (a page pushed twice onto RP's stack, a link to an untranslated
 * page) is a finding too.  Fuzz builds arm DCHECKs, so restore's own
 * check that it is the inverse of snapshot() runs on every input.
 *
 * Seeds: fuzz/corpus/snapshot, one valid checkpoint per pair, written
 * by make_snapshot_seeds (see fuzz/CMakeLists.txt).
 */

#include "harness.hh"

#include <stdexcept>
#include <vector>

#include "snapshot_pairs.hh"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace tlbpf;
    using namespace tlbpf::fuzz;
    if (size == 0)
        return 0;
    const SnapshotPair &pair =
        kSnapshotPairs[data[0] % kSnapshotPairs.size()];
    FunctionalSimulator sim = pairSimulator(pair);
    try {
        sim.restore(SimState{std::vector<std::uint8_t>(data + 1,
                                                       data + size)});
    } catch (const std::invalid_argument &) {
        return 0;
    }
    sim.processBlock(mcfRefs().data() + kSeedRefs, kTailRefs);
    (void)sim.result();
    (void)sim.snapshot();
    return 0;
}
