/**
 * @file
 * The simulators fuzz_snapshot restores checkpoints into, and the
 * checkpoints its seed corpus holds.
 *
 * An input's first byte picks one (config, mechanism) pair; the rest
 * is the checkpoint.  A seed is its pair's index byte followed by that
 * pair's checkpoint after kSeedRefs references of mcf, and an accepted
 * input goes on to simulate mcf's next kTailRefs references.  The
 * harness, the seed writer (make_snapshot_seeds) and the tests' check
 * of the committed seeds share this one list.
 */

#ifndef TLBPF_FUZZ_SNAPSHOT_PAIRS_HH
#define TLBPF_FUZZ_SNAPSHOT_PAIRS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "prefetch/mech_spec.hh"
#include "sim/functional_sim.hh"
#include "workload/workload_spec.hh"

namespace tlbpf::fuzz
{

struct SnapshotPair
{
    const char *seed;  ///< seed file name under fuzz/corpus/snapshot
    const char *mech;  ///< MechanismSpec::parse() text
    bool small;        ///< 64-entry 4-way TLB and a 4-entry buffer
};

inline constexpr std::array<SnapshotPair, 8> kSnapshotPairs = {{
    {"none.bin", "none", false},
    {"rp.bin", "RP", false},
    {"rp4.bin", "RP,4", false},
    {"dp.bin", "DP,256,D", false},
    {"mp.bin", "MP,256,F", false},
    {"asp.bin", "ASP,256,D", false},
    {"hybrid.bin", "hybrid(RP+DP,256,D)", false},
    {"hybrid_small.bin", "hybrid(RP+DP,256,D)", true},
}};

/** References a seed checkpoint has seen, and those fed after restore. */
inline constexpr std::uint64_t kSeedRefs = 10000;
inline constexpr std::uint64_t kTailRefs = 3000;

inline SimConfig
pairConfig(const SnapshotPair &pair)
{
    SimConfig config;
    if (pair.small) {
        config.tlb = TlbConfig{64, 4};
        config.pbEntries = 4;
    }
    return config;
}

inline FunctionalSimulator
pairSimulator(const SnapshotPair &pair)
{
    return FunctionalSimulator(pairConfig(pair),
                               MechanismSpec::parse(pair.mech));
}

/** mcf's first kSeedRefs + kTailRefs references, built once. */
inline const std::vector<MemRef> &
mcfRefs()
{
    static const std::vector<MemRef> refs = [] {
        auto stream = WorkloadSpec::app("mcf").build(kSeedRefs + kTailRefs);
        return collect(*stream, kSeedRefs + kTailRefs);
    }();
    return refs;
}

/** Seed @p index: its index byte, then its pair's checkpoint. */
inline std::vector<std::uint8_t>
seedInput(std::size_t index)
{
    FunctionalSimulator sim = pairSimulator(kSnapshotPairs[index]);
    sim.processBlock(mcfRefs().data(), kSeedRefs);
    (void)sim.result(); // a checkpoint records result()'s counters
    std::vector<std::uint8_t> input{static_cast<std::uint8_t>(index)};
    std::vector<std::uint8_t> state = sim.snapshot().bytes;
    input.insert(input.end(), state.begin(), state.end());
    return input;
}

} // namespace tlbpf::fuzz

#endif // TLBPF_FUZZ_SNAPSHOT_PAIRS_HH
