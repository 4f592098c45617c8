/**
 * @file
 * Tests for the functional simulator: metric definitions, the
 * prefetch-buffer promotion flow, duplicate suppression, and block
 * feeding (processBlock) against per-reference process().
 */

#include <gtest/gtest.h>

#include "sim/functional_sim.hh"
#include "trace/ref_stream.hh"
#include "util/random.hh"
#include "workload/workload_spec.hh"

namespace tlbpf
{
namespace
{

std::unique_ptr<VectorStream>
pageStream(std::initializer_list<Vpn> pages, Addr pc = 0x4000)
{
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (Vpn p : pages) {
        refs.push_back(MemRef{p * kDefaultPageBytes, pc, false, icount});
        icount += 3;
    }
    return std::make_unique<VectorStream>(std::move(refs));
}

SimConfig
tinyConfig()
{
    SimConfig config;
    config.tlb = TlbConfig{4, 0};
    config.pbEntries = 4;
    return config;
}

MechanismSpec
spec(const std::string &text)
{
    return MechanismSpec::parse(text);
}

TEST(FunctionalSim, CountsRefsAndMisses)
{
    auto stream = pageStream({1, 1, 2, 1, 3});
    SimResult r = simulate(tinyConfig(), spec("none"), *stream);
    EXPECT_EQ(r.refs, 5u);
    EXPECT_EQ(r.misses, 3u); // 1, 2, 3 cold; repeats hit
    EXPECT_EQ(r.demandFetches, 3u);
    EXPECT_EQ(r.pbHits, 0u);
    EXPECT_DOUBLE_EQ(r.missRate(), 0.6);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
    EXPECT_EQ(r.footprintPages, 3u);
}

TEST(FunctionalSim, LruEvictionCausesCapacityMisses)
{
    // TLB of 4 entries cycling over 5 pages: every access misses after
    // warmup.
    std::vector<MemRef> refs;
    for (int pass = 0; pass < 3; ++pass)
        for (Vpn p = 0; p < 5; ++p)
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    VectorStream stream(std::move(refs));
    SimResult r = simulate(tinyConfig(), spec("none"), stream);
    EXPECT_EQ(r.misses, 15u);
}

TEST(FunctionalSim, SequentialPrefetcherConvertsMissesToBufferHits)
{
    // Pages 0..9 once: SP prefetches p+1 on each miss, so only page 0
    // truly demand-misses.
    std::vector<MemRef> refs;
    for (Vpn p = 0; p < 10; ++p)
        refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    VectorStream stream(std::move(refs));
    SimResult r = simulate(tinyConfig(), spec("sp"), stream);
    EXPECT_EQ(r.misses, 10u); // still TLB misses by definition
    EXPECT_EQ(r.pbHits, 9u);
    EXPECT_EQ(r.demandFetches, 1u);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.9);
}

TEST(FunctionalSim, PrefetchingNeverChangesTlbMissCount)
{
    // The buffer is outside the TLB: on every miss the page enters the
    // TLB either way, so the TLB miss sequence is identical across
    // schemes (the paper: prefetching cannot increase the miss rate).
    std::vector<MemRef> refs;
    std::uint64_t x = 12345;
    for (int i = 0; i < 4000; ++i) {
        Vpn p = splitMix64(x) % 64;
        refs.push_back(MemRef{p * kDefaultPageBytes,
                              0x4000 + (p % 7) * 4, false,
                              static_cast<std::uint64_t>(i) * 3});
    }
    std::uint64_t baseline = 0;
    bool first = true;
    for (const char *text : {"none", "sp", "asp(rows=64)",
                             "mp(rows=64)", "rp", "dp(rows=64)"}) {
        VectorStream stream(refs);
        SimResult r = simulate(tinyConfig(), spec(text), stream);
        if (first) {
            baseline = r.misses;
            first = false;
        }
        EXPECT_EQ(r.misses, baseline) << text;
    }
    EXPECT_GT(baseline, 0u);
}

TEST(FunctionalSim, DuplicatePrefetchesSuppressed)
{
    // Sequential stream with SP: each miss wants p+1, which is never
    // already buffered (it was consumed), but p+1 may be in the TLB on
    // wrap-around.  Craft a direct duplicate: page already in TLB.
    auto stream = pageStream({5, 4, 5, 6});
    // miss 5 -> prefetch 6; miss 4 -> prefetch 5 (5 is in TLB:
    // suppressed); 5 hits TLB; 6 hits buffer.
    SimResult r = simulate(tinyConfig(), spec("sp"), *stream);
    EXPECT_GE(r.prefetchesSuppressed, 1u);
    EXPECT_EQ(r.pbHits, 1u);
}

TEST(FunctionalSim, BufferHitPromotesToTlb)
{
    FunctionalSimulator sim(tinyConfig(), spec("sp"));
    auto feed = [&sim](Vpn p) {
        sim.process(MemRef{p * kDefaultPageBytes, 0, false, 0});
    };
    feed(1); // miss, prefetch 2
    EXPECT_TRUE(sim.buffer().contains(2));
    feed(2); // buffer hit -> promoted
    EXPECT_FALSE(sim.buffer().contains(2));
    EXPECT_TRUE(sim.tlb().contains(2));
    EXPECT_EQ(sim.result().pbHits, 1u);
}

TEST(FunctionalSim, RpStateOpsCounted)
{
    std::vector<MemRef> refs;
    for (int pass = 0; pass < 4; ++pass)
        for (Vpn p = 0; p < 12; ++p)
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    VectorStream stream(std::move(refs));
    SimResult rp = simulate(tinyConfig(), spec("rp"), stream);
    EXPECT_GT(rp.stateOps, 0u);
    stream.reset();
    SimResult dp = simulate(tinyConfig(), spec("dp(rows=64)"), stream);
    EXPECT_EQ(dp.stateOps, 0u);
    EXPECT_GT(rp.memOpsPerMiss(), dp.memOpsPerMiss());
}

TEST(FunctionalSim, AccuracyIsZeroWithoutPrefetcher)
{
    auto stream = pageStream({1, 2, 3, 1, 2, 3});
    SimResult r = simulate(tinyConfig(), spec("none"), *stream);
    EXPECT_EQ(r.prefetchesIssued, 0u);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
}

TEST(FunctionalSim, EmptyStreamYieldsZeroedResult)
{
    VectorStream stream(std::vector<MemRef>{});
    SimResult r = simulate(tinyConfig(), spec("dp(rows=64)"), stream);
    EXPECT_EQ(r.refs, 0u);
    EXPECT_DOUBLE_EQ(r.missRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
}

TEST(FunctionalSim, SmallerTlbMissesMore)
{
    std::vector<MemRef> refs;
    std::uint64_t x = 777;
    for (int i = 0; i < 5000; ++i) {
        Vpn p = splitMix64(x) % 32;
        refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    }
    SimConfig small = tinyConfig(); // 4 entries
    SimConfig large = tinyConfig();
    large.tlb.entries = 16;
    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult r_small = simulate(small, spec("none"), s1);
    SimResult r_large = simulate(large, spec("none"), s2);
    EXPECT_GT(r_small.misses, r_large.misses);
}

TEST(FunctionalSim, ContextSwitchFlushesEverything)
{
    // 3 pages fit the 4-entry TLB, so after warmup there are no
    // misses — unless context switches flush the TLB.
    std::vector<MemRef> refs;
    for (int pass = 0; pass < 100; ++pass)
        for (Vpn p = 0; p < 3; ++p)
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    SimConfig no_switch = tinyConfig();
    SimConfig switching = tinyConfig();
    switching.contextSwitchInterval = 30;
    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult base = simulate(no_switch, spec("none"), s1);
    SimResult flushed = simulate(switching, spec("none"), s2);
    EXPECT_EQ(base.misses, 3u);
    EXPECT_EQ(flushed.contextSwitches, 9u); // 300 refs / 30 - 1
    EXPECT_EQ(flushed.misses, 3u + 9u * 3u);
}

TEST(FunctionalSim, ContextSwitchResetsPrefetcherState)
{
    // DP on a sequential stream: with switching, the first post-flush
    // miss cannot be predicted (history gone), so accuracy drops.
    std::vector<MemRef> refs;
    for (Vpn p = 0; p < 600; ++p)
        refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    SimConfig no_switch = tinyConfig();
    SimConfig switching = tinyConfig();
    switching.contextSwitchInterval = 10;
    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult base = simulate(no_switch, spec("dp(rows=64)"), s1);
    SimResult flushed = simulate(switching, spec("dp(rows=64)"), s2);
    EXPECT_GT(base.accuracy(), flushed.accuracy());
    EXPECT_GT(flushed.accuracy(), 0.0); // but DP re-learns quickly
}

TEST(FunctionalSim, TrainOnAllRefsFeedsHitsToThePrefetcher)
{
    // One page referenced repeatedly with stride-0 hits between the
    // misses: in full-feed mode DP observes the hits too (distance 0
    // self-loop) and behaviour stays well-defined.
    SimConfig full = tinyConfig();
    full.trainOnAllRefs = true;
    std::vector<MemRef> refs;
    for (Vpn p = 0; p < 40; ++p)
        for (int rep = 0; rep < 4; ++rep)
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    VectorStream s1(refs);
    SimResult r = simulate(full, spec("dp(rows=64)"), s1);
    EXPECT_LE(r.pbHits, r.misses);
    EXPECT_GT(r.accuracy(), 0.5); // sequential page walk still caught
}

TEST(FunctionalSim, PageSizeChangesFootprint)
{
    SimConfig base = tinyConfig();
    SimConfig big_pages = tinyConfig();
    big_pages.pageBytes = 16384;
    std::vector<MemRef> refs;
    for (Addr a = 0; a < 64 * 4096; a += 4096)
        refs.push_back(MemRef{a, 0, false, 0});
    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult r4k = simulate(base, spec("none"), s1);
    SimResult r16k = simulate(big_pages, spec("none"), s2);
    EXPECT_EQ(r4k.footprintPages, 64u);
    EXPECT_EQ(r16k.footprintPages, 16u);
    EXPECT_GT(r4k.misses, r16k.misses);
}

// ------------------------------------------- blocks vs references

/** Every reference @p stream yields. */
std::vector<MemRef>
drain(RefStream &stream)
{
    std::vector<MemRef> refs;
    MemRef ref;
    while (stream.next(ref))
        refs.push_back(ref);
    return refs;
}

/**
 * Same-page runs whose lengths straddle the 4096-reference block, the
 * 1000- and 3-reference switch intervals and the 7-reference block,
 * over more pages than a 128-entry TLB holds, with in-page offsets
 * that move run boundaries under a non-power-of-two page size.
 */
std::vector<MemRef>
runStream()
{
    const std::uint64_t lengths[] = {1,   2,    3,    5,    7,    8,
                                     999, 1000, 1001, 4095, 4096, 4097,
                                     6000};
    std::vector<MemRef> refs;
    Rng rng(2024);
    Vpn page = 0;
    std::uint64_t icount = 0;
    while (refs.size() < 20000) {
        // Mostly a sequential walk, sometimes a jump back or ahead.
        page = rng.nextBelow(4) == 0 ? rng.nextBelow(300) : page + 1;
        std::uint64_t run = lengths[rng.nextBelow(std::size(lengths))];
        for (std::uint64_t k = 0; k < run; ++k) {
            Addr offset = (k * 40) % kDefaultPageBytes;
            refs.push_back(MemRef{page * kDefaultPageBytes + offset,
                                  0x4000 + 4 * (page % 16), k % 3 == 0,
                                  icount});
            icount += 2;
        }
    }
    return refs;
}

/** The configurations whose caps and geometry processBlock must keep. */
std::vector<std::pair<std::string, SimConfig>>
blockConfigs()
{
    std::vector<std::pair<std::string, SimConfig>> out;
    out.emplace_back("default", SimConfig{});
    for (std::uint64_t interval : {1, 3, 1000}) {
        SimConfig config;
        config.contextSwitchInterval = interval;
        out.emplace_back("switch every " + std::to_string(interval),
                         config);
    }
    SimConfig all_refs;
    all_refs.trainOnAllRefs = true;
    out.emplace_back("trainOnAllRefs", all_refs);
    SimConfig odd_page;
    odd_page.pageBytes = 3000;
    out.emplace_back("3000-byte pages", odd_page);
    SimConfig four_way;
    four_way.tlb = TlbConfig{64, 4};
    out.emplace_back("64-entry 4-way TLB", four_way);
    SimConfig small_buffer;
    small_buffer.pbEntries = 4;
    out.emplace_back("4-entry buffer", small_buffer);
    return out;
}

TEST(FunctionalSimBlocks, BlocksMatchSingleReferences)
{
    const std::vector<MechanismSpec> specs = {
        spec("none"),      spec("RP"),        spec("DP,256,D"),
        spec("MP,256,F"),  spec("ASP,256,D"), spec("hybrid(dp+sp)")};
    std::vector<std::pair<std::string, std::vector<MemRef>>> streams;
    for (const char *text : {"ammp", "galgel", "mix:mcf+gcc@5k"}) {
        std::unique_ptr<RefStream> stream =
            WorkloadSpec::parse(text).build(20000);
        streams.emplace_back(text, drain(*stream));
    }
    streams.emplace_back("runs", runStream());

    for (const auto &[stream_name, refs] : streams) {
        const std::size_t n = refs.size();
        // Comparison points; the first two fall inside blocks.
        const std::size_t stops[] = {n / 5 + 1, n / 2 + 3, n};
        for (const auto &[config_name, config] : blockConfigs()) {
            const std::size_t block_sizes[] = {1, 7, 4096};
            FunctionalSimulator single(config, specs);
            std::vector<std::unique_ptr<FunctionalSimulator>> blocked;
            for (std::size_t b = 0; b < std::size(block_sizes); ++b)
                blocked.push_back(
                    std::make_unique<FunctionalSimulator>(config, specs));
            std::size_t pos = 0;
            for (std::size_t stop : stops) {
                for (std::size_t b = 0; b < std::size(block_sizes); ++b)
                    for (std::size_t at = pos; at < stop;
                         at += block_sizes[b])
                        blocked[b]->processBlock(
                            refs.data() + at,
                            std::min(block_sizes[b], stop - at));
                for (; pos < stop; ++pos)
                    single.process(refs[pos]);
                for (std::size_t b = 0; b < std::size(block_sizes); ++b) {
                    FunctionalSimulator &sim = *blocked[b];
                    for (std::size_t i = 0; i < specs.size(); ++i) {
                        SCOPED_TRACE(stream_name + ", " + config_name +
                                     ", block " +
                                     std::to_string(block_sizes[b]) +
                                     ", " + specs[i].label() + ", at " +
                                     std::to_string(stop));
                        ASSERT_EQ(sim.result(i), single.result(i));
                        // Equal bytes pin the TLB clock and use stamps.
                        ASSERT_EQ(sim.snapshot(i).bytes,
                                  single.snapshot(i).bytes);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace tlbpf
