/**
 * @file
 * Distance Prefetching (DP) for TLBs — the paper's proposal (Section
 * 2.5), a thin adaptor over the generic core DistancePredictor.
 */

#ifndef TLBPF_PREFETCH_DISTANCE_HH
#define TLBPF_PREFETCH_DISTANCE_HH

#include "core/distance_predictor.hh"
#include "prefetch/prefetcher.hh"

namespace tlbpf
{

/** Distance prefetcher: predicts TLB misses from miss-distance history. */
class DistancePrefetcher : public Prefetcher
{
  public:
    /**
     * @param table table geometry (the paper's r and associativity)
     * @param slots predicted distances per row (the paper's s)
     */
    explicit DistancePrefetcher(const TableConfig &table,
                                std::uint32_t slots = 2);

    void onMiss(const TlbMiss &miss, PrefetchDecision &decision) override;
    void reset() override;

    std::string name() const override { return "DP"; }
    std::string label() const override;
    HardwareProfile hardwareProfile() const override;

    bool checkpointable() const override { return true; }
    void snapshotState(SnapshotWriter &out) const override;
    void restoreState(SnapshotReader &in) override;

    const DistancePredictor &predictor() const { return _predictor; }

  private:
    DistancePredictor _predictor;
};

} // namespace tlbpf

#endif // TLBPF_PREFETCH_DISTANCE_HH
