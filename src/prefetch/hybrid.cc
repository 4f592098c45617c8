#include "prefetch/hybrid.hh"

#include <algorithm>
#include <stdexcept>

#include "prefetch/mech_spec.hh"
#include "util/logging.hh"

namespace tlbpf
{

HybridPrefetcher::HybridPrefetcher(
    std::vector<std::unique_ptr<Prefetcher>> children)
    : _children(std::move(children))
{
    tlbpf_assert(_children.size() >= 2, "hybrid needs >= 2 children");
    for (const auto &child : _children)
        tlbpf_assert(child != nullptr, "hybrid child must prefetch");
}

void
HybridPrefetcher::onMiss(const TlbMiss &miss,
                         PrefetchDecision &decision)
{
    for (const auto &child : _children) {
        _scratch.clear();
        child->onMiss(miss, _scratch);
        decision.stateOps += _scratch.stateOps;
        for (Vpn target : _scratch.targets) {
            if (std::find(decision.targets.begin(),
                          decision.targets.end(),
                          target) == decision.targets.end())
                decision.targets.push_back(target);
        }
    }
}

void
HybridPrefetcher::reset()
{
    for (const auto &child : _children)
        child->reset();
}

std::string
HybridPrefetcher::label() const
{
    std::string out = "hybrid(";
    for (std::size_t i = 0; i < _children.size(); ++i) {
        if (i > 0)
            out += '+';
        out += _children[i]->label();
    }
    return out + ")";
}

HardwareProfile
HybridPrefetcher::hardwareProfile() const
{
    HardwareProfile profile;
    for (std::size_t i = 0; i < _children.size(); ++i) {
        HardwareProfile child = _children[i]->hardwareProfile();
        const char *sep = i > 0 ? " + " : "";
        profile.rows += sep + child.rows;
        profile.rowContents += sep + child.rowContents;
        if (profile.tableLocation.find(child.tableLocation) ==
            std::string::npos)
            profile.tableLocation +=
                (profile.tableLocation.empty() ? "" : " + ") +
                child.tableLocation;
        profile.indexedBy += sep + child.indexedBy;
        profile.memOpsPerMiss += child.memOpsPerMiss;
        profile.maxPrefetches += sep + child.maxPrefetches;
    }
    return profile;
}

bool
HybridPrefetcher::dropPrefetchesWhenBusy() const
{
    return std::all_of(_children.begin(), _children.end(),
                       [](const std::unique_ptr<Prefetcher> &child) {
                           return child->dropPrefetchesWhenBusy();
                       });
}

bool
HybridPrefetcher::checkpointable() const
{
    return std::all_of(_children.begin(), _children.end(),
                       [](const std::unique_ptr<Prefetcher> &child) {
                           return child->checkpointable();
                       });
}

void
HybridPrefetcher::snapshotState(SnapshotWriter &out) const
{
    out.u64(_children.size());
    for (const auto &child : _children)
        child->snapshotState(out);
}

void
HybridPrefetcher::restoreState(SnapshotReader &in)
{
    std::uint64_t count = in.u64();
    if (count != _children.size())
        SnapshotReader::fail(
            "hybrid checkpoint has " + std::to_string(count) +
            " children, expected " +
            std::to_string(_children.size()));
    for (const auto &child : _children)
        child->restoreState(in);
}

namespace
{

/** RP mechanisms in @p spec, counting through nested hybrids. */
std::size_t
recencyCount(const MechanismSpec &spec)
{
    std::size_t count = spec.name == "rp" ? 1 : 0;
    for (const MechanismSpec &child : spec.children)
        count += recencyCount(child);
    return count;
}

} // namespace

void
registerHybridMechanism(MechanismRegistry &registry)
{
    MechanismEntry hybrid;
    hybrid.name = "hybrid";
    hybrid.shortName = "HYB";
    hybrid.summary = "composite: feeds each miss to every child and "
                     "unions/deduplicates their prefetch targets";
    hybrid.composite = true;
    hybrid.minChildren = 2;
    hybrid.maxChildren = 8;
    hybrid.validate = [](const MechanismSpec &spec) {
        for (const MechanismSpec &child : spec.children)
            if (child.name == "none")
                throw std::invalid_argument(
                    "hybrid child 'none' prefetches nothing; drop it "
                    "from the child list");
        if (recencyCount(spec) > 1)
            throw std::invalid_argument(
                "hybrid '" + spec.label() +
                "' holds more than one RP: every RP threads its "
                "recency stack through the same page-table link "
                "words, so two would corrupt each other; keep one");
    };
    hybrid.build = [](const MechanismSpec &spec, PageTable &pt) {
        std::vector<std::unique_ptr<Prefetcher>> children;
        children.reserve(spec.children.size());
        for (const MechanismSpec &child : spec.children)
            children.push_back(child.build(pt));
        return std::unique_ptr<Prefetcher>(
            std::make_unique<HybridPrefetcher>(std::move(children)));
    };
    hybrid.legend = [](const MechanismSpec &spec) {
        std::string out = "hybrid(";
        for (std::size_t i = 0; i < spec.children.size(); ++i) {
            if (i > 0)
                out += '+';
            out += spec.children[i].label();
        }
        return out + ")";
    };
    registry.add(std::move(hybrid));
}

} // namespace tlbpf
