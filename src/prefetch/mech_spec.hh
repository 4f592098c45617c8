/**
 * @file
 * First-class mechanism addressing: the MechanismSpec value type and
 * the open MechanismRegistry it resolves against.
 *
 * The other half of every experiment cell (WorkloadSpec names the
 * reference stream) is "what prefetching mechanism am I running?".
 * Historically that was a closed Scheme enum plus a monolithic
 * PrefetcherSpec struct whose fields only applied to some schemes; a
 * MechanismSpec generalises it to a small textual grammar resolved
 * against a registry of self-describing entries, so new mechanisms —
 * hybrids, experimental predictors, whole plugins — can be added
 * without editing any central switch:
 *
 *   dp                          registry mechanism, all defaults
 *   dp(rows=512,assoc=4w)       key=value parameters from the entry's
 *                               typed schema (defaults filled in,
 *                               unknown keys and out-of-range values
 *                               rejected with an actionable message)
 *   sp(degree=2)  sp(adaptive)  flags are bare keys
 *   hybrid(dp+sp)               composite entry: '+'-separated child
 *                               specs, arbitrated by the entry
 *   DP,256,D   SP,1   RP   ASQ  the paper's figure-legend forms also
 *                               parse, so label() round-trips
 *
 * parse() and label() round-trip: parse(s.label()) == s for every
 * valid spec, while label() keeps emitting the paper's figure-legend
 * form ("DP,256,D") so rendered tables and CSV files are byte-
 * identical to the closed-enum era.  canonical() emits the grammar
 * form above (defaults elided) and round-trips too.  All resolution
 * errors throw std::invalid_argument so engine worker threads surface
 * a bad mechanism as a clean batch failure; bench binaries convert
 * that to the documented fatal exit via parseMechanismOrDie().
 */

#ifndef TLBPF_PREFETCH_MECH_SPEC_HH
#define TLBPF_PREFETCH_MECH_SPEC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/prediction_table.hh"
#include "prefetch/prefetcher.hh"

namespace tlbpf
{

class PageTable;
struct MechanismSpec;

/** One typed parameter a mechanism entry accepts. */
struct MechParam
{
    enum class Kind
    {
        UInt,  ///< decimal integer with an inclusive [min, max] range
        Flag,  ///< boolean; given as a bare key (or key=true/false)
        Choice ///< one of a fixed token set (e.g. table associativity)
    };

    std::string key;
    Kind kind = Kind::UInt;
    std::string help;

    std::uint64_t dflt = 0;      ///< UInt default; Flag default (0/1)
    std::uint64_t min = 0;       ///< UInt range, inclusive
    std::uint64_t max = ~0ull;

    /** Choice: canonical tokens; choices.front() is the default. */
    std::vector<std::string> choices;
    /** Choice: accepted aliases, each mapping to a canonical token. */
    std::vector<std::pair<std::string, std::string>> choiceAliases;

    static MechParam makeUInt(std::string key, std::string help,
                              std::uint64_t dflt, std::uint64_t min,
                              std::uint64_t max);
    static MechParam makeFlag(std::string key, std::string help);
    static MechParam
    makeChoice(std::string key, std::string help,
               std::vector<std::string> choices,
               std::vector<std::pair<std::string, std::string>> aliases);
};

/**
 * A mechanism denotation: a registry entry name plus its fully
 * resolved parameters (every schema key present, defaults filled in)
 * and, for composite entries, the child specs.  Construct with
 * parse(); the typed accessors assume the spec was resolved against
 * the registry.
 */
struct MechanismSpec
{
    std::string name = "none"; ///< canonical registry entry name
    /** Resolved (key, canonical value) pairs in schema order. */
    std::vector<std::pair<std::string, std::string>> params;
    std::vector<MechanismSpec> children; ///< composite entries only

    /**
     * Parse either grammar (canonical or figure-legend); throws
     * std::invalid_argument with an actionable description on unknown
     * mechanisms, unknown parameter keys, out-of-range values and
     * malformed composite child lists.
     */
    static MechanismSpec parse(const std::string &text);

    /** The baseline spec (no prefetching). */
    static MechanismSpec none();

    /**
     * Figure-legend label, e.g. "DP,256,D", "SP,1", "RP", "ASQ",
     * "hybrid(DP,256,D+SP,1)".  parse(label()) reproduces this spec.
     */
    std::string label() const;

    /**
     * Canonical grammar form with defaulted parameters elided, e.g.
     * "dp", "dp(rows=512)", "hybrid(dp+sp)".  Round-trips via parse().
     */
    std::string canonical() const;

    /** Short display name of the entry, e.g. "DP", "HYB", "none". */
    std::string shortName() const;

    /**
     * Build the prefetcher.  @p pt is required by mechanisms whose
     * state lives in the page table (RP) and ignored by the on-chip
     * ones.  A mechanism must create every entry it reads
     * (PageTable::lookup, not find) and must not rely on entries it did
     * not create: a FunctionalSimulator gives each mechanism a private
     * table holding only the entries that mechanism looked up.  A
     * cell's footprintPages always counts the front end's table, i.e.
     * the missed pages.  Returns nullptr for the "none"
     * baseline.  Throws std::invalid_argument if the spec does not
     * resolve.
     */
    std::unique_ptr<Prefetcher> build(PageTable &pt) const;

    /** Table 1 row for this mechanism. */
    HardwareProfile hardwareProfile() const;

    /** Re-check this spec against the registry; throws on violation. */
    void validate() const;

    /* Typed parameter accessors (key must exist in the entry schema). */
    std::uint64_t uintParam(const std::string &key) const;
    bool flagParam(const std::string &key) const;
    const std::string &choiceParam(const std::string &key) const;

    /** rows/assoc parameter pair as a prediction-table geometry. */
    TableConfig tableParam() const;

    bool operator==(const MechanismSpec &other) const = default;
};

/** A self-describing registry entry for one mechanism. */
struct MechanismEntry
{
    std::string name;      ///< canonical name (lowercase)
    std::string shortName; ///< display name, e.g. "DP"
    std::string summary;   ///< one-line description for listings
    /** Extra accepted names; an alias may expand to a parameterised
     *  spec string (e.g. "ASQ" -> "sp(adaptive)"). */
    std::vector<std::pair<std::string, std::string>> aliases;
    std::vector<MechParam> params; ///< typed parameter schema

    /** Composite entries take '+'-separated child specs as argument. */
    bool composite = false;
    std::size_t minChildren = 0;
    std::size_t maxChildren = 0;

    /** Construct the prefetcher (may return nullptr: no prefetching). */
    std::function<std::unique_ptr<Prefetcher>(const MechanismSpec &,
                                              PageTable &)>
        build;

    /** Figure-legend emission; nullptr emits the entry name. */
    std::function<std::string(const MechanismSpec &)> legend;

    /**
     * Parse figure-legend fields (the comma-separated tokens after the
     * name, e.g. {"256", "D"}) into key=value argument pairs; nullptr
     * rejects any fields.  Throws std::invalid_argument on mismatch.
     */
    std::function<void(
        const std::vector<std::string> &,
        std::vector<std::pair<std::string, std::string>> &)>
        parseLegend;

    /** Extra cross-parameter validation (throw std::invalid_argument). */
    std::function<void(const MechanismSpec &)> validate;

    /** Table 1 row; nullptr builds a throwaway instance and asks it. */
    std::function<HardwareProfile(const MechanismSpec &)> profile;
};

/**
 * The open mechanism registry.  The paper's five schemes plus the
 * baseline and the hybrid combinator are pre-registered; anything —
 * benches, tests, plugins — may add() further entries through this
 * public API before running sweeps.  Registration is not thread-safe
 * against concurrent parsing: register before fanning out on the
 * engine (lookups during a sweep are read-only).
 */
class MechanismRegistry
{
  public:
    static MechanismRegistry &instance();

    /**
     * Register an entry.  Throws std::invalid_argument on a missing
     * name/build hook or on a name/alias that is already taken.
     */
    void add(MechanismEntry entry);

    /** Entry by name or alias (case-insensitive); nullptr if absent. */
    const MechanismEntry *find(const std::string &name) const;

    /**
     * If @p name is an alias carrying a parameter preset, the spec
     * string it expands to; nullptr otherwise.
     */
    const std::string *aliasExpansion(const std::string &name) const;

    /** All entries in registration-name order. */
    std::vector<const MechanismEntry *> entries() const;

    /** Comma-separated entry names (for error messages/usage). */
    std::string knownNames() const;

  private:
    MechanismRegistry();

    std::map<std::string, MechanismEntry> _entries; // key: lowercase
    std::map<std::string, std::string> _aliases; // lowercase -> target
};

/**
 * Parse a comma-separated list of mechanism specs.  The text is first
 * tried as a single spec (so legend forms like "DP,256,D" work), then
 * split on top-level commas (parentheses nest, so "hybrid(dp+sp),rp"
 * is two specs).  Throws std::invalid_argument.
 */
std::vector<MechanismSpec> parseMechanismList(const std::string &text);

/**
 * parse() for bench/CLI entry points: converts a resolution error
 * into the documented clean fatal exit instead of an exception.
 */
MechanismSpec parseMechanismOrDie(const std::string &text);

/** parseMechanismList() with the fatal-exit policy above. */
std::vector<MechanismSpec>
parseMechanismListOrDie(const std::string &text);

} // namespace tlbpf

#endif // TLBPF_PREFETCH_MECH_SPEC_HH
