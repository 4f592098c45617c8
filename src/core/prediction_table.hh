/**
 * @file
 * Generic on-chip prediction table used by the ASP, MP and DP engines.
 *
 * The table has @c r rows organised as direct-mapped, set-associative
 * (2/4-way) or fully-associative storage with true-LRU replacement
 * within a set, exactly the configurations swept in the paper's
 * Figures 7-9.  Rows are tagged with the full key so aliasing behaves
 * like hardware would.
 */

#ifndef TLBPF_CORE_PREDICTION_TABLE_HH
#define TLBPF_CORE_PREDICTION_TABLE_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/bits.hh"
#include "util/logging.hh"
#include "util/snapshot.hh"
#include "util/wide_set_index.hh"

namespace tlbpf
{

/** Table indexing policy. */
enum class TableAssoc : std::uint32_t
{
    Direct = 1,
    TwoWay = 2,
    FourWay = 4,
    Full = 0
};

/** Short label used in figure legends: D, 2, 4, F. */
std::string assocLabel(TableAssoc assoc);

/** Parse "D"/"2"/"4"/"F" (fatal on anything else). */
TableAssoc parseAssoc(const std::string &label);

/** Geometry of a prediction table. */
struct TableConfig
{
    std::uint32_t rows = 256;
    TableAssoc assoc = TableAssoc::Direct;

    std::uint32_t
    ways() const
    {
        return assoc == TableAssoc::Full
                   ? rows
                   : static_cast<std::uint32_t>(assoc);
    }

    std::uint32_t numSets() const { return rows / ways(); }
};

/**
 * Tagged prediction table storing one Payload per row.
 *
 * @tparam Payload per-row prediction state (POD-ish, default
 *                 constructible).
 */
template <typename Payload>
class PredictionTable
{
  public:
    explicit PredictionTable(const TableConfig &config)
        : _config(config), _ways(config.ways())
    {
        if (config.rows == 0)
            tlbpf_fatal("prediction table needs rows");
        if (config.rows % _ways != 0) {
            tlbpf_fatal("rows (", config.rows,
                        ") not a multiple of ways (", _ways, ")");
        }
        if (!isPowerOfTwo(config.numSets()))
            tlbpf_fatal("prediction table sets must be a power of two");
        _setMask = config.numSets() - 1;
        _rows.resize(config.rows);
        _index = WideSetIndex(config.numSets(), _ways);
    }

    /**
     * Look up @p key; returns the payload and refreshes LRU on a hit,
     * nullptr on a miss.
     */
    Payload *
    find(std::uint64_t key)
    {
        Row *row = findRow(key);
        if (!row)
            return nullptr;
        row->lastUse = ++_clock;
        if (_index.active())
            _index.touch(slotOf(row));
        ++_hits;
        return &row->payload;
    }

    /** Look up without disturbing LRU or counters. */
    const Payload *
    peek(std::uint64_t key) const
    {
        const Row *row =
            const_cast<PredictionTable *>(this)->findRow(key);
        return row ? &row->payload : nullptr;
    }

    /**
     * Look up @p key, allocating (and default-initialising) the row if
     * absent, evicting the set's LRU victim when full.
     */
    Payload &
    findOrInsert(std::uint64_t key)
    {
        if (Payload *p = find(key))
            return *p;
        ++_misses;
        Row *victim = victimRow(key);
        std::uint32_t slot = slotOf(victim);
        if (victim->valid) {
            ++_evictions;
            if (_index.active())
                _index.erase(slot);
        }
        victim->valid = true;
        victim->key = key;
        victim->lastUse = ++_clock;
        victim->payload = Payload{};
        if (_index.active())
            _index.insert(slot, key);
        return victim->payload;
    }

    /** True if a row for @p key is resident. */
    bool contains(std::uint64_t key) const { return peek(key) != nullptr; }

    void
    reset()
    {
        for (Row &row : _rows)
            row.valid = false;
        _index.clear();
        _clock = 0;
        _hits = 0;
        _misses = 0;
        _evictions = 0;
    }

    const TableConfig &config() const { return _config; }
    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }

    /** Number of valid rows (for occupancy diagnostics). */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const Row &row : _rows)
            n += row.valid ? 1 : 0;
        return n;
    }

    /**
     * Serialize the table into @p out: the LRU clock, the hit, miss and
     * eviction counters and the row count, then a varint count of the
     * valid rows and, per valid row in slot order, its slot as a
     * varint delta from the row before (the first from zero), its key
     * and its age (clock - lastUse) as varints, and its Payload through
     * @p write_payload.  The byte string is canonical for a given
     * table state.
     */
    template <typename WritePayload>
    void
    snapshotState(SnapshotWriter &out, WritePayload &&write_payload) const
    {
        out.u64(_clock);
        out.u64(_hits);
        out.u64(_misses);
        out.u64(_evictions);
        out.u64(_rows.size());
        out.varint(occupancy());
        std::uint32_t prev = 0;
        for (std::uint32_t slot = 0; slot < _rows.size(); ++slot) {
            const Row &row = _rows[slot];
            if (!row.valid)
                continue;
            out.varint(slot - prev);
            prev = slot;
            out.varint(row.key);
            out.varint(_clock - row.lastUse);
            write_payload(out, row.payload);
        }
    }

    /**
     * Restore state written by snapshotState() into a table of the
     * same geometry; throws std::invalid_argument (via
     * SnapshotReader::fail) if the row count differs, the rows repeat
     * or come out of slot order, or they are not a state the table can
     * reach: a key outside its set, a use clock ahead of the table's,
     * or, in an indexed wide set, a key held twice.
     */
    template <typename ReadPayload>
    void
    restoreState(SnapshotReader &in, ReadPayload &&read_payload)
    {
        _clock = in.u64();
        _hits = in.u64();
        _misses = in.u64();
        _evictions = in.u64();
        std::uint64_t rows = in.u64();
        if (rows != _rows.size())
            SnapshotReader::fail(
                "prediction table has " + std::to_string(rows) +
                " rows, expected " + std::to_string(_rows.size()));
        std::uint64_t valid = in.varint();
        if (valid > rows)
            SnapshotReader::fail("prediction table lists " +
                                 std::to_string(valid) + " valid rows of " +
                                 std::to_string(rows));
        for (Row &row : _rows)
            row = Row{};
        std::vector<WideSetIndex::Resident> resident;
        std::uint64_t slot = 0;
        for (std::uint64_t i = 0; i < valid; ++i) {
            std::uint64_t delta = in.varint();
            if (delta == 0 && i > 0)
                SnapshotReader::fail("prediction table rows repeat or are "
                                     "out of order in checkpoint");
            if (delta >= rows - slot)
                SnapshotReader::fail("prediction table row past the "
                                     "table's end");
            slot += delta;
            Row &row = _rows[slot];
            row.valid = true;
            row.key = in.varint();
            std::uint64_t age = in.varint();
            if (age > _clock)
                SnapshotReader::fail("prediction table checkpoint row "
                                     "was used after the table's clock");
            row.lastUse = _clock - age;
            if (setBase(row.key) != slot - slot % _ways)
                SnapshotReader::fail("prediction table checkpoint places "
                                     "key " + std::to_string(row.key) +
                                     " in the wrong set");
            read_payload(in, row.payload);
            if (_index.active())
                resident.push_back({static_cast<std::uint32_t>(slot),
                                    row.key, row.lastUse});
        }
        if (!_index.rebuild(std::move(resident)))
            SnapshotReader::fail(
                "duplicate prediction table key in checkpoint");
    }

    /**
     * snapshotState()/restoreState() for the common case of a SlotLru
     * payload (MP's successor pages, DP's distances): forwards each
     * row to the payload's own serializer, with @p slots as the
     * capacity every allocated row must carry.  Only instantiated by
     * tables whose Payload provides the methods.
     */
    void
    snapshotSlotState(SnapshotWriter &out) const
    {
        snapshotState(out, [](SnapshotWriter &w, const Payload &p) {
            p.snapshotState(w);
        });
    }

    void
    restoreSlotState(SnapshotReader &in, std::size_t slots)
    {
        restoreState(in, [slots](SnapshotReader &r, Payload &p) {
            p.restoreState(r, slots);
        });
    }

  private:
    struct Row
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        Payload payload{};
    };

    std::size_t
    setBase(std::uint64_t key) const
    {
        return (key & _setMask) * static_cast<std::size_t>(_ways);
    }

    std::uint32_t
    slotOf(const Row *row) const
    {
        return static_cast<std::uint32_t>(row - _rows.data());
    }

    /**
     * The row a fill of @p key takes: the set's first invalid row in
     * way order, else its least recently used.
     */
    Row *
    victimRow(std::uint64_t key)
    {
        std::size_t base = setBase(key);
        if (_index.active()) {
            auto set = static_cast<std::uint32_t>(base / _ways);
            if (_index.resident(set) == _ways)
                return &_rows[_index.lruSlot(set)];
        }
        Row *victim = nullptr;
        for (std::size_t w = 0; w < _ways; ++w) {
            Row &row = _rows[base + w];
            if (!row.valid)
                return &row;
            if (!victim || row.lastUse < victim->lastUse)
                victim = &row;
        }
        return victim;
    }

    Row *
    findRow(std::uint64_t key)
    {
        if (_index.active()) {
            std::uint32_t slot = _index.find(key);
            return slot == WideSetIndex::kNoSlot ? nullptr : &_rows[slot];
        }
        std::size_t base = setBase(key);
        for (std::size_t w = 0; w < _ways; ++w) {
            Row &row = _rows[base + w];
            if (row.valid && row.key == key)
                return &row;
        }
        return nullptr;
    }

    TableConfig _config;
    std::uint32_t _ways;
    /** numSets() - 1: the set of a key is its low bits. */
    std::uint64_t _setMask = 0;
    std::vector<Row> _rows;
    /**
     * Lookup and victim acceleration for fully-associative tables
     * (MP's 256-row table would otherwise scan every row per lookup).
     * _rows stays authoritative, so victims and snapshot bytes are the
     * same as the scan's.  Inactive for narrow sets.
     */
    WideSetIndex _index;
    std::uint64_t _clock = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

/**
 * Fixed-capacity LRU-ordered slot list: the per-row payload used by MP
 * (predicted pages) and DP (predicted distances).  Front = MRU.
 */
template <typename T, std::size_t MaxSlots = 8>
class SlotLru
{
  public:
    explicit SlotLru(std::size_t capacity) : _capacity(capacity)
    {
        tlbpf_assert(capacity >= 1 && capacity <= MaxSlots,
                     "slot capacity out of range");
    }

    SlotLru() : _capacity(2) {}

    /**
     * Record @p value: promote to MRU if present, otherwise insert at
     * MRU evicting the LRU slot when full.
     */
    void
    addOrPromote(const T &value)
    {
        for (std::size_t i = 0; i < _size; ++i) {
            if (_slots[i] == value) {
                // rotate [0, i] right so value lands at front
                for (std::size_t j = i; j > 0; --j)
                    _slots[j] = _slots[j - 1];
                _slots[0] = value;
                return;
            }
        }
        std::size_t limit = std::min(_size + 1, _capacity);
        for (std::size_t j = limit - 1; j > 0; --j)
            _slots[j] = _slots[j - 1];
        _slots[0] = value;
        _size = limit;
    }

    std::size_t size() const { return _size; }
    std::size_t capacity() const { return _capacity; }
    const T &operator[](std::size_t i) const { return _slots[i]; }

    /**
     * Adjust capacity (used right after a row is allocated, since the
     * table default-constructs payloads).  Shrinking drops LRU slots.
     */
    void
    setCapacity(std::size_t capacity)
    {
        tlbpf_assert(capacity >= 1 && capacity <= MaxSlots,
                     "slot capacity out of range");
        _capacity = capacity;
        if (_size > _capacity)
            _size = _capacity;
    }

    void clear() { _size = 0; }

    /**
     * Serialize capacity, occupancy and slots in LRU order, all as
     * varints (zigzag for a signed T).
     */
    void
    snapshotState(SnapshotWriter &out) const
    {
        out.varint(_capacity);
        out.varint(_size);
        for (std::size_t i = 0; i < _size; ++i) {
            if constexpr (std::is_signed_v<T>)
                out.svarint(static_cast<std::int64_t>(_slots[i]));
            else
                out.varint(static_cast<std::uint64_t>(_slots[i]));
        }
    }

    /**
     * Restore state written by snapshotState().  The serialized
     * capacity must equal @p expected_capacity (the owning
     * mechanism's slots parameter) — like every other component,
     * restoring into a different geometry throws rather than silently
     * reshaping the table.
     */
    void
    restoreState(SnapshotReader &in, std::size_t expected_capacity)
    {
        std::uint64_t capacity = in.varint();
        std::uint64_t size = in.varint();
        if (capacity != expected_capacity)
            SnapshotReader::fail(
                "slot list capacity " + std::to_string(capacity) +
                ", expected " + std::to_string(expected_capacity));
        if (capacity < 1 || capacity > MaxSlots || size > capacity)
            SnapshotReader::fail("slot list shape out of range");
        _capacity = static_cast<std::size_t>(capacity);
        _size = static_cast<std::size_t>(size);
        for (std::size_t i = 0; i < MaxSlots; ++i) {
            if (i >= _size)
                _slots[i] = T{};
            else if constexpr (std::is_signed_v<T>)
                _slots[i] = static_cast<T>(in.svarint());
            else
                _slots[i] = static_cast<T>(in.varint());
        }
    }

  private:
    std::size_t _capacity;
    std::size_t _size = 0;
    T _slots[MaxSlots]{};
};

} // namespace tlbpf

#endif // TLBPF_CORE_PREDICTION_TABLE_HH
