/**
 * @file
 * Unit and parameterised tests for the generic prediction table and
 * the per-row SlotLru payload, plus a naive-table oracle for the
 * indexed fully-associative path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "core/prediction_table.hh"
#include "util/random.hh"

namespace tlbpf
{
namespace
{

struct Payload
{
    int value = 0;
};

TEST(PredictionTable, MissThenHit)
{
    PredictionTable<Payload> table({8, TableAssoc::Direct});
    EXPECT_EQ(table.find(5), nullptr);
    table.findOrInsert(5).value = 7;
    Payload *p = table.find(5);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->value, 7);
    EXPECT_EQ(table.hits(), 1u);
    EXPECT_EQ(table.misses(), 1u);
}

TEST(PredictionTable, DirectMappedConflictEvicts)
{
    PredictionTable<Payload> table({4, TableAssoc::Direct});
    table.findOrInsert(1).value = 10;
    table.findOrInsert(5).value = 50; // 5 % 4 == 1: same row
    EXPECT_EQ(table.find(1), nullptr);
    ASSERT_NE(table.find(5), nullptr);
    EXPECT_EQ(table.find(5)->value, 50);
    EXPECT_EQ(table.evictions(), 1u);
}

TEST(PredictionTable, TwoWayHoldsConflictingPair)
{
    PredictionTable<Payload> table({4, TableAssoc::TwoWay}); // 2 sets
    table.findOrInsert(0).value = 1;
    table.findOrInsert(2).value = 2; // 2 % 2 == 0: same set, way 2
    EXPECT_NE(table.find(0), nullptr);
    EXPECT_NE(table.find(2), nullptr);
    table.findOrInsert(4).value = 3; // evicts LRU of set 0
    EXPECT_EQ(table.occupancy(), 2u);
}

TEST(PredictionTable, SetLruRespectsAccessOrder)
{
    PredictionTable<Payload> table({4, TableAssoc::TwoWay});
    table.findOrInsert(0);
    table.findOrInsert(2);
    table.find(0);           // 2 becomes LRU in set 0
    table.findOrInsert(4);   // evicts 2
    EXPECT_NE(table.find(0), nullptr);
    EXPECT_EQ(table.find(2), nullptr);
    EXPECT_NE(table.find(4), nullptr);
}

TEST(PredictionTable, FullyAssociativeUsesAllRows)
{
    PredictionTable<Payload> table({4, TableAssoc::Full});
    for (std::uint64_t k = 0; k < 4; ++k)
        table.findOrInsert(k * 4); // all alias to set 0 in D mapping
    EXPECT_EQ(table.occupancy(), 4u);
    EXPECT_EQ(table.evictions(), 0u);
    table.findOrInsert(100);
    EXPECT_EQ(table.evictions(), 1u);
}

TEST(PredictionTable, PeekDoesNotDisturbState)
{
    PredictionTable<Payload> table({4, TableAssoc::Direct});
    table.findOrInsert(1);
    std::uint64_t hits = table.hits();
    EXPECT_NE(table.peek(1), nullptr);
    EXPECT_EQ(table.peek(3), nullptr);
    EXPECT_EQ(table.hits(), hits);
}

TEST(PredictionTable, ResetClearsRowsAndCounters)
{
    PredictionTable<Payload> table({4, TableAssoc::Direct});
    table.findOrInsert(1);
    table.reset();
    EXPECT_EQ(table.occupancy(), 0u);
    EXPECT_EQ(table.find(1), nullptr);
    EXPECT_EQ(table.hits(), 0u);
    EXPECT_EQ(table.misses(), 0u); // plain find() never counts misses
}

TEST(PredictionTable, ReinsertAfterEvictionGetsFreshPayload)
{
    PredictionTable<Payload> table({2, TableAssoc::Direct});
    table.findOrInsert(0).value = 99;
    table.findOrInsert(2); // evicts key 0
    EXPECT_EQ(table.findOrInsert(0).value, 0);
}

/** Geometry sweep: the invariants must hold for every paper config. */
class TableGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 TableAssoc>>
{
};

TEST_P(TableGeometry, OccupancyBoundedAndKeysFindable)
{
    auto [rows, assoc] = GetParam();
    PredictionTable<Payload> table({rows, assoc});
    // Insert 4x the capacity with scattered keys.
    for (std::uint64_t k = 0; k < rows * 4ull; ++k) {
        table.findOrInsert(k * 7 + 1).value = static_cast<int>(k);
        EXPECT_LE(table.occupancy(), rows);
    }
    // A freshly inserted key is immediately findable.
    table.findOrInsert(999999).value = -1;
    ASSERT_NE(table.find(999999), nullptr);
    EXPECT_EQ(table.find(999999)->value, -1);
}

TEST_P(TableGeometry, WaysMatchAssoc)
{
    auto [rows, assoc] = GetParam();
    TableConfig config{rows, assoc};
    if (assoc == TableAssoc::Full) {
        EXPECT_EQ(config.ways(), rows);
        EXPECT_EQ(config.numSets(), 1u);
    } else {
        EXPECT_EQ(config.ways(), static_cast<std::uint32_t>(assoc));
        EXPECT_EQ(config.numSets() * config.ways(), rows);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, TableGeometry,
    ::testing::Combine(::testing::Values(32u, 64u, 128u, 256u, 512u,
                                         1024u),
                       ::testing::Values(TableAssoc::Direct,
                                         TableAssoc::TwoWay,
                                         TableAssoc::FourWay,
                                         TableAssoc::Full)));

// ------------------------------------------------- naive-table oracle

/**
 * A deliberately naive prediction table: a vector of rows, a linear
 * find over the key's set, and a victim that is the set's first
 * invalid row or else its minimum use clock.  The indexed table must
 * be indistinguishable from it, snapshot bytes included.
 */
class NaiveTable
{
  public:
    explicit NaiveTable(const TableConfig &config)
        : _config(config), _rows(config.rows)
    {
    }

    Payload *
    find(std::uint64_t key)
    {
        Row *row = lookup(key);
        if (!row)
            return nullptr;
        row->lastUse = ++_clock;
        ++_hits;
        return &row->payload;
    }

    const Payload *
    peek(std::uint64_t key)
    {
        Row *row = lookup(key);
        return row ? &row->payload : nullptr;
    }

    Payload &
    findOrInsert(std::uint64_t key)
    {
        if (Payload *p = find(key))
            return *p;
        ++_misses;
        Row *victim = nullptr;
        for (std::size_t i = setBase(key); i < setBase(key) + ways(); ++i) {
            if (!_rows[i].valid) {
                victim = &_rows[i];
                break;
            }
            if (!victim || _rows[i].lastUse < victim->lastUse)
                victim = &_rows[i];
        }
        if (victim->valid)
            ++_evictions;
        *victim = Row{key, ++_clock, true, Payload{}};
        return victim->payload;
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }

    /** PredictionTable::snapshotState's byte format, written anew. */
    std::vector<std::uint8_t>
    snapshotBytes() const
    {
        SnapshotWriter out;
        out.u64(_clock);
        out.u64(_hits);
        out.u64(_misses);
        out.u64(_evictions);
        out.u64(_rows.size());
        std::vector<std::size_t> valid;
        for (std::size_t slot = 0; slot < _rows.size(); ++slot)
            if (_rows[slot].valid)
                valid.push_back(slot);
        out.varint(valid.size());
        for (std::size_t i = 0; i < valid.size(); ++i) {
            const Row &row = _rows[valid[i]];
            out.varint(i == 0 ? valid[i] : valid[i] - valid[i - 1]);
            out.varint(row.key);
            out.varint(_clock - row.lastUse);
            out.i64(row.payload.value);
        }
        return out.take();
    }

  private:
    struct Row
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        Payload payload;
    };

    std::size_t ways() const { return _config.ways(); }

    std::size_t
    setBase(std::uint64_t key) const
    {
        return (key % _config.numSets()) * ways();
    }

    Row *
    lookup(std::uint64_t key)
    {
        for (std::size_t i = setBase(key); i < setBase(key) + ways(); ++i)
            if (_rows[i].valid && _rows[i].key == key)
                return &_rows[i];
        return nullptr;
    }

    TableConfig _config;
    std::vector<Row> _rows;
    std::uint64_t _clock = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

/** One table operation of a seeded stream. */
struct TableOp
{
    enum class Kind
    {
        Find,
        FindOrInsert,
        Peek
    };

    Kind kind;
    std::uint64_t key;
};

/**
 * @p count seeded operations whose keys mostly come from twice the
 * table's size, so they hit, miss and evict; an occasional full-width
 * key exercises the index's hash.
 */
std::vector<TableOp>
tableOps(std::uint64_t seed, std::uint32_t rows, std::size_t count)
{
    Rng rng(seed);
    std::vector<TableOp> ops;
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t key =
            rng.chance(0.05) ? rng.next() : rng.nextBelow(2ull * rows);
        double pick = rng.nextDouble();
        TableOp::Kind kind = pick < 0.3   ? TableOp::Kind::Find
                             : pick < 0.9 ? TableOp::Kind::FindOrInsert
                                          : TableOp::Kind::Peek;
        ops.push_back({kind, key});
    }
    return ops;
}

/**
 * Apply ops [@p from, @p to) to @p table.  Each op's outcome is the
 * payload value it saw, or -1 for no row; an insert or hit through
 * findOrInsert then stamps the row with the op's number.
 */
template <typename Table>
std::vector<int>
drive(Table &table, const std::vector<TableOp> &ops, std::size_t from,
      std::size_t to)
{
    std::vector<int> seen;
    seen.reserve(to - from);
    for (std::size_t i = from; i < to; ++i) {
        const TableOp &op = ops[i];
        switch (op.kind) {
          case TableOp::Kind::Find: {
            Payload *p = table.find(op.key);
            seen.push_back(p ? p->value : -1);
            break;
          }
          case TableOp::Kind::FindOrInsert: {
            Payload &p = table.findOrInsert(op.key);
            seen.push_back(p.value);
            p.value = static_cast<int>(i) + 1;
            break;
          }
          case TableOp::Kind::Peek: {
            const Payload *p = table.peek(op.key);
            seen.push_back(p ? p->value : -1);
            break;
          }
        }
    }
    return seen;
}

std::vector<std::uint8_t>
snapshotBytes(const PredictionTable<Payload> &table)
{
    SnapshotWriter out;
    table.snapshotState(out, [](SnapshotWriter &w, const Payload &p) {
        w.i64(p.value);
    });
    return out.take();
}

void
expectSameState(const PredictionTable<Payload> &table,
                const NaiveTable &naive)
{
    EXPECT_EQ(table.hits(), naive.hits());
    EXPECT_EQ(table.misses(), naive.misses());
    EXPECT_EQ(table.evictions(), naive.evictions());
    EXPECT_EQ(snapshotBytes(table), naive.snapshotBytes());
}

class IndexedTableOracle
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(IndexedTableOracle, MatchesTheNaiveTable)
{
    constexpr std::size_t kOps = 20000;
    constexpr std::size_t kMid = kOps / 2;
    TableConfig config{GetParam(), TableAssoc::Full};
    std::vector<TableOp> ops = tableOps(config.rows, config.rows, kOps);
    PredictionTable<Payload> table(config);
    NaiveTable naive(config);

    EXPECT_EQ(drive(table, ops, 0, kMid), drive(naive, ops, 0, kMid));
    expectSameState(table, naive);

    // Snapshot -> restore -> continue equals the uninterrupted run.
    std::vector<std::uint8_t> bytes = snapshotBytes(table);
    PredictionTable<Payload> restored(config);
    SnapshotReader in(bytes);
    restored.restoreState(in, [](SnapshotReader &r, Payload &p) {
        p.value = static_cast<int>(r.i64());
    });
    EXPECT_TRUE(in.atEnd());
    std::vector<int> tail = drive(table, ops, kMid, kOps);
    EXPECT_EQ(drive(restored, ops, kMid, kOps), tail);
    EXPECT_EQ(drive(naive, ops, kMid, kOps), tail);
    expectSameState(table, naive);
    expectSameState(restored, naive);

    // After reset() the table behaves like a fresh one.
    table.reset();
    EXPECT_EQ(snapshotBytes(table),
              snapshotBytes(PredictionTable<Payload>(config)));
    NaiveTable fresh(config);
    std::vector<TableOp> again =
        tableOps(config.rows + 1, config.rows, kOps);
    EXPECT_EQ(drive(table, again, 0, kOps),
              drive(fresh, again, 0, kOps));
    expectSameState(table, fresh);
}

INSTANTIATE_TEST_SUITE_P(FullyAssociative, IndexedTableOracle,
                         ::testing::Values(16u, 256u, 1024u));

/**
 * A checkpoint of a @p config table with use clock @p clock whose
 * valid rows are @p rows, each {slot, key, lastUse}.
 */
std::vector<std::uint8_t>
craftedTable(const TableConfig &config, std::uint64_t clock,
             const std::vector<std::array<std::uint64_t, 3>> &rows)
{
    SnapshotWriter out;
    out.u64(clock);
    out.u64(0); // hits
    out.u64(0); // misses
    out.u64(0); // evictions
    out.u64(config.rows);
    out.varint(rows.size());
    std::uint64_t prev = 0;
    for (std::uint64_t slot = 0; slot < config.rows; ++slot) {
        auto row = std::find_if(rows.begin(), rows.end(),
                                [&](const auto &r) { return r[0] == slot; });
        if (row == rows.end())
            continue;
        out.varint(slot - prev);
        prev = slot;
        out.varint((*row)[1]);
        out.varint(clock - (*row)[2]); // wraps for a row used after it
        out.i64(0);
    }
    return out.take();
}

void
restoreCrafted(const TableConfig &config,
               const std::vector<std::uint8_t> &bytes)
{
    PredictionTable<Payload> table(config);
    SnapshotReader in(bytes);
    table.restoreState(in, [](SnapshotReader &r, Payload &p) {
        p.value = static_cast<int>(r.i64());
    });
}

/** Restore accepts only states the table itself can reach. */
TEST(PredictionTable, RestoreRejectsUnreachableStates)
{
    TableConfig direct{4, TableAssoc::Direct};
    TableConfig full{16, TableAssoc::Full};
    // Key 5 belongs in row 1 of a 4-row direct-mapped table.
    EXPECT_NO_THROW(
        restoreCrafted(direct, craftedTable(direct, 5, {{1, 5, 5}})));
    EXPECT_THROW(
        restoreCrafted(direct, craftedTable(direct, 5, {{2, 5, 5}})),
        std::invalid_argument);
    // A row used after the table's clock.
    EXPECT_THROW(restoreCrafted(full, craftedTable(full, 5, {{0, 7, 6}})),
                 std::invalid_argument);
    // One key in two rows of an indexed fully-associative table.
    EXPECT_NO_THROW(
        restoreCrafted(full, craftedTable(full, 5, {{0, 7, 4}, {3, 8, 5}})));
    EXPECT_THROW(
        restoreCrafted(full, craftedTable(full, 5, {{0, 7, 4}, {3, 7, 5}})),
        std::invalid_argument);
}

/**
 * Rows come in strictly ascending slot order, each a slot delta from
 * the one before: a zero delta after the first row repeats a slot, and
 * a delta may not run past the table.
 */
TEST(PredictionTable, RestoreRejectsRowsOutOfOrder)
{
    TableConfig full{16, TableAssoc::Full};
    auto crafted = [&](std::vector<std::uint64_t> deltas) {
        SnapshotWriter out;
        out.u64(5); // clock
        out.u64(0); // hits
        out.u64(0); // misses
        out.u64(0); // evictions
        out.u64(full.rows);
        out.varint(deltas.size());
        for (std::size_t i = 0; i < deltas.size(); ++i) {
            out.varint(deltas[i]);
            out.varint(7 + i); // key
            out.varint(i);     // age
            out.i64(0);
        }
        return out.take();
    };
    EXPECT_NO_THROW(restoreCrafted(full, crafted({0, 3, 12})));
    EXPECT_THROW(restoreCrafted(full, crafted({0, 3, 0})),
                 std::invalid_argument);
    EXPECT_THROW(restoreCrafted(full, crafted({0, 3, 13})),
                 std::invalid_argument);
    EXPECT_THROW(restoreCrafted(full, crafted({16})), std::invalid_argument);
}

TEST(AssocLabel, RoundTrips)
{
    for (TableAssoc assoc : {TableAssoc::Direct, TableAssoc::TwoWay,
                             TableAssoc::FourWay, TableAssoc::Full})
        EXPECT_EQ(parseAssoc(assocLabel(assoc)), assoc);
    EXPECT_EXIT(parseAssoc("8"), ::testing::ExitedWithCode(1),
                "bad table associativity");
}

TEST(SlotLru, InsertsAtFront)
{
    SlotLru<int> slots(3);
    slots.addOrPromote(1);
    slots.addOrPromote(2);
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0], 2);
    EXPECT_EQ(slots[1], 1);
}

TEST(SlotLru, PromoteMovesToFrontWithoutGrowth)
{
    SlotLru<int> slots(3);
    slots.addOrPromote(1);
    slots.addOrPromote(2);
    slots.addOrPromote(3);
    slots.addOrPromote(1);
    ASSERT_EQ(slots.size(), 3u);
    EXPECT_EQ(slots[0], 1);
    EXPECT_EQ(slots[1], 3);
    EXPECT_EQ(slots[2], 2);
}

TEST(SlotLru, EvictsLruWhenFull)
{
    SlotLru<int> slots(2);
    slots.addOrPromote(1);
    slots.addOrPromote(2);
    slots.addOrPromote(3); // evicts 1
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0], 3);
    EXPECT_EQ(slots[1], 2);
}

TEST(SlotLru, SetCapacityShrinksFromLruEnd)
{
    SlotLru<int> slots(4);
    slots.addOrPromote(1);
    slots.addOrPromote(2);
    slots.addOrPromote(3);
    slots.setCapacity(2);
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0], 3);
    EXPECT_EQ(slots[1], 2);
}

TEST(SlotLru, ClearEmpties)
{
    SlotLru<int> slots(2);
    slots.addOrPromote(1);
    slots.clear();
    EXPECT_EQ(slots.size(), 0u);
}

} // namespace
} // namespace tlbpf
