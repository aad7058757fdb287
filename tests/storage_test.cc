#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "storage/event_store.h"
#include "storage/storage_backend.h"
#include "tests/forwarding_backend.h"
#include "util/rng.h"

namespace aptrace {
namespace {

Event MakeEvent(ObjectId subject, ObjectId object, TimeMicros t,
                ActionType action, HostId host = 0) {
  Event e;
  e.subject = subject;
  e.object = object;
  e.timestamp = t;
  e.action = action;
  e.direction = ActionDefaultDirection(action);
  e.host = host;
  return e;
}

/// The row contract of every Collect*: each row equals Get(row.id) field
/// for field, and rows ascend strictly by (timestamp, id).
void ExpectRowContract(const EventStore& store, const RangeScanBatch& batch,
                       const std::string& label) {
  for (size_t i = 0; i < batch.rows.size(); ++i) {
    const Event& row = batch.rows[i];
    EXPECT_EQ(row, store.Get(row.id)) << label << " row " << i;
    if (i == 0) continue;
    const Event& prev = batch.rows[i - 1];
    EXPECT_TRUE(prev.timestamp < row.timestamp ||
                (prev.timestamp == row.timestamp && prev.id < row.id))
        << label << " rows " << i - 1 << ", " << i << " out of order";
  }
}

class EventStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    host_ = store_.catalog().InternHost("h1");
    proc_a_ = store_.catalog().AddProcess(host_, {.exename = "a.exe"});
    proc_b_ = store_.catalog().AddProcess(host_, {.exename = "b.exe"});
    file_x_ = store_.catalog().AddFile(host_, {.path = "/x"});
    file_y_ = store_.catalog().AddFile(host_, {.path = "/y"});
  }

  EventStore store_;
  HostId host_ = 0;
  ObjectId proc_a_ = 0, proc_b_ = 0, file_x_ = 0, file_y_ = 0;
};

TEST_F(EventStoreTest, AppendAssignsSequentialIds) {
  const EventId a = store_.Append(
      MakeEvent(proc_a_, file_x_, 100, ActionType::kWrite, host_));
  const EventId b = store_.Append(
      MakeEvent(proc_a_, file_y_, 200, ActionType::kWrite, host_));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(store_.NumEvents(), 2u);
  EXPECT_EQ(store_.MinTime(), 100);
  EXPECT_EQ(store_.MaxTime(), 200);
}

TEST_F(EventStoreTest, ScanDestReturnsOnlyMatchingWindow) {
  // Three writes into file_x at t = 100, 200, 300; one into file_y.
  store_.Append(MakeEvent(proc_a_, file_x_, 100, ActionType::kWrite, host_));
  store_.Append(MakeEvent(proc_b_, file_x_, 200, ActionType::kWrite, host_));
  store_.Append(MakeEvent(proc_a_, file_x_, 300, ActionType::kWrite, host_));
  store_.Append(MakeEvent(proc_a_, file_y_, 150, ActionType::kWrite, host_));
  store_.Seal();

  std::vector<TimeMicros> times;
  const size_t n = store_.ScanDest(file_x_, 100, 300, nullptr,
                                   [&](const Event& e) {
                                     times.push_back(e.timestamp);
                                   });
  EXPECT_EQ(n, 2u);  // [100, 300) is half-open
  EXPECT_EQ(times, (std::vector<TimeMicros>{100, 200}));
}

TEST_F(EventStoreTest, ScanDestHonorsFlowDirection) {
  // A read flows file -> proc, so the *process* is the destination.
  store_.Append(MakeEvent(proc_a_, file_x_, 100, ActionType::kRead, host_));
  store_.Seal();
  EXPECT_EQ(store_.ScanDest(proc_a_, 0, 1000, nullptr, nullptr), 1u);
  EXPECT_EQ(store_.ScanDest(file_x_, 0, 1000, nullptr, nullptr), 0u);
}

TEST_F(EventStoreTest, ScanChargesSimulatedCost) {
  EventStoreOptions options;
  options.cost_model.query_overhead = 1000;
  options.cost_model.per_row_fetch = 10;
  options.cost_model.per_partition_probe = 0;
  options.cost_model.per_partition_seek = 0;
  EventStore store(options);
  const HostId h = store.catalog().InternHost("h");
  const ObjectId p = store.catalog().AddProcess(h, {.exename = "p"});
  const ObjectId f = store.catalog().AddFile(h, {.path = "/f"});
  for (int i = 0; i < 5; ++i) {
    store.Append(MakeEvent(p, f, 100 + i, ActionType::kWrite, h));
  }
  store.Seal();

  SimClock clock;
  store.ScanDest(f, 0, 1000, &clock, nullptr);
  EXPECT_EQ(clock.NowMicros(), 1000 + 5 * 10);
  EXPECT_EQ(store.stats().queries, 1u);
  EXPECT_EQ(store.stats().rows_matched, 5u);
  EXPECT_EQ(store.stats().simulated_cost, clock.NowMicros());
}

TEST_F(EventStoreTest, ScanRangeVisitsAllInOrder) {
  store_.Append(MakeEvent(proc_a_, file_x_, 300, ActionType::kWrite, host_));
  store_.Append(MakeEvent(proc_a_, file_y_, 100, ActionType::kWrite, host_));
  store_.Append(MakeEvent(proc_b_, file_x_, 200, ActionType::kRead, host_));
  store_.Seal();
  std::vector<TimeMicros> times;
  store_.ScanRange(0, 1000, nullptr,
                   [&](const Event& e) { times.push_back(e.timestamp); });
  EXPECT_EQ(times, (std::vector<TimeMicros>{100, 200, 300}));
}

TEST_F(EventStoreTest, HasIncomingWriteTracksFlowsIntoObject) {
  store_.Append(MakeEvent(proc_a_, file_x_, 100, ActionType::kWrite, host_));
  store_.Append(MakeEvent(proc_a_, file_y_, 200, ActionType::kRead, host_));
  store_.Seal();
  EXPECT_TRUE(store_.HasIncomingWrite(file_x_, 0, 1000));
  // file_y was only read (flow out of it): it is "read-only".
  EXPECT_FALSE(store_.HasIncomingWrite(file_y_, 0, 1000));
  // Range matters.
  EXPECT_FALSE(store_.HasIncomingWrite(file_x_, 101, 1000));
}

TEST_F(EventStoreTest, FlowDestsOfDeduplicates) {
  store_.Append(MakeEvent(proc_a_, file_x_, 100, ActionType::kWrite, host_));
  store_.Append(MakeEvent(proc_a_, file_x_, 200, ActionType::kWrite, host_));
  store_.Append(MakeEvent(proc_a_, file_y_, 300, ActionType::kWrite, host_));
  store_.Seal();
  const auto dests = store_.FlowDestsOf(proc_a_, 0, 1000);
  EXPECT_EQ(dests.size(), 2u);
  EXPECT_TRUE(std::is_sorted(dests.begin(), dests.end()));
}

TEST_F(EventStoreTest, EmptyStoreSealsSafely) {
  store_.Seal();
  EXPECT_EQ(store_.MinTime(), 0);
  EXPECT_EQ(store_.MaxTime(), 0);
  EXPECT_EQ(store_.ScanDest(proc_a_, 0, 100, nullptr, nullptr), 0u);
}

TEST_F(EventStoreTest, EmptyRangeIsEmpty) {
  store_.Append(MakeEvent(proc_a_, file_x_, 100, ActionType::kWrite, host_));
  store_.Seal();
  EXPECT_EQ(store_.ScanDest(file_x_, 100, 100, nullptr, nullptr), 0u);
  EXPECT_EQ(store_.ScanDest(file_x_, 200, 100, nullptr, nullptr), 0u);
}

// Property test: ScanDest agrees with a brute-force filter over random
// event soups, across partition boundaries.
class ScanDestPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ScanDestPropertyTest, AgreesWithBruteForce) {
  EventStoreOptions options;
  options.partition_micros = 1000;  // small partitions to stress boundaries
  EventStore store(options);
  Rng rng(GetParam());

  const HostId h = store.catalog().InternHost("h");
  std::vector<ObjectId> procs;
  std::vector<ObjectId> objects;
  for (int i = 0; i < 6; ++i) {
    procs.push_back(store.catalog().AddProcess(h, {.exename = "p"}));
  }
  for (int i = 0; i < 10; ++i) {
    objects.push_back(store.catalog().AddFile(h, {.path = "/f"}));
  }
  std::vector<Event> all;
  for (int i = 0; i < 500; ++i) {
    const ActionType action = rng.Bernoulli(0.5) ? ActionType::kWrite
                                                 : ActionType::kRead;
    Event e = MakeEvent(procs[rng.Uniform(procs.size())],
                        objects[rng.Uniform(objects.size())],
                        static_cast<TimeMicros>(rng.Uniform(10000)), action,
                        h);
    e.id = store.Append(e);
    all.push_back(e);
  }
  store.Seal();

  for (int trial = 0; trial < 50; ++trial) {
    const ObjectId dest = rng.Bernoulli(0.5)
                              ? procs[rng.Uniform(procs.size())]
                              : objects[rng.Uniform(objects.size())];
    TimeMicros lo = static_cast<TimeMicros>(rng.Uniform(11000));
    TimeMicros hi = static_cast<TimeMicros>(rng.Uniform(11000));
    if (lo > hi) std::swap(lo, hi);

    std::vector<EventId> got;
    store.ScanDest(dest, lo, hi, nullptr,
                   [&](const Event& e) { got.push_back(e.id); });

    std::vector<EventId> want;
    for (const Event& e : all) {
      if (e.FlowDest() == dest && e.timestamp >= lo && e.timestamp < hi) {
        want.push_back(e.id);
      }
    }
    std::sort(want.begin(), want.end(), [&](EventId a, EventId b) {
      if (all[a].timestamp != all[b].timestamp)
        return all[a].timestamp < all[b].timestamp;
      return a < b;
    });
    EXPECT_EQ(got, want) << "dest=" << dest << " [" << lo << "," << hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanDestPropertyTest,
                         testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Backend equivalence: the columnar segment store must return the same
// rows in the same order as the row store for every query shape, while
// probing no more storage units (zone maps only ever skip work).

/// Builds two stores over identical catalogs and events, one per
/// backend; `segment_rows` is kept small so the columnar store has many
/// segments to prune. A third, `pinned`, is a columnar store with one
/// shard whatever APTRACE_SHARDS says, so its probe accounting can be
/// checked against exact totals.
struct BackendPair {
  EventStore row;
  EventStore columnar;
  EventStore pinned;

  static EventStoreOptions Options(StorageBackendKind kind) {
    EventStoreOptions options;
    options.partition_micros = 1000;
    options.backend = kind;
    options.segment_rows = 32;
    return options;
  }
  static EventStoreOptions PinnedOptions() {
    EventStoreOptions options = Options(StorageBackendKind::kColumnar);
    options.shards = 1;
    return options;
  }

  BackendPair()
      : row(Options(StorageBackendKind::kRow)),
        columnar(Options(StorageBackendKind::kColumnar)),
        pinned(PinnedOptions()) {}

  void Append(const Event& e) {
    row.Append(e);
    columnar.Append(e);
    pinned.Append(e);
  }
  void Seal() {
    row.Seal();
    columnar.Seal();
    pinned.Seal();
  }
  /// Collects and replays one keyed dest and src probe on `pinned`.
  void ReplayPinned(ObjectId key, TimeMicros lo, TimeMicros hi) {
    SimClock clock;
    pinned.ReplayScan(pinned.CollectDest(key, lo, hi), &clock, nullptr);
    pinned.ReplayScan(pinned.CollectSrc(key, lo, hi), &clock, nullptr);
  }
};

/// Exact cumulative StoreStats of BackendPair::pinned after one seed's
/// queries, recorded from the full column scan that the posting lists
/// replaced: a probe walk that finds other rows, or counts probed,
/// seeked or pruned segments differently, changes the simulated cost.
struct PinnedTotals {
  uint64_t seed;
  uint64_t queries;
  uint64_t rows_matched;
  uint64_t partitions_probed;
  uint64_t partitions_seeked;
  uint64_t segments_pruned;
  DurationMicros simulated_cost;
};

void ExpectPinnedTotals(const StoreStats& got,
                        const std::vector<PinnedTotals>& table,
                        uint64_t seed) {
  const auto want =
      std::find_if(table.begin(), table.end(),
                   [seed](const PinnedTotals& t) { return t.seed == seed; });
  ASSERT_NE(want, table.end()) << "no pinned totals for seed " << seed;
  EXPECT_EQ(got.queries, want->queries);
  EXPECT_EQ(got.rows_matched, want->rows_matched);
  EXPECT_EQ(got.rows_filtered, 0u);
  EXPECT_EQ(got.partitions_probed, want->partitions_probed);
  EXPECT_EQ(got.partitions_seeked, want->partitions_seeked);
  EXPECT_EQ(got.segments_pruned, want->segments_pruned);
  EXPECT_EQ(got.simulated_cost, want->simulated_cost);
}

class BackendEquivalenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BackendEquivalenceTest, ColumnarMatchesRowStore) {
  Rng rng(GetParam());
  BackendPair pair;
  std::vector<ObjectId> keys;
  for (auto* store : {&pair.row, &pair.columnar, &pair.pinned}) {
    ObjectCatalog& c = store->catalog();
    const HostId h1 = c.InternHost("h1");
    const HostId h2 = c.InternHost("h2");
    std::vector<ObjectId> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(c.AddProcess(i % 2 ? h1 : h2, {.exename = "p"}));
    }
    for (int i = 0; i < 10; ++i) {
      ids.push_back(c.AddFile(i % 2 ? h1 : h2, {.path = "/f"}));
    }
    keys = ids;  // identical in both catalogs
  }
  for (int i = 0; i < 600; ++i) {
    Event e = MakeEvent(keys[rng.Uniform(6)], keys[6 + rng.Uniform(10)],
                        static_cast<TimeMicros>(rng.Uniform(50000)),
                        rng.Bernoulli(0.5) ? ActionType::kWrite
                                           : ActionType::kRead,
                        static_cast<HostId>(rng.Uniform(2)));
    pair.Append(e);
  }
  pair.Seal();

  for (int trial = 0; trial < 60; ++trial) {
    const ObjectId key = keys[rng.Uniform(keys.size())];
    TimeMicros lo = static_cast<TimeMicros>(rng.Uniform(52000));
    TimeMicros hi =
        lo + static_cast<TimeMicros>(rng.Uniform(8000));  // narrow window
    const auto label = [&] {
      return std::string("key=") + std::to_string(key) + " [" +
             std::to_string(lo) + "," + std::to_string(hi) + ")";
    };

    const RangeScanBatch rd = pair.row.CollectDest(key, lo, hi);
    const RangeScanBatch cd = pair.columnar.CollectDest(key, lo, hi);
    EXPECT_EQ(cd.rows, rd.rows) << "CollectDest " << label();
    EXPECT_EQ(rd.segments_pruned, 0u);

    const RangeScanBatch rs = pair.row.CollectSrc(key, lo, hi);
    const RangeScanBatch cs = pair.columnar.CollectSrc(key, lo, hi);
    EXPECT_EQ(cs.rows, rs.rows) << "CollectSrc " << label();

    const RangeScanBatch rr = pair.row.CollectRange(lo, hi);
    const RangeScanBatch cr = pair.columnar.CollectRange(lo, hi);
    EXPECT_EQ(cr.rows, rr.rows) << "CollectRange " << label();
    ExpectRowContract(pair.row, rd, "row CollectDest " + label());
    ExpectRowContract(pair.row, rs, "row CollectSrc " + label());
    ExpectRowContract(pair.row, rr, "row CollectRange " + label());
    ExpectRowContract(pair.columnar, cd, "columnar CollectDest " + label());
    ExpectRowContract(pair.columnar, cs, "columnar CollectSrc " + label());
    ExpectRowContract(pair.columnar, cr, "columnar CollectRange " + label());

    EXPECT_EQ(pair.columnar.HasIncomingWrite(key, lo, hi),
              pair.row.HasIncomingWrite(key, lo, hi))
        << label();
    EXPECT_EQ(pair.columnar.FlowDestsOf(key, lo, hi),
              pair.row.FlowDestsOf(key, lo, hi))
        << label();

    // Replaying the collected batches charges the probe accounting
    // checked below.
    SimClock rc, cc;
    EXPECT_EQ(pair.columnar.ReplayScan(cd, &cc, nullptr),
              pair.row.ReplayScan(rd, &rc, nullptr))
        << label();
    pair.ReplayPinned(key, lo, hi);
  }

  // Aggregate probe accounting: pruning may only reduce work. Over 60
  // narrow windows with 32-row segments the zone maps must have skipped
  // at least one segment.
  const StoreStats row_stats = pair.row.stats();
  const StoreStats columnar_stats = pair.columnar.stats();
  EXPECT_LE(columnar_stats.partitions_probed, row_stats.partitions_probed);
  EXPECT_GT(columnar_stats.segments_pruned, 0u);
  EXPECT_EQ(row_stats.segments_pruned, 0u);

  static const std::vector<PinnedTotals> kTotals = {
      // seed, queries, rows, probed, seeked, pruned, simulated cost
      {11, 120, 282, 222, 157, 50, 43172000},
      {22, 120, 287, 223, 154, 39, 43160000},
      {33, 120, 361, 244, 183, 48, 44500000},
      {44, 120, 354, 259, 200, 41, 44904000},
      {55, 120, 404, 272, 201, 38, 45428000},
  };
  ExpectPinnedTotals(pair.pinned.stats(), kTotals, GetParam());
}

// Streaming ingestion: post-seal appends must be visible to queries on
// both backends identically (the columnar store routes them through its
// unsorted tail and merges by (timestamp, id) at query time).
TEST_P(BackendEquivalenceTest, StreamingAppendsAgree) {
  Rng rng(GetParam() ^ 0x7a11);
  BackendPair pair;
  ObjectId proc = 0, file = 0;
  for (auto* store : {&pair.row, &pair.columnar, &pair.pinned}) {
    ObjectCatalog& c = store->catalog();
    const HostId h = c.InternHost("h");
    proc = c.AddProcess(h, {.exename = "p"});
    file = c.AddFile(h, {.path = "/f"});
  }
  for (int i = 0; i < 100; ++i) {
    pair.Append(MakeEvent(proc, file,
                          static_cast<TimeMicros>(rng.Uniform(5000)),
                          ActionType::kWrite));
  }
  pair.Seal();
  // Late events land out of order, interleaved with the sealed range.
  for (int i = 0; i < 40; ++i) {
    pair.Append(MakeEvent(proc, file,
                          static_cast<TimeMicros>(rng.Uniform(10000)),
                          ActionType::kWrite));
  }

  EXPECT_EQ(pair.columnar.NumEvents(), pair.row.NumEvents());
  for (EventId id = 0; id < pair.row.NumEvents(); ++id) {
    EXPECT_EQ(pair.columnar.Get(id).timestamp, pair.row.Get(id).timestamp)
        << "id=" << id;
  }
  EXPECT_EQ(pair.columnar.CollectDest(file, 0, 10000).rows,
            pair.row.CollectDest(file, 0, 10000).rows);
  EXPECT_EQ(pair.columnar.CollectRange(2000, 8000).rows,
            pair.row.CollectRange(2000, 8000).rows);
  // The columnar collects below merge sealed segments with the hot tail.
  for (EventStore* store : {&pair.row, &pair.columnar}) {
    const std::string kind = store->backend().name();
    ExpectRowContract(*store, store->CollectDest(file, 0, 10000),
                      kind + " CollectDest");
    ExpectRowContract(*store, store->CollectSrc(proc, 1500, 7500),
                      kind + " CollectSrc");
    ExpectRowContract(*store, store->CollectRange(2000, 8000),
                      kind + " CollectRange");
  }

  // Keyed probes that straddle segments and the hot tail, each column.
  pair.ReplayPinned(file, 0, 10000);
  pair.ReplayPinned(proc, 1500, 7500);
  pair.ReplayPinned(file, 4000, 4600);
  static const std::vector<PinnedTotals> kTotals = {
      // seed, queries, rows, probed, seeked, pruned, simulated cost
      {11, 6, 234, 14, 11, 8, 4004000},
      {22, 6, 235, 14, 11, 8, 4012000},
      {33, 6, 243, 15, 12, 9, 4104000},
      {44, 6, 255, 15, 12, 9, 4200000},
      {55, 6, 243, 15, 12, 9, 4104000},
  };
  ExpectPinnedTotals(pair.pinned.stats(), kTotals, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         testing::Values(11, 22, 33, 44, 55));

// Zone maps prune segments that cannot contain the key or the window:
// activity concentrated in distinct eras means a narrow scan skips the
// other eras' segments entirely.
TEST(ColumnarPruningTest, DisjointErasAreSkipped) {
  EventStoreOptions options;
  options.backend = StorageBackendKind::kColumnar;
  options.segment_rows = 16;
  EventStore store(options);
  ObjectCatalog& c = store.catalog();
  const HostId h = c.InternHost("h");
  const ObjectId p = c.AddProcess(h, {.exename = "p"});
  const ObjectId early = c.AddFile(h, {.path = "/early"});
  const ObjectId late = c.AddFile(h, {.path = "/late"});
  for (int i = 0; i < 64; ++i) {
    store.Append(MakeEvent(p, early, 1000 + i, ActionType::kWrite, h));
  }
  for (int i = 0; i < 64; ++i) {
    store.Append(MakeEvent(p, late, 900000 + i, ActionType::kWrite, h));
  }
  store.Seal();

  // A narrow scan never reaches the late era's segments at all: the
  // global (timestamp, id) sort bounds the candidate range, so they are
  // neither probed nor counted as pruned.
  const RangeScanBatch b = store.CollectDest(early, 0, 2000);
  EXPECT_EQ(b.rows.size(), 64u);
  EXPECT_EQ(b.segments_pruned, 0u);
  EXPECT_LE(b.partitions_probed, 4u);  // 64 rows / 16-row segments
  // A whole-range scan for one key still prunes on the key zone: the
  // late segments' dest fingerprints cannot contain `early`.
  const RangeScanBatch all = store.CollectDest(early, 0, 1000000);
  EXPECT_EQ(all.rows.size(), 64u);
  EXPECT_GT(all.segments_pruned, 0u);
}

// ---------------------------------------------------------------------
// Sharded store: N shard backends behind one StorageBackend facade must
// answer every query shape identically to the monolithic store, while
// the per-shard counters reconcile exactly against the store totals in
// every snapshot (docs/sharding.md).

class ShardEquivalenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ShardEquivalenceTest, ShardedMatchesMonolithic) {
  for (const size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    for (const StorageBackendKind backend :
         {StorageBackendKind::kRow, StorageBackendKind::kColumnar}) {
      EventStoreOptions options;
      options.partition_micros = 1000;
      options.segment_rows = 32;
      options.backend = backend;
      options.shards = 1;
      EventStore mono(options);
      options.shards = shards;
      EventStore sharded(options);
      ASSERT_EQ(sharded.shard_count(), shards);
      ASSERT_EQ(mono.shard_count(), 1u);

      Rng rng(GetParam());
      std::vector<ObjectId> keys;
      std::vector<HostId> hosts;
      for (auto* store : {&mono, &sharded}) {
        ObjectCatalog& c = store->catalog();
        hosts = {c.InternHost("h1"), c.InternHost("h2"),
                 c.InternHost("h3")};
        std::vector<ObjectId> ids;
        for (int i = 0; i < 6; ++i) {
          ids.push_back(c.AddProcess(hosts[i % 3], {.exename = "p"}));
        }
        for (int i = 0; i < 10; ++i) {
          ids.push_back(c.AddFile(hosts[i % 3], {.path = "/f"}));
        }
        keys = ids;  // identical in both catalogs
      }
      for (int i = 0; i < 600; ++i) {
        Event e = MakeEvent(keys[rng.Uniform(6)], keys[6 + rng.Uniform(10)],
                            static_cast<TimeMicros>(rng.Uniform(50000)),
                            rng.Bernoulli(0.5) ? ActionType::kWrite
                                               : ActionType::kRead,
                            hosts[rng.Uniform(3)]);
        const EventId a = mono.Append(e);
        const EventId b = sharded.Append(e);
        EXPECT_EQ(a, b);  // global ids are the monolithic append order
      }
      mono.Seal();
      sharded.Seal();

      for (EventId id = 0; id < mono.NumEvents(); ++id) {
        EXPECT_EQ(sharded.Get(id).timestamp, mono.Get(id).timestamp)
            << "id=" << id;
        EXPECT_EQ(sharded.Get(id).id, id);
      }

      for (int trial = 0; trial < 40; ++trial) {
        const ObjectId key = keys[rng.Uniform(keys.size())];
        TimeMicros lo = static_cast<TimeMicros>(rng.Uniform(52000));
        TimeMicros hi = lo + static_cast<TimeMicros>(rng.Uniform(8000));
        const auto label = [&] {
          return std::string("shards=") + std::to_string(shards) +
                 " key=" + std::to_string(key) + " [" + std::to_string(lo) +
                 "," + std::to_string(hi) + ")";
        };

        const RangeScanBatch md = mono.CollectDest(key, lo, hi);
        const RangeScanBatch sd = sharded.CollectDest(key, lo, hi);
        EXPECT_EQ(sd.rows, md.rows) << "CollectDest " << label();
        ExpectRowContract(sharded, sd, "sharded CollectDest " + label());
        // Every delivered row is attributed to exactly one shard slice.
        uint64_t slice_rows = 0;
        for (const ShardScanSlice& slice : sd.shard_slices) {
          EXPECT_LT(slice.shard, shards) << label();
          slice_rows += slice.rows;
        }
        EXPECT_EQ(slice_rows, sd.rows.size()) << label();

        const RangeScanBatch ss = sharded.CollectSrc(key, lo, hi);
        EXPECT_EQ(ss.rows, mono.CollectSrc(key, lo, hi).rows)
            << "CollectSrc " << label();
        ExpectRowContract(sharded, ss, "sharded CollectSrc " + label());
        const RangeScanBatch sr = sharded.CollectRange(lo, hi);
        EXPECT_EQ(sr.rows, mono.CollectRange(lo, hi).rows)
            << "CollectRange " << label();
        ExpectRowContract(sharded, sr, "sharded CollectRange " + label());
        EXPECT_EQ(sharded.HasIncomingWrite(key, lo, hi),
                  mono.HasIncomingWrite(key, lo, hi))
            << label();
        EXPECT_EQ(sharded.FlowDestsOf(key, lo, hi),
                  mono.FlowDestsOf(key, lo, hi))
            << label();
        // Replaying the collected batches charges the per-shard stats
        // reconciled below.
        SimClock mc, sc;
        EXPECT_EQ(sharded.ReplayScan(sd, &sc, nullptr),
                  mono.ReplayScan(md, &mc, nullptr))
            << label();
      }

      // Row totals agree with the monolithic store; probe totals may
      // differ (a time slice split across shards occupies one partition
      // per shard) but must reconcile exactly against the per-shard
      // rows of the same snapshot.
      const StoreStats ms = mono.stats();
      const ShardedStore::Snapshot snap = sharded.ShardSnapshot();
      EXPECT_EQ(snap.total.queries, ms.queries);
      EXPECT_EQ(snap.total.rows_matched, ms.rows_matched);
      EXPECT_EQ(snap.total.rows_filtered, ms.rows_filtered);
      EXPECT_EQ(snap.shards.size(), shards);
      StoreStats sum;
      uint64_t resident = 0;
      for (const auto& row : snap.shards) {
        sum.rows_matched += row.stats.rows_matched;
        sum.rows_filtered += row.stats.rows_filtered;
        sum.partitions_probed += row.stats.partitions_probed;
        sum.partitions_seeked += row.stats.partitions_seeked;
        sum.segments_pruned += row.stats.segments_pruned;
        resident += row.resident_rows;
      }
      EXPECT_EQ(sum.rows_matched, snap.total.rows_matched);
      EXPECT_EQ(sum.rows_filtered, snap.total.rows_filtered);
      EXPECT_EQ(sum.partitions_probed, snap.total.partitions_probed);
      EXPECT_EQ(sum.partitions_seeked, snap.total.partitions_seeked);
      EXPECT_EQ(sum.segments_pruned, snap.total.segments_pruned);
      EXPECT_EQ(resident, sharded.NumEvents());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardEquivalenceTest,
                         testing::Values(7, 17, 27));

/// Exact batch equality: rows, probe counters and per-shard slices.
void ExpectSameBatch(const RangeScanBatch& got, const RangeScanBatch& want,
                     const std::string& label) {
  EXPECT_EQ(got.rows, want.rows) << label;
  EXPECT_EQ(got.partitions_probed, want.partitions_probed) << label;
  EXPECT_EQ(got.partitions_seeked, want.partitions_seeked) << label;
  EXPECT_EQ(got.segments_pruned, want.segments_pruned) << label;
  ASSERT_EQ(got.shard_slices.size(), want.shard_slices.size()) << label;
  for (size_t i = 0; i < want.shard_slices.size(); ++i) {
    const ShardScanSlice& g = got.shard_slices[i];
    const ShardScanSlice& w = want.shard_slices[i];
    EXPECT_EQ(g.shard, w.shard) << label << " slice " << i;
    EXPECT_EQ(g.rows, w.rows) << label << " slice " << i;
    EXPECT_EQ(g.partitions_probed, w.partitions_probed)
        << label << " slice " << i;
    EXPECT_EQ(g.partitions_seeked, w.partitions_seeked)
        << label << " slice " << i;
    EXPECT_EQ(g.segments_pruned, w.segments_pruned) << label << " slice " << i;
    EXPECT_EQ(g.boundary_rows, w.boundary_rows) << label << " slice " << i;
  }
}

// The sharded store's one-thread scatter, read from a forwarding shard
// log: it starts every probed shard's collect, in shard order, before
// it finishes any, then finishes them in the same order.
void ExpectScatterOrder(const std::vector<std::string>& log,
                        const std::string& label) {
  const size_t n = log.size() / 2;
  ASSERT_EQ(log.size(), 2 * n) << label;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(log[i].rfind("start ", 0), 0u) << label << ": " << log[i];
    EXPECT_EQ(log[n + i], "finish " + log[i].substr(6)) << label;
    if (i > 0) {
      EXPECT_LT(std::stoul(log[i - 1].substr(6)), std::stoul(log[i].substr(6)))
          << label;
    }
  }
}

class CollectManyTest : public testing::TestWithParam<uint64_t> {};

// For random probe lists, one CollectMany answers each probe exactly as
// the matching single Collect* does — rows, probe counters and shard
// slices — on the row and columnar layouts, monolithic and sharded, and
// on sharded stores whose shards log each collect's start and finish.
TEST_P(CollectManyTest, EqualsPerProbeCollects) {
  struct Layout {
    size_t shards;
    bool logged;
  };
  for (const auto [shards, logged] :
       {Layout{1, false}, Layout{2, false}, Layout{4, false},
        Layout{2, true}, Layout{4, true}}) {
    for (const StorageBackendKind backend :
         {StorageBackendKind::kRow, StorageBackendKind::kColumnar}) {
      EventStoreOptions options;
      options.partition_micros = 1000;
      options.segment_rows = 32;
      options.backend = backend;
      options.shards = shards;
      ForwardingCounters counters;
      counters.log_collects = true;
      if (logged) UseForwardingShards(options, 0, &counters);
      EventStore store(options);
      Rng rng(GetParam());
      ObjectCatalog& c = store.catalog();
      const std::vector<HostId> hosts = {c.InternHost("h1"),
                                         c.InternHost("h2")};
      std::vector<ObjectId> keys;
      for (int i = 0; i < 5; ++i) {
        keys.push_back(c.AddProcess(hosts[i % 2], {.exename = "p"}));
      }
      for (int i = 0; i < 8; ++i) {
        keys.push_back(c.AddFile(hosts[i % 2], {.path = "/f"}));
      }
      for (int i = 0; i < 500; ++i) {
        store.Append(MakeEvent(keys[rng.Uniform(5)],
                               keys[5 + rng.Uniform(8)],
                               static_cast<TimeMicros>(rng.Uniform(40000)),
                               rng.Bernoulli(0.5) ? ActionType::kWrite
                                                  : ActionType::kRead,
                               hosts[rng.Uniform(2)]));
      }
      store.Seal();
      EXPECT_TRUE(store.CollectMany({}).empty());
      const std::string layout = std::string(StorageBackendName(backend)) +
                                 " shards=" + std::to_string(shards) +
                                 (logged ? " logged" : "");

      size_t scattered = 0;  // CollectMany calls that probed 2+ shards
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<CollectProbe> probes(1 + rng.Uniform(40));
        for (CollectProbe& p : probes) {
          p.kind = static_cast<ProbeKind>(rng.Uniform(3));
          if (p.kind != ProbeKind::kRange) {
            p.key = keys[rng.Uniform(keys.size())];
          }
          p.begin = static_cast<TimeMicros>(rng.Uniform(42000));
          p.end = p.begin + static_cast<TimeMicros>(rng.Uniform(9000));
        }
        counters.collect_log.clear();
        const std::vector<RangeScanBatch> many = store.CollectMany(probes);
        ASSERT_EQ(many.size(), probes.size());
        if (logged) {
          ExpectScatterOrder(counters.collect_log,
                             layout + " trial=" + std::to_string(trial));
          if (counters.collect_log.size() >= 4) ++scattered;
        }
        for (size_t i = 0; i < probes.size(); ++i) {
          const CollectProbe& p = probes[i];
          const RangeScanBatch one =
              p.kind == ProbeKind::kDest  ? store.CollectDest(p.key, p.begin,
                                                              p.end)
              : p.kind == ProbeKind::kSrc ? store.CollectSrc(p.key, p.begin,
                                                             p.end)
                                          : store.CollectRange(p.begin, p.end);
          ExpectSameBatch(many[i], one,
                          layout + " trial=" + std::to_string(trial) +
                              " probe=" + std::to_string(i));
        }
      }
      if (logged) {
        EXPECT_GT(scattered, 0u) << layout;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectManyTest, testing::Values(3, 31, 313));

// Boundary rows: delivered rows whose recording host differs from the
// probed object's catalog host (cross-host flows through shared objects
// like sockets). They surface per slice, per shard, and in the store
// metrics — the scatter-gather "boundary-edge exchange" is observable.
TEST(ShardedStoreTest, BoundaryRowsAreCountedAndReconciled) {
  EventStoreOptions options;
  options.partition_micros = 1000;
  options.shards = 4;
  EventStore store(options);
  ObjectCatalog& c = store.catalog();
  const HostId h1 = c.InternHost("h1");
  const HostId h2 = c.InternHost("h2");
  // The socket is homed on h1, but the writes into it are recorded on
  // the connecting host h2 — every delivered row is a boundary row.
  const ObjectId sock =
      c.AddIp(h1, {.src_ip = "10.0.0.2", .dst_ip = "10.0.0.1"});
  const ObjectId remote = c.AddProcess(h2, {.exename = "client"});
  const ObjectId local = c.AddProcess(h1, {.exename = "server"});
  for (int i = 0; i < 8; ++i) {
    store.Append(MakeEvent(remote, sock, 100 + i, ActionType::kConnect, h2));
  }
  for (int i = 0; i < 3; ++i) {
    store.Append(MakeEvent(local, sock, 500 + i, ActionType::kConnect, h1));
  }
  store.Seal();

  const RangeScanBatch b = store.CollectDest(sock, 0, 1000);
  EXPECT_EQ(b.rows.size(), 11u);
  uint64_t boundary = 0;
  for (const ShardScanSlice& slice : b.shard_slices) {
    boundary += slice.boundary_rows;
  }
  EXPECT_EQ(boundary, 8u);  // the h2-recorded rows, not the h1 ones

  // The snapshot's boundary counters accumulate on the charging scan
  // path (ReplayScan), not on raw Collect* probes.
  EXPECT_EQ(store.ScanDest(sock, 0, 1000, nullptr, nullptr), 11u);
  const ShardedStore::Snapshot snap = store.ShardSnapshot();
  uint64_t snap_boundary = 0;
  for (const auto& row : snap.shards) snap_boundary += row.boundary_rows;
  EXPECT_EQ(snap_boundary, 8u);
}

// Option clamping and the monolithic fallback: shards <= 1 keeps the
// direct backend (no facade), out-of-range counts clamp to the routing
// mask's width.
TEST(ShardedStoreTest, ClampsAndReportsShardCount) {
  EventStoreOptions options;
  options.shards = 0;
  {
    EventStore store(options);
    EXPECT_EQ(store.shard_count(), 1u);
    EXPECT_EQ(store.sharded(), nullptr);
  }
  options.shards = 200;
  {
    EventStore store(options);
    EXPECT_EQ(store.shard_count(), kMaxStoreShards);
    EXPECT_NE(store.sharded(), nullptr);
  }
  options.shards = 1;
  {
    EventStore store(options);
    EXPECT_EQ(store.shard_count(), 1u);
    // The synthetic single-shard snapshot mirrors the store totals.
    const ShardedStore::Snapshot snap = store.ShardSnapshot();
    ASSERT_EQ(snap.shards.size(), 1u);
    EXPECT_EQ(snap.shards[0].resident_rows, store.NumEvents());
  }
}

// The APTRACE_SHARDS environment variable picks the default shard count
// for every store built without an explicit override (this is how the
// CI Release-sharded leg flips the whole test suite). Invalid values
// warn once and fall back to 1.
TEST(StorageShardEnvTest, EnvVarSelectsDefaultShardCount) {
  const char* old = std::getenv("APTRACE_SHARDS");
  const std::string saved = old ? old : "";

  ASSERT_EQ(setenv("APTRACE_SHARDS", "4", 1), 0);
  EXPECT_EQ(DefaultShardCount(), 4u);
  {
    EventStore store;
    EXPECT_EQ(store.shard_count(), 4u);
  }
  ASSERT_EQ(setenv("APTRACE_SHARDS", "bogus", 1), 0);
  EXPECT_EQ(DefaultShardCount(), 1u);
  ASSERT_EQ(setenv("APTRACE_SHARDS", "0", 1), 0);
  EXPECT_EQ(DefaultShardCount(), 1u);
  ASSERT_EQ(setenv("APTRACE_SHARDS", "65", 1), 0);
  EXPECT_EQ(DefaultShardCount(), 1u);
  // An explicit option always beats the environment.
  ASSERT_EQ(setenv("APTRACE_SHARDS", "4", 1), 0);
  {
    EventStoreOptions options;
    options.shards = 2;
    EventStore store(options);
    EXPECT_EQ(store.shard_count(), 2u);
  }

  if (old) {
    setenv("APTRACE_SHARDS", saved.c_str(), 1);
  } else {
    unsetenv("APTRACE_SHARDS");
  }
}

// The APTRACE_BACKEND environment variable picks the default backend
// for every store built without an explicit override (this is how the
// CI columnar leg flips the whole test suite).
TEST(StorageBackendEnvTest, EnvVarSelectsDefaultBackend) {
  const char* old = std::getenv("APTRACE_BACKEND");
  const std::string saved = old ? old : "";

  ASSERT_EQ(setenv("APTRACE_BACKEND", "columnar", 1), 0);
  EXPECT_EQ(DefaultStorageBackendKind(), StorageBackendKind::kColumnar);
  {
    EventStore store;
    EXPECT_EQ(store.backend_kind(), StorageBackendKind::kColumnar);
  }
  ASSERT_EQ(setenv("APTRACE_BACKEND", "row", 1), 0);
  EXPECT_EQ(DefaultStorageBackendKind(), StorageBackendKind::kRow);
  // Unknown values fall back to the row store rather than failing.
  ASSERT_EQ(setenv("APTRACE_BACKEND", "bogus", 1), 0);
  EXPECT_EQ(DefaultStorageBackendKind(), StorageBackendKind::kRow);
  // An explicit option always beats the environment.
  ASSERT_EQ(setenv("APTRACE_BACKEND", "columnar", 1), 0);
  {
    EventStoreOptions options;
    options.backend = StorageBackendKind::kRow;
    EventStore store(options);
    EXPECT_EQ(store.backend_kind(), StorageBackendKind::kRow);
  }

  if (old) {
    setenv("APTRACE_BACKEND", saved.c_str(), 1);
  } else {
    unsetenv("APTRACE_BACKEND");
  }
}

TEST(StorageBackendEnvTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(ParseStorageBackendKind("row"), StorageBackendKind::kRow);
  EXPECT_EQ(ParseStorageBackendKind("columnar"),
            StorageBackendKind::kColumnar);
  EXPECT_FALSE(ParseStorageBackendKind("column").has_value());
  EXPECT_FALSE(ParseStorageBackendKind("").has_value());
  EXPECT_STREQ(StorageBackendName(StorageBackendKind::kRow), "row");
  EXPECT_STREQ(StorageBackendName(StorageBackendKind::kColumnar),
               "columnar");
}

}  // namespace
}  // namespace aptrace
