// Distributed fabric, in-process layer: the shard-RPC codec, endpoint
// grammar, ShardService dispatch, and ShardClient failure taxonomy —
// everything below the process boundary (dist_fabric_test.cc covers real
// daemons). The robustness cases pin the typed DST-E00x contract: garbage
// frames, truncated payloads, identity mismatches at connect, and dead
// endpoints each map to their documented code, never a hang or a crash.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist_error.h"
#include "dist/remote_backend.h"
#include "dist/shard_client.h"
#include "dist/shard_codec.h"
#include "dist/shard_service.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "service/json.h"
#include "service/server.h"
#include "storage/columnar_backend.h"
#include "storage/event_store.h"
#include "storage/row_store_backend.h"

namespace aptrace::dist {
namespace {

Event TestEvent(uint64_t i) {
  Event e;
  e.subject = 100 + i;
  e.object = 200 + (i % 7);
  e.timestamp = static_cast<TimeMicros>(10 * i + 5);
  e.amount = 64 * (i + 1);
  e.action = (i % 2) != 0u ? ActionType::kWrite : ActionType::kRead;
  e.direction = ActionDefaultDirection(e.action);
  e.host = static_cast<HostId>(i % 3);
  e.id = i;
  return e;
}

void ExpectSameEvent(const Event& a, const Event& b) {
  EXPECT_EQ(a.subject, b.subject);
  EXPECT_EQ(a.object, b.object);
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.amount, b.amount);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.direction, b.direction);
  EXPECT_EQ(a.host, b.host);
}

/// The row contract of every Collect*: each row equals Get(row.id) field
/// for field, and rows ascend strictly by (timestamp, id).
void ExpectRowContract(const StorageBackend& backend,
                       const RangeScanBatch& batch) {
  for (size_t i = 0; i < batch.rows.size(); ++i) {
    const Event& row = batch.rows[i];
    EXPECT_EQ(row, backend.Get(row.id)) << "row " << i;
    if (i == 0) continue;
    const Event& prev = batch.rows[i - 1];
    EXPECT_TRUE(prev.timestamp < row.timestamp ||
                (prev.timestamp == row.timestamp && prev.id < row.id))
        << "rows " << i - 1 << ", " << i << " out of order";
  }
}

// ---------------------------------------------------------------- codec

TEST(ShardCodec, Base64RoundTripsArbitraryBytes) {
  std::string bytes;
  for (int i = 0; i < 257; ++i) bytes.push_back(static_cast<char>(i % 256));
  for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                     size_t{255}, bytes.size()}) {
    const std::string in = bytes.substr(0, len);
    auto out = Base64Decode(Base64Encode(in));
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out.value(), in) << "len=" << len;
  }
}

TEST(ShardCodec, Base64RejectsGarbage) {
  for (const char* bad : {"a", "ab!=", "====", "AAA\x01", "AB=C", "A==="}) {
    EXPECT_FALSE(Base64Decode(bad).ok()) << bad;
  }
}

TEST(ShardCodec, EventsRoundTrip) {
  std::vector<Event> events;
  for (uint64_t i = 0; i < 37; ++i) events.push_back(TestEvent(i));
  const std::string bytes = EncodeEvents(events);
  EXPECT_EQ(bytes.size(), events.size() * kShardEventBytes);
  auto decoded = DecodeEvents(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    ExpectSameEvent(decoded.value()[i], events[i]);
  }
}

TEST(ShardCodec, RowsRoundTripWithLocalIds) {
  std::vector<Event> rows;
  for (uint64_t i = 0; i < 11; ++i) {
    Event e = TestEvent(i);
    e.id = 1000 + 3 * i;  // sparse lids survive the trip
    rows.push_back(e);
  }
  auto decoded = DecodeRows(EncodeRows(rows));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].id, rows[i].id);
    ExpectSameEvent(decoded.value()[i], rows[i]);
  }
}

TEST(ShardCodec, TruncatedPayloadsAreRejected) {
  const std::string rows = EncodeRows({TestEvent(1), TestEvent(2)});
  EXPECT_FALSE(DecodeRows(rows.substr(0, rows.size() - 1)).ok());
  const std::string events = EncodeEvents({TestEvent(1)});
  EXPECT_FALSE(DecodeEvents(events.substr(1)).ok());
  EXPECT_FALSE(DecodeU64s("1234567").ok());  // 7 bytes
}

TEST(ShardCodec, ProbesRoundTripAndRejectUnknownKinds) {
  const std::vector<CollectProbe> probes = {
      {ProbeKind::kDest, 42, -5, 900},
      {ProbeKind::kSrc, 7, 0, 1},
      {ProbeKind::kRange, kInvalidObjectId, 100, 200},
  };
  const std::string bytes = EncodeProbes(probes);
  EXPECT_EQ(bytes.size(), probes.size() * kShardProbeBytes);
  auto decoded = DecodeProbes(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), probes);
  EXPECT_FALSE(DecodeProbes(bytes.substr(0, bytes.size() - 1)).ok());
  std::string bad = bytes;
  bad[kShardProbeBytes] = 3;  // the second record's kind
  EXPECT_FALSE(DecodeProbes(bad).ok());
}

TEST(ShardCodec, U64sRoundTrip) {
  const std::vector<uint64_t> values = {0, 1, ~uint64_t{0}, 42, 1u << 31};
  auto decoded = DecodeU64s(EncodeU64s(values));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), values);
}

// ------------------------------------------------------------ endpoints

TEST(ShardEndpoints, ParsesTcpUnixAndBarePaths) {
  auto tcp = ParseShardEndpoint("127.0.0.1:9000");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 9000);
  EXPECT_TRUE(tcp->unix_path.empty());
  EXPECT_EQ(tcp->ToString(), "127.0.0.1:9000");

  auto uds = ParseShardEndpoint("unix:/tmp/shard0.sock");
  ASSERT_TRUE(uds.ok());
  EXPECT_EQ(uds->unix_path, "/tmp/shard0.sock");
  EXPECT_EQ(uds->ToString(), "unix:/tmp/shard0.sock");

  auto bare = ParseShardEndpoint("/var/run/shard1.sock");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->unix_path, "/var/run/shard1.sock");
}

TEST(ShardEndpoints, RejectsMalformedEntries) {
  for (const char* bad :
       {"", "localhost", "host:", "host:0", "host:65536", "host:abc",
        "unix:", ":9000"}) {
    EXPECT_FALSE(ParseShardEndpoint(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ShardEndpoints, CsvSplitsAndSkipsEmpties) {
  auto eps =
      ParseShardEndpoints("127.0.0.1:9000, localhost:9001 ,unix:/tmp/s2");
  ASSERT_TRUE(eps.ok()) << eps.status();
  ASSERT_EQ(eps->size(), 3u);
  EXPECT_EQ((*eps)[0].port, 9000);
  EXPECT_EQ((*eps)[1].host, "localhost");
  EXPECT_EQ((*eps)[2].unix_path, "/tmp/s2");
  EXPECT_FALSE(ParseShardEndpoints("").ok());
  EXPECT_FALSE(ParseShardEndpoints(",,").ok());
  EXPECT_FALSE(ParseShardEndpoints("127.0.0.1:9000,bogus").ok());
}

// --------------------------------------------------------- ShardService

class ShardServiceTest : public testing::Test {
 protected:
  ShardServiceTest()
      : service_(7,
                 std::make_unique<RowStoreBackend>(CostModel{},
                                                   /*partition_micros=*/50)) {}

  service::JsonValue Handle(const std::string& line) {
    bool shutdown = false;
    auto parsed = service::ParseJson(service_.HandleLine(line, &shutdown));
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return parsed.ok() ? std::move(parsed.value()) : service::JsonValue{};
  }

  std::string AppendRequest(const std::vector<Event>& events,
                            uint64_t first_lid) {
    obs::JsonDict d;
    d.Add("op", "shard.append");
    d.Add("rows", Base64Encode(EncodeEvents(events)));
    d.Add("count", static_cast<uint64_t>(events.size()));
    d.Add("first_lid", first_lid);
    return d.Str();
  }

  ShardService service_;
};

TEST_F(ShardServiceTest, HelloAdvertisesIdentity) {
  const auto resp = Handle("{\"op\":\"shard.hello\"}");
  EXPECT_TRUE(resp.GetBool("ok"));
  EXPECT_EQ(resp.GetString("proto"), kShardProto);
  EXPECT_EQ(resp.GetUint("shard"), 7u);
  EXPECT_EQ(resp.GetString("backend"), "row");
  EXPECT_EQ(resp.GetUint("events"), 0u);
  EXPECT_FALSE(resp.GetBool("sealed", true));
}

TEST_F(ShardServiceTest, AppendSealCollectRoundTrip) {
  std::vector<Event> events;
  for (uint64_t i = 0; i < 20; ++i) events.push_back(TestEvent(i));
  const auto appended = Handle(AppendRequest(events, 0));
  ASSERT_TRUE(appended.GetBool("ok")) << appended.GetString("error");
  EXPECT_EQ(appended.GetUint("appended"), events.size());

  const auto sealed = Handle("{\"op\":\"shard.seal\"}");
  ASSERT_TRUE(sealed.GetBool("ok"));
  EXPECT_EQ(sealed.GetUint("events"), events.size());

  // Collect must agree with a local backend fed the same rows.
  RowStoreBackend local(CostModel{}, 50);
  for (const Event& e : events) local.Append(e);
  local.Seal();
  const RangeScanBatch want = local.CollectDest(events[3].FlowDest(), 0, 500);

  obs::JsonDict req;
  req.Add("op", "shard.collect_dest");
  req.Add("key", static_cast<uint64_t>(events[3].FlowDest()));
  req.Add("begin", int64_t{0});
  req.Add("end", int64_t{500});
  const auto resp = Handle(req.Str());
  ASSERT_TRUE(resp.GetBool("ok")) << resp.GetString("error");
  auto bytes = Base64Decode(resp.GetString("rows"));
  ASSERT_TRUE(bytes.ok());
  auto rows = DecodeRows(bytes.value());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), want.rows.size());
  EXPECT_EQ(resp.GetUint("count"), want.rows.size());
  EXPECT_EQ(resp.GetUint("probed"), want.partitions_probed);
  for (size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(rows.value()[i], want.rows[i]);
    ExpectSameEvent(rows.value()[i],
                    events[static_cast<size_t>(want.rows[i].id)]);
  }
}

/// A shard.collect_many request carrying `probes`.
std::string CollectManyRequest(const std::vector<CollectProbe>& probes) {
  obs::JsonDict d;
  d.Add("op", "shard.collect_many");
  d.Add("probes", Base64Encode(EncodeProbes(probes)));
  d.Add("count", static_cast<uint64_t>(probes.size()));
  return d.Str();
}

TEST_F(ShardServiceTest, CollectManyMatchesLocalBackendExactly) {
  std::vector<Event> events;
  for (uint64_t i = 0; i < 60; ++i) events.push_back(TestEvent(i));
  ASSERT_TRUE(Handle(AppendRequest(events, 0)).GetBool("ok"));
  ASSERT_TRUE(Handle("{\"op\":\"shard.seal\"}").GetBool("ok"));
  RowStoreBackend local(CostModel{}, 50);
  for (const Event& e : events) local.Append(e);
  local.Seal();

  const std::vector<CollectProbe> probes = {
      {ProbeKind::kDest, events[3].FlowDest(), 0, 500},
      {ProbeKind::kSrc, events[4].FlowSource(), 40, 300},
      {ProbeKind::kDest, 999'999, 0, 600},  // never stored: no rows
      {ProbeKind::kRange, kInvalidObjectId, 120, 480},
      {ProbeKind::kDest, events[3].FlowDest(), 0, 500},  // repeated
  };
  const std::vector<RangeScanBatch> want = local.CollectMany(probes);
  const auto resp = Handle(CollectManyRequest(probes));
  ASSERT_TRUE(resp.GetBool("ok")) << resp.GetString("error");
  auto row_bytes = Base64Decode(resp.GetString("rows"));
  ASSERT_TRUE(row_bytes.ok());
  auto rows = DecodeRows(row_bytes.value());
  ASSERT_TRUE(rows.ok());
  auto counter_bytes = Base64Decode(resp.GetString("probes"));
  ASSERT_TRUE(counter_bytes.ok());
  auto counters = DecodeU64s(counter_bytes.value());
  ASSERT_TRUE(counters.ok());
  ASSERT_EQ(counters->size(), probes.size() * kProbeCounters);
  EXPECT_EQ(resp.GetUint("count"), rows->size());

  size_t next = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const uint64_t* rec = &counters.value()[i * kProbeCounters];
    ASSERT_EQ(rec[0], want[i].rows.size()) << "probe " << i;
    EXPECT_EQ(rec[1], want[i].partitions_probed) << "probe " << i;
    EXPECT_EQ(rec[2], want[i].partitions_seeked) << "probe " << i;
    EXPECT_EQ(rec[3], want[i].segments_pruned) << "probe " << i;
    for (const Event& row : want[i].rows) {
      ASSERT_LT(next, rows->size());
      EXPECT_EQ(rows.value()[next++], row) << "probe " << i;
    }
  }
  EXPECT_EQ(next, rows->size());
  EXPECT_FALSE(want[0].rows.empty());
  EXPECT_TRUE(want[2].rows.empty());
}

TEST_F(ShardServiceTest, MalformedCollectManyIsTypedE003) {
  ASSERT_TRUE(Handle(AppendRequest({TestEvent(0)}, 0)).GetBool("ok"));
  ASSERT_TRUE(Handle("{\"op\":\"shard.seal\"}").GetBool("ok"));
  const CollectProbe probe{ProbeKind::kDest, 1, 0, 100};
  const std::string one = EncodeProbes({&probe, 1});

  std::vector<std::string> requests;
  {  // a payload that is not whole probe records
    obs::JsonDict d;
    d.Add("op", "shard.collect_many");
    d.Add("probes", Base64Encode(one + "x"));
    d.Add("count", uint64_t{1});
    requests.push_back(d.Str());
  }
  {  // an unknown probe kind
    std::string bad = one;
    bad[0] = 9;
    obs::JsonDict d;
    d.Add("op", "shard.collect_many");
    d.Add("probes", Base64Encode(bad));
    d.Add("count", uint64_t{1});
    requests.push_back(d.Str());
  }
  // One probe over the per-request cap.
  requests.push_back(CollectManyRequest(
      std::vector<CollectProbe>(kMaxCollectProbes + 1, probe)));
  for (const std::string& line : requests) {
    const auto resp = Handle(line);
    EXPECT_FALSE(resp.GetBool("ok", true)) << line.substr(0, 120);
    EXPECT_EQ(resp.GetString("code"), kDistErrProtocol)
        << resp.GetString("error");
  }
  // At the cap the same probe list is served.
  EXPECT_TRUE(Handle(CollectManyRequest(std::vector<CollectProbe>(
                         kMaxCollectProbes, probe)))
                  .GetBool("ok"));
}

TEST_F(ShardServiceTest, AppendLidMismatchIsTypedE007) {
  const auto resp = Handle(AppendRequest({TestEvent(0)}, /*first_lid=*/5));
  EXPECT_FALSE(resp.GetBool("ok", true));
  EXPECT_EQ(resp.GetString("code"), kDistErrAppend);
}

TEST_F(ShardServiceTest, MalformedFramesAreTypedE003) {
  // Garbage, non-object, unknown op, missing payload, count mismatch,
  // truncated base64 — each a DST-E003, none a crash.
  for (const std::string& line :
       {std::string("not json at all"), std::string("[1,2,3]"),
        std::string("{\"op\":\"shard.bogus\"}"),
        std::string("{\"op\":\"shard.append\",\"count\":1}"),
        std::string("{\"op\":\"shard.append\",\"rows\":\"AAAA\","
                    "\"count\":7,\"first_lid\":0}"),
        std::string("{\"op\":\"shard.fetch\",\"lids\":\"!!!\","
                    "\"count\":1}")}) {
    bool shutdown = false;
    auto parsed =
        service::ParseJson(service_.HandleLine(line, &shutdown));
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_FALSE(parsed->GetBool("ok", true)) << line;
    EXPECT_EQ(parsed->GetString("code"), kDistErrProtocol) << line;
  }
}

TEST_F(ShardServiceTest, FetchOfUnknownLidIsTyped) {
  ASSERT_TRUE(Handle(AppendRequest({TestEvent(0)}, 0)).GetBool("ok"));
  obs::JsonDict req;
  req.Add("op", "shard.fetch");
  req.Add("lids", Base64Encode(EncodeU64s({99})));
  req.Add("count", uint64_t{1});
  const auto resp = Handle(req.Str());
  EXPECT_FALSE(resp.GetBool("ok", true));
  EXPECT_EQ(resp.GetString("code"), kDistErrProtocol);
}

TEST_F(ShardServiceTest, ShutdownOpRequestsDrain) {
  bool shutdown = false;
  service_.HandleLine("{\"op\":\"shard.shutdown\"}", &shutdown);
  EXPECT_TRUE(shutdown);
}

// ----------------------------------------------------- ShardClient (TCP)

/// One in-process shard daemon: a real service::Server (ephemeral TCP)
/// around a ShardService — the full wire path without fork/exec.
class InProcessShardd {
 public:
  /// Rewrites a reply before it goes out (request line, honest reply).
  using ReplyFilter =
      std::function<std::string(const std::string&, std::string)>;

  explicit InProcessShardd(uint32_t shard,
                           StorageBackendKind kind = StorageBackendKind::kRow,
                           ReplyFilter filter = nullptr)
      : service_(shard, MakeBackend(kind)),
        server_(
            [this, filter](const std::string& line, bool* shutdown) {
              std::string reply = service_.HandleLine(line, shutdown);
              return filter ? filter(line, std::move(reply)) : reply;
            },
            nullptr, Options()) {
    auto s = server_.Start();
    EXPECT_TRUE(s.ok()) << s;
  }
  ~InProcessShardd() { server_.Shutdown(); }

  ShardEndpoint endpoint() const {
    ShardEndpoint ep;
    ep.host = "127.0.0.1";
    ep.port = server_.port();
    return ep;
  }
  ShardService& service() { return service_; }

 private:
  static std::unique_ptr<StorageBackend> MakeBackend(
      StorageBackendKind kind) {
    if (kind == StorageBackendKind::kColumnar) {
      return std::make_unique<ColumnarSegmentBackend>(CostModel{}, 16);
    }
    return std::make_unique<RowStoreBackend>(CostModel{}, 50);
  }
  static service::ServerOptions Options() {
    service::ServerOptions o;
    o.tcp_port = 0;
    return o;
  }
  ShardService service_;
  service::Server server_;
};

ShardClientOptions FastFail() {
  ShardClientOptions o;
  o.deadline_micros = 2'000'000;
  o.max_attempts = 2;
  o.retry_backoff_micros = 1'000;
  return o;
}

TEST(ShardClient, CallRoundTripsOverTcp) {
  InProcessShardd shardd(3);
  ShardClient client(shardd.endpoint(), 3, StorageBackendKind::kRow,
                     FastFail());
  const auto hello = client.Call("shard.hello");
  EXPECT_EQ(hello.GetUint("shard"), 3u);
  // The pooled connection is reused; a second call still answers.
  const auto snap = client.Call("shard.snapshot");
  EXPECT_EQ(snap.GetUint("events"), 0u);
}

TEST(ShardClient, WrongShardIdentityIsE004AndNeverRetried) {
  InProcessShardd shardd(0);
  // The client expects shard 1; the daemon at this endpoint is shard 0 —
  // a miswired fleet must fail the handshake, not serve crossed data.
  ShardClient client(shardd.endpoint(), 1, StorageBackendKind::kRow,
                     FastFail());
  try {
    client.Call("shard.hello");
    FAIL() << "expected DistError";
  } catch (const DistError& e) {
    EXPECT_EQ(e.code(), std::string(kDistErrIdentity)) << e.what();
  }
}

TEST(ShardClient, WrongBackendIdentityIsE004) {
  InProcessShardd shardd(2, StorageBackendKind::kColumnar);
  ShardClient client(shardd.endpoint(), 2, StorageBackendKind::kRow,
                     FastFail());
  try {
    client.Call("shard.hello");
    FAIL() << "expected DistError";
  } catch (const DistError& e) {
    EXPECT_EQ(e.code(), std::string(kDistErrIdentity)) << e.what();
  }
}

TEST(ShardClient, EventCountPinMismatchIsE004) {
  InProcessShardd shardd(4);
  ShardClientOptions options = FastFail();
  options.expect_events = 123;  // the daemon is empty
  ShardClient client(shardd.endpoint(), 4, StorageBackendKind::kRow,
                     options);
  try {
    client.Call("shard.hello");
    FAIL() << "expected DistError";
  } catch (const DistError& e) {
    EXPECT_EQ(e.code(), std::string(kDistErrIdentity)) << e.what();
  }
}

TEST(ShardClient, DeadEndpointExhaustsRetriesToE005) {
  // Bind an ephemeral port, note it, close it: dialing it now refuses.
  ShardEndpoint dead;
  dead.host = "127.0.0.1";
  {
    InProcessShardd ephemeral(0);
    dead.port = ephemeral.endpoint().port;
  }
  ShardClient client(dead, 0, StorageBackendKind::kRow, FastFail());
  try {
    client.Call("shard.hello");
    FAIL() << "expected DistError";
  } catch (const DistError& e) {
    EXPECT_EQ(e.code(), std::string(kDistErrUnavailable)) << e.what();
    EXPECT_NE(std::string(e.what()).find("2 attempt"), std::string::npos)
        << e.what();
  }
}

TEST(ShardClient, RemoteOpErrorPropagatesWithoutRetry) {
  InProcessShardd shardd(5);
  ShardClient client(shardd.endpoint(), 5, StorageBackendKind::kRow,
                     FastFail());
  obs::JsonDict req;
  req.Add("rows", Base64Encode(EncodeEvents({TestEvent(0)})));
  req.Add("count", uint64_t{1});
  req.Add("first_lid", uint64_t{9});  // shard is empty: lid mismatch
  try {
    client.Call("shard.append", req);
    FAIL() << "expected DistError";
  } catch (const DistError& e) {
    EXPECT_EQ(e.code(), std::string(kDistErrAppend)) << e.what();
  }
}

// ----------------------------------------------- RemoteShardBackend

TEST(RemoteShardBackend, MirrorsALocalBackendExactly) {
  InProcessShardd shardd(1);
  auto client = std::make_shared<ShardClient>(
      shardd.endpoint(), 1, StorageBackendKind::kRow, FastFail());
  RemoteShardBackend remote(client, StorageBackendKind::kRow, CostModel{});
  RowStoreBackend local(CostModel{}, 50);

  std::vector<Event> events;
  for (uint64_t i = 0; i < 600; ++i) events.push_back(TestEvent(i));
  for (const Event& e : events) {
    EXPECT_EQ(remote.Append(e), local.Append(e));
  }
  remote.Seal();
  local.Seal();
  ASSERT_EQ(remote.NumEvents(), local.NumEvents());

  for (const Event& probe : {events[3], events[17], events[599]}) {
    const RangeScanBatch a =
        remote.CollectDest(probe.FlowDest(), 0, 10'000);
    const RangeScanBatch b = local.CollectDest(probe.FlowDest(), 0, 10'000);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.partitions_probed, b.partitions_probed);
    ExpectRowContract(remote, a);
    const RangeScanBatch c = remote.CollectSrc(probe.FlowSource(), 0, 3000);
    const RangeScanBatch d = local.CollectSrc(probe.FlowSource(), 0, 3000);
    EXPECT_EQ(c.rows, d.rows);
    ExpectRowContract(remote, c);
  }
  const RangeScanBatch a = remote.CollectRange(100, 4000);
  const RangeScanBatch b = local.CollectRange(100, 4000);
  EXPECT_EQ(a.rows, b.rows);
  ExpectRowContract(remote, a);

  // One shard.collect_many answers a probe list exactly as the local
  // backend does, including lists longer than one request may carry.
  std::vector<CollectProbe> probes;
  for (size_t i = 0; i < kMaxCollectProbes + 3; ++i) {
    const Event& e = events[(i * 37) % events.size()];
    probes.push_back({static_cast<ProbeKind>(i % 3),
                      i % 2 == 0 ? e.FlowDest() : e.FlowSource(),
                      e.timestamp - 200, e.timestamp + 300});
  }
  const std::vector<RangeScanBatch> many = remote.CollectMany(probes);
  const std::vector<RangeScanBatch> local_many = local.CollectMany(probes);
  ASSERT_EQ(many.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(many[i].rows, local_many[i].rows) << "probe " << i;
    EXPECT_EQ(many[i].partitions_probed, local_many[i].partitions_probed)
        << "probe " << i;
    EXPECT_EQ(many[i].partitions_seeked, local_many[i].partitions_seeked)
        << "probe " << i;
    EXPECT_EQ(many[i].segments_pruned, local_many[i].segments_pruned)
        << "probe " << i;
  }

  for (const EventId lid : {EventId{0}, EventId{57}, EventId{599}}) {
    ExpectSameEvent(remote.Get(lid), local.Get(lid));
  }
  EXPECT_EQ(remote.HasIncomingWrite(events[0].FlowDest(), 0, 10'000),
            local.HasIncomingWrite(events[0].FlowDest(), 0, 10'000));
  EXPECT_EQ(remote.FlowDestsOf(events[0].FlowSource(), 0, 10'000),
            local.FlowDestsOf(events[0].FlowSource(), 0, 10'000));
}

// A reply whose per-probe row counts do not sum to the rows it carries
// is a protocol violation on the coordinator side, never a mis-split.
TEST(RemoteShardBackend, CollectReplyWithInconsistentCountsIsE003) {
  InProcessShardd shardd(
      1, StorageBackendKind::kRow,
      [](const std::string& line, std::string reply) {
        if (line.find("shard.collect_many") == std::string::npos) {
          return reply;
        }
        auto parsed = service::ParseJson(reply);
        const uint64_t rows = parsed.value().GetUint("count");
        const std::vector<uint64_t> counters = {rows + 1, 0, 0, 0};
        obs::JsonDict d;
        d.Add("ok", true);
        d.Add("rows", parsed.value().GetString("rows"));
        d.Add("count", rows);
        d.Add("probes", Base64Encode(EncodeU64s(counters)));
        return d.Str();
      });
  auto client = std::make_shared<ShardClient>(
      shardd.endpoint(), 1, StorageBackendKind::kRow, FastFail());
  RemoteShardBackend remote(client, StorageBackendKind::kRow, CostModel{});
  for (uint64_t i = 0; i < 20; ++i) remote.Append(TestEvent(i));
  remote.Seal();
  try {
    (void)remote.CollectDest(TestEvent(3).FlowDest(), 0, 10'000);
    FAIL() << "expected DistError";
  } catch (const DistError& e) {
    EXPECT_EQ(e.code(), std::string(kDistErrProtocol)) << e.what();
  }
}

uint64_t CounterValue(const char* name) {
  return obs::Metrics().FindOrCreateCounter(name)->value();
}

bool IsCollectMany(const std::string& line) {
  return line.find("\"shard.collect_many\"") != std::string::npos;
}

// A garbled shard.collect_many reply is a transport failure of the split
// RPC: Finish closes that connection, redials, resends the request and
// reads the honest reply, so the batches still equal a local backend's
// and the call costs exactly one retry.
TEST(RemoteShardBackend, CorruptCollectReplyRedialsOnce) {
  std::atomic<int> collects{0};
  std::atomic<int> hellos{0};
  InProcessShardd shardd(
      1, StorageBackendKind::kRow,
      [&collects, &hellos](const std::string& line, std::string reply) {
        if (line.find("\"shard.hello\"") != std::string::npos) hellos++;
        if (IsCollectMany(line) && collects++ == 0) return std::string("{ok");
        return reply;
      });
  auto client = std::make_shared<ShardClient>(
      shardd.endpoint(), 1, StorageBackendKind::kRow, FastFail());
  RemoteShardBackend remote(client, StorageBackendKind::kRow, CostModel{});
  RowStoreBackend local(CostModel{}, 50);
  std::vector<CollectProbe> probes;
  for (uint64_t i = 0; i < 300; ++i) {
    const Event e = TestEvent(i);
    remote.Append(e);
    local.Append(e);
    if (i % 40 == 0) {
      probes.push_back({static_cast<ProbeKind>(probes.size() % 3),
                        probes.size() % 2 == 0 ? e.FlowDest() : e.FlowSource(),
                        e.timestamp - 100, e.timestamp + 400});
    }
  }
  remote.Seal();
  local.Seal();
  ASSERT_EQ(hellos.load(), 1);

  const uint64_t retries0 = CounterValue(obs::names::kDistRetries);
  const std::vector<RangeScanBatch> many = remote.CollectMany(probes);
  EXPECT_EQ(CounterValue(obs::names::kDistRetries) - retries0, 1u);
  EXPECT_EQ(collects.load(), 2);
  EXPECT_EQ(hellos.load(), 2) << "the garbled connection must be redialed";
  const std::vector<RangeScanBatch> want = local.CollectMany(probes);
  ASSERT_EQ(many.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(many[i].rows, want[i].rows) << "probe " << i;
    EXPECT_EQ(many[i].partitions_probed, want[i].partitions_probed)
        << "probe " << i;
    EXPECT_EQ(many[i].partitions_seeked, want[i].partitions_seeked)
        << "probe " << i;
  }
}

// The sharded store sends every probed shard its request before it reads
// any reply. Shard 0's first reply comes after its deadline while shard
// 1 answers at once: shard 1's reply then waits in its socket past its
// own deadline while shard 0 times out and is retried, and it must still
// be read, not retried. The batches equal an in-process sharded store's.
TEST(ShardedStoreOverShardd, SlowShardIsRetriedAloneAndBatchesStayExact) {
  constexpr uint64_t kDeadlineMicros = 300'000;
  std::atomic<int> collects[2] = {0, 0};
  const auto delay_first_collect = [&collects](uint32_t shard,
                                               uint64_t delay_micros) {
    return [&collects, shard, delay_micros](const std::string& line,
                                            std::string reply) {
      if (IsCollectMany(line) && collects[shard]++ == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_micros));
      }
      return reply;
    };
  };
  InProcessShardd shard0(0, StorageBackendKind::kRow,
                         delay_first_collect(0, 3 * kDeadlineMicros));
  InProcessShardd shard1(1, StorageBackendKind::kRow,
                         delay_first_collect(1, 0));
  const std::vector<ShardEndpoint> endpoints = {shard0.endpoint(),
                                                shard1.endpoint()};

  EventStoreOptions options;
  options.backend = StorageBackendKind::kRow;
  options.partition_micros = 50;  // InProcessShardd's row layout
  options.shards = 2;
  EventStore local(options);
  options.shard_backend_factory =
      [&endpoints](size_t shard, const EventStoreOptions& o)
      -> std::unique_ptr<StorageBackend> {
    ShardClientOptions client_options = FastFail();
    client_options.deadline_micros = kDeadlineMicros;
    return std::make_unique<RemoteShardBackend>(
        std::make_shared<ShardClient>(endpoints[shard],
                                      static_cast<uint32_t>(shard),
                                      o.backend, client_options),
        o.backend, o.cost_model);
  };
  EventStore remote(options);

  std::vector<CollectProbe> probes;
  for (EventStore* store : {&local, &remote}) {
    ObjectCatalog& c = store->catalog();
    const std::vector<HostId> hosts = {c.InternHost("h0"),
                                       c.InternHost("h1")};
    std::vector<ObjectId> procs;
    std::vector<ObjectId> files;
    for (int i = 0; i < 4; ++i) {
      procs.push_back(c.AddProcess(hosts[i % 2], {.exename = "p"}));
    }
    for (int i = 0; i < 6; ++i) {
      files.push_back(c.AddFile(hosts[i % 2], {.path = "/f"}));
    }
    for (uint64_t i = 0; i < 300; ++i) {
      Event e;
      e.subject = procs[i % procs.size()];
      e.object = files[i % files.size()];
      e.timestamp = static_cast<TimeMicros>(10 * i + 5);
      e.amount = 1;
      e.action = i % 2 != 0 ? ActionType::kWrite : ActionType::kRead;
      e.direction = ActionDefaultDirection(e.action);
      e.host = hosts[(i / 3) % 2];
      store->Append(e);
    }
    store->Seal();
    if (!probes.empty()) continue;
    for (const ObjectId p : procs) {
      probes.push_back({ProbeKind::kSrc, p, 0, 4000});
    }
    for (const ObjectId f : files) {
      probes.push_back({ProbeKind::kDest, f, 0, 4000});
    }
    probes.push_back({ProbeKind::kRange, kInvalidObjectId, 500, 1500});
  }

  const uint64_t retries0 = CounterValue(obs::names::kDistRetries);
  const std::vector<RangeScanBatch> many = remote.CollectMany(probes);
  EXPECT_EQ(CounterValue(obs::names::kDistRetries) - retries0, 1u);
  EXPECT_EQ(collects[0].load(), 2) << "shard 0 is retried once";
  EXPECT_EQ(collects[1].load(), 1) << "shard 1 is never retried";
  const std::vector<RangeScanBatch> want = local.CollectMany(probes);
  ASSERT_EQ(many.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(many[i].rows, want[i].rows) << "probe " << i;
    EXPECT_EQ(many[i].partitions_probed, want[i].partitions_probed)
        << "probe " << i;
    ASSERT_EQ(many[i].shard_slices.size(), want[i].shard_slices.size())
        << "probe " << i;
    for (size_t k = 0; k < want[i].shard_slices.size(); ++k) {
      EXPECT_EQ(many[i].shard_slices[k].shard, want[i].shard_slices[k].shard);
      EXPECT_EQ(many[i].shard_slices[k].rows, want[i].shard_slices[k].rows);
      EXPECT_EQ(many[i].shard_slices[k].boundary_rows,
                want[i].shard_slices[k].boundary_rows);
    }
  }
}

}  // namespace
}  // namespace aptrace::dist
