// Shared randomized-trace generator and reference oracles for the
// executor property and differential tests. Header-only; requires gtest
// (Spec/Ctx report compile failures through EXPECT).

#ifndef APTRACE_TESTS_RANDOM_TRACE_UTIL_H_
#define APTRACE_TESTS_RANDOM_TRACE_UTIL_H_

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdl/analyzer.h"
#include "core/context.h"
#include "core/executor.h"
#include "util/rng.h"

namespace aptrace {

struct RandomTrace {
  std::unique_ptr<EventStore> store;
  std::vector<Event> events;
  Event alert;
};

/// A soup of random events over a handful of processes, files, and
/// sockets; the alert is a random event with a process flow source (so
/// there is something to explore). The optional backend override pins
/// the physical layout (default: APTRACE_BACKEND env var, else row) and
/// `shards` the shard count (default: APTRACE_SHARDS env var, else 1);
/// the generated events are identical in every configuration. `tweak`
/// (when set) edits the store options last — the distributed fabric
/// tests use it to inject remote shard-backend factories.
inline RandomTrace MakeRandomTrace(
    uint64_t seed, size_t num_events,
    StorageBackendKind backend = DefaultStorageBackendKind(),
    size_t shards = DefaultShardCount(),
    const std::function<void(EventStoreOptions&)>& tweak = nullptr) {
  RandomTrace t;
  EventStoreOptions options;
  options.partition_micros = 500;  // many partitions
  options.segment_rows = 64;       // many columnar segments, likewise
  options.cost_model = CostModel::Free();
  options.backend = backend;
  options.shards = shards;
  if (tweak) tweak(options);
  t.store = std::make_unique<EventStore>(options);
  auto& c = t.store->catalog();
  Rng rng(seed);

  const HostId h1 = c.InternHost("h1");
  const HostId h2 = c.InternHost("h2");
  std::vector<ObjectId> procs, files, socks;
  const char* names[] = {"app.exe", "svc.exe", "sh", "helper.exe"};
  for (int i = 0; i < 8; ++i) {
    procs.push_back(c.AddProcess(i % 2 ? h1 : h2,
                                 {.exename = names[rng.Uniform(4)],
                                  .pid = 100 + i}));
  }
  for (int i = 0; i < 14; ++i) {
    const bool dll = rng.Bernoulli(0.3);
    files.push_back(c.AddFile(
        i % 2 ? h1 : h2,
        {.path = (dll ? "/lib/l" : "/data/f") + std::to_string(i) +
                 (dll ? ".dll" : ".dat")}));
  }
  for (int i = 0; i < 5; ++i) {
    socks.push_back(c.AddIp(h1, {.src_ip = "10.0.0.1",
                                 .dst_ip = "198.18.0." + std::to_string(i)}));
  }

  for (size_t i = 0; i < num_events; ++i) {
    Event e;
    e.subject = procs[rng.Uniform(procs.size())];
    const double pick = rng.NextDouble();
    if (pick < 0.55) {
      e.object = files[rng.Uniform(files.size())];
      e.action = rng.Bernoulli(0.5) ? ActionType::kRead : ActionType::kWrite;
    } else if (pick < 0.75) {
      ObjectId other = procs[rng.Uniform(procs.size())];
      if (other == e.subject) other = procs[(other + 1) % procs.size()];
      e.object = other;
      e.action = rng.Bernoulli(0.5) ? ActionType::kStart : ActionType::kWrite;
    } else {
      e.object = socks[rng.Uniform(socks.size())];
      e.action = rng.Bernoulli(0.5) ? ActionType::kConnect
                                    : ActionType::kAccept;
    }
    e.direction = ActionDefaultDirection(e.action);
    e.timestamp = static_cast<TimeMicros>(rng.Uniform(20000));
    e.host = c.Get(e.subject).host();
    e.id = t.store->Append(e);
    t.events.push_back(e);
  }
  t.store->Seal();

  // Alert: the latest event whose flow source is a process (gives the
  // closure a chance to be non-trivial).
  t.alert = t.events.front();
  TimeMicros best = -1;
  for (const Event& e : t.events) {
    if (c.Get(e.FlowSource()).is_process() && e.timestamp > best) {
      best = e.timestamp;
      t.alert = e;
    }
  }
  return t;
}

/// Independent reference: a direct transcription of the paper's backward
/// dependency definition (Section II) with per-object exploration
/// watermarks — no windows, no coverage machinery, no priority queue.
inline std::set<EventId> ReferenceClosure(
    const RandomTrace& t,
    const std::function<bool(ObjectId)>& object_allowed) {
  std::set<EventId> closure{t.alert.id};
  std::unordered_map<ObjectId, TimeMicros> watermark;
  std::deque<ObjectId> queue;

  const auto want = [&](ObjectId o, TimeMicros until) {
    auto [it, inserted] = watermark.try_emplace(o, until);
    if (!inserted) {
      if (until <= it->second) return;
      it->second = until;
    }
    queue.push_back(o);
  };
  want(t.alert.FlowSource(), t.alert.timestamp);

  std::unordered_map<ObjectId, TimeMicros> covered;
  while (!queue.empty()) {
    const ObjectId o = queue.front();
    queue.pop_front();
    if (!object_allowed(o)) continue;
    const TimeMicros until = watermark[o];
    TimeMicros& done = covered[o];
    if (until <= done) continue;
    for (const Event& e : t.events) {
      if (e.FlowDest() != o) continue;
      if (e.timestamp < done || e.timestamp >= until) continue;
      if (!object_allowed(e.FlowSource())) continue;
      closure.insert(e.id);
      want(e.FlowSource(), e.timestamp);
    }
    done = until;
  }
  return closure;
}

inline std::set<EventId> EdgeSet(const DepGraph& g) {
  std::set<EventId> out;
  g.ForEachEdge([&](const DepGraph::Edge& e) { out.insert(e.event); });
  return out;
}

inline bdl::TrackingSpec Spec(const std::string& text) {
  auto spec = bdl::CompileBdl(text);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return spec.ok() ? std::move(spec.value()) : bdl::TrackingSpec{};
}

inline TrackingContext Ctx(const RandomTrace& t, const std::string& script) {
  SimClock clock;
  auto ctx = ResolveContext(*t.store, Spec(script), &clock, t.alert);
  EXPECT_TRUE(ctx.ok()) << ctx.status();
  return ctx.ok() ? std::move(ctx.value()) : TrackingContext{};
}

inline std::string UnconstrainedScript(const RandomTrace& t) {
  const ObjectType type = t.store->catalog().Get(t.alert.FlowDest()).type();
  return std::string("backward ") + ObjectTypeName(type) + " x[] -> *";
}

}  // namespace aptrace

#endif  // APTRACE_TESTS_RANDOM_TRACE_UTIL_H_
