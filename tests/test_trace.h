#ifndef APTRACE_TESTS_TEST_TRACE_H_
#define APTRACE_TESTS_TEST_TRACE_H_

#include <memory>

#include "storage/event_store.h"

namespace aptrace::testing_support {

/// A miniature phishing-style trace with a fully hand-computed backward
/// closure, shared by the core-engine tests.
///
/// Timeline (flow direction in parentheses):
///   t=10  outlook accepts mail_sock      (mail_sock -> outlook)
///   t=15  benign writes doc1             (benign -> doc1)        [noise]
///   t=20  outlook writes attach          (outlook -> attach)
///   t=30  outlook starts excel           (outlook -> excel)
///   t=40  excel reads attach             (attach -> excel)
///   t=50  excel writes java_file         (excel -> java_file)
///   t=60  excel starts java              (excel -> java)
///   t=65  java reads java_file           (java_file -> java)
///   t=70..72  java reads dll1..dll3      (dll_i -> java)
///   t=80  java connects ext_sock [ALERT] (java -> ext_sock)
///   t=90  java reads late_file           (late_file -> java)     [after
///         the alert: must never enter the backward closure]
///
/// Expected closure from the alert: 11 edges, 10 nodes (everything except
/// benign, doc1, late_file).
struct MiniTrace {
  std::unique_ptr<EventStore> store;
  HostId host;
  ObjectId outlook, excel, java, benign;
  ObjectId mail_sock, ext_sock;
  ObjectId attach, java_file, doc1, late_file;
  ObjectId dll[3];
  EventId alert_event;

  static constexpr size_t kClosureEdges = 11;
  static constexpr size_t kClosureNodes = 10;
};

/// `options` picks the layout (shards, backend factory); its partition
/// width and cost model are overridden.
inline MiniTrace MakeMiniTrace(CostModel cost_model = CostModel::Free(),
                               EventStoreOptions options = {}) {
  MiniTrace t;
  options.partition_micros = 25;  // several partitions across t=10..90
  options.cost_model = cost_model;
  t.store = std::make_unique<EventStore>(options);
  ObjectCatalog& c = t.store->catalog();
  t.host = c.InternHost("desktop1");

  t.outlook = c.AddProcess(t.host, {.exename = "outlook.exe", .pid = 11});
  t.excel = c.AddProcess(t.host, {.exename = "excel.exe", .pid = 12});
  t.java = c.AddProcess(t.host, {.exename = "java.exe", .pid = 13});
  t.benign = c.AddProcess(t.host, {.exename = "benign.exe", .pid = 14});
  t.mail_sock = c.AddIp(t.host, {.src_ip = "10.0.0.1",
                                 .dst_ip = "198.51.100.9",
                                 .dst_port = 993});
  t.ext_sock = c.AddIp(t.host, {.src_ip = "10.0.0.1",
                                .dst_ip = "185.220.101.45",
                                .dst_port = 443});
  t.attach = c.AddFile(t.host, {.path = "C://Temp/attach.xls"});
  t.java_file = c.AddFile(t.host, {.path = "C://Docs/java.exe"});
  t.doc1 = c.AddFile(t.host, {.path = "C://Docs/doc1.txt"});
  t.late_file = c.AddFile(t.host, {.path = "C://Docs/late.txt"});
  for (int i = 0; i < 3; ++i) {
    t.dll[i] = c.AddFile(
        t.host, {.path = "C://Windows/System32/lib" + std::to_string(i) +
                         ".dll"});
  }

  auto emit = [&](ObjectId subject, ObjectId object, TimeMicros ts,
                  ActionType action, uint64_t amount = 1024) {
    Event e;
    e.subject = subject;
    e.object = object;
    e.timestamp = ts;
    e.action = action;
    e.direction = ActionDefaultDirection(action);
    e.amount = amount;
    e.host = t.host;
    return t.store->Append(e);
  };

  emit(t.outlook, t.mail_sock, 10, ActionType::kAccept, 2048);
  emit(t.benign, t.doc1, 15, ActionType::kWrite);
  emit(t.outlook, t.attach, 20, ActionType::kWrite, 1800);
  emit(t.outlook, t.excel, 30, ActionType::kStart);
  emit(t.excel, t.attach, 40, ActionType::kRead, 1800);
  emit(t.excel, t.java_file, 50, ActionType::kWrite, 300);
  emit(t.excel, t.java, 60, ActionType::kStart);
  emit(t.java, t.java_file, 65, ActionType::kRead, 300);
  for (int i = 0; i < 3; ++i) {
    emit(t.java, t.dll[i], 70 + i, ActionType::kRead, 64);
  }
  t.alert_event = emit(t.java, t.ext_sock, 80, ActionType::kConnect, 5000);
  emit(t.java, t.late_file, 90, ActionType::kRead);

  t.store->Seal();
  return t;
}

}  // namespace aptrace::testing_support

#endif  // APTRACE_TESTS_TEST_TRACE_H_
