#include "graph/json_writer.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace aptrace {

void WriteGraphJson(const DepGraph& graph, const ObjectCatalog& catalog,
                    std::ostream& os) {
  std::vector<ObjectId> nodes = graph.NodeIds();
  std::sort(nodes.begin(), nodes.end());
  std::vector<DepGraph::Edge> edges;
  edges.reserve(graph.NumEdges());
  graph.ForEachEdge([&](const DepGraph::Edge& e) { edges.push_back(e); });
  std::sort(edges.begin(), edges.end(),
            [](const DepGraph::Edge& a, const DepGraph::Edge& b) {
              return a.event < b.event;
            });

  // One buffer, one write; a node or an edge line is about 100 bytes.
  std::string out;
  out.reserve(64 + 128 * (nodes.size() + edges.size()));
  out += "{\n  \"start\": ";
  AppendDecimal(out, graph.start());
  out += ",\n  \"nodes\": [\n";
  for (size_t i = 0; i < nodes.size(); ++i) {
    const DepGraph::Node& n = graph.GetNode(nodes[i]);
    const SystemObject& obj = catalog.Get(nodes[i]);
    out += "    {\"id\": ";
    AppendDecimal(out, nodes[i]);
    out += ", \"type\": \"";
    out += ObjectTypeName(obj.type());
    out += "\", \"label\": \"";
    out += JsonEscape(obj.Label());
    out += "\", \"host\": \"";
    out += JsonEscape(catalog.HostName(obj.host()));
    out += "\", \"hop\": ";
    AppendDecimal(out, n.hop);
    out += ", \"state\": ";
    AppendDecimal(out, n.state);
    out += i + 1 < nodes.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"edges\": [\n";
  for (size_t i = 0; i < edges.size(); ++i) {
    const DepGraph::Edge& e = edges[i];
    out += "    {\"event\": ";
    AppendDecimal(out, e.event);
    out += ", \"src\": ";
    AppendDecimal(out, e.src);
    out += ", \"dst\": ";
    AppendDecimal(out, e.dst);
    out += ", \"time\": ";
    AppendDecimal(out, e.timestamp);
    out += ", \"action\": \"";
    out += ActionTypeName(e.action);
    out += "\", \"amount\": ";
    AppendDecimal(out, e.amount);
    out += i + 1 < edges.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

Status WriteGraphJsonFile(const DepGraph& graph, const ObjectCatalog& catalog,
                          const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::InvalidArgument("cannot open for write: " + path);
  WriteGraphJson(graph, catalog, f);
  if (!f.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

}  // namespace aptrace
