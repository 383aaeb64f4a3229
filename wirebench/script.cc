#include "script.h"

#include <algorithm>
#include <fstream>

#include "server/wire.h"

namespace wirebench {

namespace {

const char* const kClassNames[kNumClasses] = {"read", "reask", "write",
                                              "fetch", "other"};

}  // namespace

const char* ClassName(ReqClass c) { return kClassNames[static_cast<int>(c)]; }

hql::Status WriteScript(const std::string& path, const Script& script) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return hql::Status::Internal("cannot write " + path);
  for (const ScriptLine& line : script) {
    out << ClassName(line.cls) << '\t' << line.request << '\n';
  }
  out.close();
  if (!out) return hql::Status::Internal("short write to " + path);
  return hql::Status::OK();
}

hql::Result<Script> ReadScript(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return hql::Status::NotFound("cannot read " + path);
  Script script;
  std::string text;
  while (std::getline(in, text)) {
    size_t tab = text.find('\t');
    if (tab == std::string::npos) {
      return hql::Status::InvalidArgument("script line without a class: " +
                                          text);
    }
    std::string name = text.substr(0, tab);
    ScriptLine line;
    bool known = false;
    for (int c = 0; c < kNumClasses; ++c) {
      if (name == kClassNames[c]) {
        line.cls = static_cast<ReqClass>(c);
        known = true;
      }
    }
    if (!known) return hql::Status::InvalidArgument("unknown class " + name);
    line.request = text.substr(tab + 1);
    script.push_back(std::move(line));
  }
  if (script.empty()) return hql::Status::InvalidArgument("empty " + path);
  return script;
}

ScenarioTree::ScenarioTree() { nodes_["root"] = Node{}; }

bool ScenarioTree::Has(const std::string& node) const {
  return nodes_.count(node) > 0;
}

hql::Status ScenarioTree::Derive(const std::string& parent,
                                 const std::string& child,
                                 const std::string& edge) {
  if (!Has(parent)) return hql::Status::NotFound("no node " + parent);
  if (Has(child)) return hql::Status::AlreadyExists("node " + child);
  nodes_[child] = Node{parent, edge};
  return hql::Status::OK();
}

hql::Status ScenarioTree::Edit(const std::string& node,
                               const std::string& edge) {
  if (node == "root" || !Has(node)) {
    return hql::Status::InvalidArgument("cannot edit " + node);
  }
  nodes_[node].edge = edge;
  return hql::Status::OK();
}

hql::Result<std::vector<std::string>> ScenarioTree::Drop(
    const std::string& node) {
  if (node == "root" || !Has(node)) {
    return hql::Status::InvalidArgument("cannot drop " + node);
  }
  std::vector<std::string> gone;
  for (const auto& [name, n] : nodes_) {
    if (IsAncestorOrSelf(node, name)) gone.push_back(name);
  }
  for (const std::string& name : gone) nodes_.erase(name);
  return gone;
}

const std::string& ScenarioTree::Parent(const std::string& node) const {
  return nodes_.at(node).parent;
}

std::vector<std::string> ScenarioTree::Children(
    const std::string& node) const {
  std::vector<std::string> out;
  for (const auto& [name, n] : nodes_) {
    if (name != "root" && n.parent == node) out.push_back(name);
  }
  return out;
}

std::vector<std::string> ScenarioTree::NonRoot() const {
  std::vector<std::string> out;
  for (const auto& [name, n] : nodes_) {
    if (name != "root") out.push_back(name);
  }
  return out;
}

bool ScenarioTree::IsAncestorOrSelf(const std::string& ancestor,
                                    const std::string& node) const {
  for (std::string cur = node;; cur = Parent(cur)) {
    if (cur == ancestor) return true;
    if (cur == "root") return false;
  }
}

std::vector<std::string> ScenarioTree::PathEdges(
    const std::string& node) const {
  std::vector<std::string> edges;
  for (std::string cur = node; cur != "root"; cur = Parent(cur)) {
    edges.push_back(nodes_.at(cur).edge);
  }
  std::reverse(edges.begin(), edges.end());
  return edges;
}

std::string ScenarioTree::PathKey(const std::string& node) const {
  std::string key;
  for (const std::string& edge : PathEdges(node)) key += edge + " # ";
  return key;
}

hql::Status ApplyWrite(const std::string& request, ScenarioTree* tree) {
  HQL_ASSIGN_OR_RETURN(hql::WireRequest req, hql::ParseWireRequest(request));
  if (req.op == "derive") return tree->Derive(req.args[0], req.args[1], req.tail);
  if (req.op == "edit") return tree->Edit(req.args[0], req.tail);
  if (req.op == "drop") return tree->Drop(req.args[0]).status();
  return hql::Status::OK();
}

}  // namespace wirebench
