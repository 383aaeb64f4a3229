#ifndef WIREBENCH_SCRIPT_H_
#define WIREBENCH_SCRIPT_H_

// Request scripts and the scenario-tree mirror shared by the generator,
// the wire client and the in-process replays.
//
// A script is one connection's request stream: one wire request per line
// (server/wire.h grammar), prefixed by the class the metrics file it
// under and a tab. Every script ends with the tree back at the bare root,
// so a connection that reaches the end wraps around to line 0.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace wirebench {

/// The op classes latency is reported by. kRead is query/compare, kReask
/// the first query/compare at a node after an `edit` of it or an
/// ancestor, kWrite derive/edit/drop, kFetch fetch, kOther the rest.
enum class ReqClass { kRead, kReask, kWrite, kFetch, kOther };
constexpr int kNumClasses = 5;

const char* ClassName(ReqClass c);

struct ScriptLine {
  ReqClass cls = ReqClass::kOther;
  std::string request;
};
using Script = std::vector<ScriptLine>;

hql::Status WriteScript(const std::string& path, const Script& script);
hql::Result<Script> ReadScript(const std::string& path);

/// Mirror of one session's named scenario tree: each node's parent and
/// the edge text it hangs by. "root" always exists.
class ScenarioTree {
 public:
  ScenarioTree();

  bool Has(const std::string& node) const;
  hql::Status Derive(const std::string& parent, const std::string& child,
                     const std::string& edge);
  hql::Status Edit(const std::string& node, const std::string& edge);
  /// Removes `node` and its subtree; returns the removed names.
  hql::Result<std::vector<std::string>> Drop(const std::string& node);

  const std::string& Parent(const std::string& node) const;
  std::vector<std::string> Children(const std::string& node) const;
  /// Every node but the root, sorted by name.
  std::vector<std::string> NonRoot() const;
  /// True when `ancestor` is `node` or lies on its path to the root.
  bool IsAncestorOrSelf(const std::string& ancestor,
                        const std::string& node) const;
  /// Edge texts from the root down to `node` (empty at the root).
  std::vector<std::string> PathEdges(const std::string& node) const;
  /// The path as one string, the identity of the node's state.
  std::string PathKey(const std::string& node) const;

 private:
  struct Node {
    std::string parent;
    std::string edge;
  };
  std::map<std::string, Node> nodes_;
};

/// Applies a derive/edit/drop request line to `tree` (other ops are
/// ignored). InvalidArgument on a malformed line or an invalid change.
hql::Status ApplyWrite(const std::string& request, ScenarioTree* tree);

}  // namespace wirebench

#endif  // WIREBENCH_SCRIPT_H_
