#ifndef PASS_CORE_PARTITION_TREE_H_
#define PASS_CORE_PARTITION_TREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/aggregate_stats.h"
#include "geom/rect.h"

namespace pass {

/// The partition tree of Definition 3.1: a hierarchy of partitions where
/// (1) every child is contained in its parent, (2) siblings are disjoint,
/// and (3) siblings union to the parent. Every node carries the partition's
/// precomputed aggregates; leaves additionally reference a stratified
/// sample (stored by the Synopsis, indexed by `leaf_id`).
///
/// Nodes keep two rectangles:
///  * `condition`   — the partitioning condition ψ (may extend past the
///                     data, e.g. to ±inf at the edges; used for routing
///                     inserted rows to leaves), and
///  * `data_bounds` — the tight bounding box of the rows actually in the
///                     partition (used by MCF classification, so duplicate
///                     coordinate values can never mis-classify a node).
class PartitionTree {
 public:
  struct Node {
    Rect condition;
    Rect data_bounds;
    AggregateStats stats;
    int32_t parent = -1;
    std::vector<int32_t> children;  // empty == leaf
    int32_t leaf_id = -1;           // dense leaf index; set by FinalizeLeaves
    uint32_t depth = 0;

    bool IsLeaf() const { return children.empty(); }
  };

  /// Node classification produced by the MCF walk (Section 2.3 / 3.2).
  enum class Coverage { kNone, kCover, kPartial };

  /// Result of the Minimal Coverage Frontier computation (Algorithm 1).
  /// Nodes admitted by the 0-variance rule are kept separate from truly
  /// covered nodes: the estimator treats them as covered (their value
  /// contribution is exact), but the deterministic hard bounds must treat
  /// them as partial — their *matched cardinality* is unknown.
  struct Frontier {
    std::vector<int32_t> covered;   // fully-covered nodes: answer exactly
    std::vector<int32_t> partial;   // partially-overlapped leaves: sample
    std::vector<int32_t> zero_var;  // partially overlapped, constant value
    uint32_t nodes_visited = 0;     // for the O(γ log B) complexity checks
  };

  PartitionTree() = default;

  // --- Build API (used by the builders in src/partition) -------------------

  /// Appends a node and returns its id. Parent/child links are the caller's
  /// responsibility via AddChild.
  int32_t AddNode(Node node);

  /// Registers `child` under `parent` and fixes depth bookkeeping.
  void AddChild(int32_t parent, int32_t child);

  void SetRoot(int32_t id) { root_ = id; }

  Node& mutable_node(int32_t id) {
    PASS_DCHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    return nodes_[static_cast<size_t>(id)];
  }

  /// Assigns dense leaf ids (DFS order) and records the leaf list. Must be
  /// called once the shape is final and before MCF/estimation.
  ///
  /// Also indexes the leaf cuts of a tree shaped like every 1-D builder's:
  /// in leaf-id order the leaves equal the root's condition on every dim
  /// but one, c, and on c they tile the root's interval with no gap (the
  /// first lo is the root's, each next lo is nextafter(previous hi, +inf),
  /// the last hi is the root's), and every internal node equals the root
  /// off c and spans its first leaf's lo to its last leaf's hi on c. Such
  /// a tree keeps c and its leaves' hi values on c, 8 bytes per leaf, for
  /// RouteToLeaf; any other tree (a kd build over several dims, a
  /// hand-built tree with gaps) keeps none. A condition changed after this
  /// call needs another call.
  void FinalizeLeaves();

  // --- Read API -------------------------------------------------------------

  int32_t root() const { return root_; }
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumLeaves() const { return leaves_.size(); }

  const Node& node(int32_t id) const {
    PASS_DCHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    return nodes_[static_cast<size_t>(id)];
  }

  /// leaf_id -> node id.
  const std::vector<int32_t>& leaves() const { return leaves_; }

  /// The dim whose leaf cuts FinalizeLeaves indexed for RouteToLeaf, or -1
  /// when RouteToLeaf walks the conditions.
  int32_t cut_dim() const { return cut_dim_; }

  uint32_t Height() const;

  /// Algorithm 1 with the two practical extensions from the paper:
  /// classification against tight data bounds, and (optionally, for AVG
  /// queries) the 0-variance rule that returns constant-valued nodes as
  /// covered even when only partially overlapped (Section 3.4).
  Frontier ComputeMcf(const Rect& query,
                      bool zero_variance_as_covered = false) const;

  /// Classifies a single node against a query rectangle (no recursion, no
  /// 0-variance rule).
  Coverage Classify(int32_t id, const Rect& query) const;

  /// Returns the leaf whose *condition* contains the point (used to route
  /// inserted rows). Returns -1 if the point lies outside the root's
  /// condition, a NaN coordinate included, or if no child of a node on the
  /// way down claims it: a kd split omits empty orthants, so a kd node's
  /// children need not cover its condition. A tree whose leaf cuts
  /// FinalizeLeaves indexed (every tree the 1-D builders make) finds the
  /// leaf by binary search over them; any other tree tests each child's
  /// condition from the root down. On an indexed tree both find the same
  /// leaf: the first, in leaf-id order, whose condition contains the point.
  int32_t RouteToLeaf(const std::vector<double>& point) const;

  /// Structural validation for tests: parent/child containment (conditions
  /// and data bounds), sibling disjointness of conditions, stats
  /// consistency (parent aggregates equal the merge of the children's), and
  /// leaf bookkeeping. Returns the first violation found.
  Status ValidateInvariants() const;

 private:
  void McfVisit(int32_t id, const Rect& query, bool zero_variance_as_covered,
                Frontier* out) const;

  /// Sets cut_dim_ and leaf_hi_ when the tree has the 1-D shape that
  /// FinalizeLeaves describes; clears them otherwise.
  void IndexLeafCuts();

  std::vector<Node> nodes_;
  std::vector<int32_t> leaves_;
  int32_t root_ = -1;
  /// The leaf-cut index: the dim the leaves tile, or -1 when RouteToLeaf
  /// walks, and each leaf's hi on it in leaf-id order.
  int32_t cut_dim_ = -1;
  std::vector<double> leaf_hi_;
};

}  // namespace pass

#endif  // PASS_CORE_PARTITION_TREE_H_
