#include "core/partition_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace pass {

int32_t PartitionTree::AddNode(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<int32_t>(nodes_.size() - 1);
}

void PartitionTree::AddChild(int32_t parent, int32_t child) {
  PASS_CHECK(parent >= 0 && child >= 0 && parent != child);
  Node& p = mutable_node(parent);
  Node& c = mutable_node(child);
  p.children.push_back(child);
  c.parent = parent;
  c.depth = p.depth + 1;
}

void PartitionTree::FinalizeLeaves() {
  leaves_.clear();
  if (root_ < 0) return;
  // Iterative DFS to keep leaf ids deterministic (children order). Also
  // recomputes depths: bottom-up builders create parents after children, so
  // depths recorded during construction may be stale.
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    Node& n = mutable_node(id);
    n.depth = n.parent < 0 ? 0 : node(n.parent).depth + 1;
    if (n.IsLeaf()) {
      n.leaf_id = static_cast<int32_t>(leaves_.size());
      leaves_.push_back(id);
    } else {
      n.leaf_id = -1;
      // Push in reverse so children are visited in declaration order.
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  IndexLeafCuts();
}

void PartitionTree::IndexLeafCuts() {
  cut_dim_ = -1;
  leaf_hi_.clear();
  if (leaves_.size() < 2) return;
  const Rect& root = node(root_).condition;
  const size_t d = root.NumDims();
  const Rect& first = node(leaves_.front()).condition;
  if (first.NumDims() != d) return;
  size_t c = 0;
  while (c < d && first.dim(c) == root.dim(c)) ++c;
  if (c == d) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> hi;
  hi.reserve(leaves_.size());
  for (const int32_t leaf : leaves_) {
    if (node(leaf).condition.NumDims() != d) return;
    const Interval& iv = node(leaf).condition.dim(c);
    const double lo =
        hi.empty() ? root.dim(c).lo : std::nextafter(hi.back(), kInf);
    if (!(iv.lo == lo && iv.lo <= iv.hi)) return;
    hi.push_back(iv.hi);
  }
  // Every node, the leaves and the root included, equals the root off c
  // and spans its first leaf's lo to its last leaf's hi on c. Then each
  // child tiles a run of its parent's leaves, so the walk's first child
  // that contains a point holds the first leaf that does.
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    const Node& n = node(id);
    if (n.condition.NumDims() != d) return;
    int32_t front = id;
    int32_t back = id;
    while (!node(front).IsLeaf()) front = node(front).children.front();
    while (!node(back).IsLeaf()) back = node(back).children.back();
    const Interval span{node(front).condition.dim(c).lo,
                        node(back).condition.dim(c).hi};
    for (size_t dim = 0; dim < d; ++dim) {
      if (n.condition.dim(dim) != (dim == c ? span : root.dim(dim))) return;
    }
    stack.insert(stack.end(), n.children.begin(), n.children.end());
  }
  cut_dim_ = static_cast<int32_t>(c);
  leaf_hi_ = std::move(hi);
}

uint32_t PartitionTree::Height() const {
  uint32_t h = 0;
  for (const int32_t leaf : leaves_) h = std::max(h, node(leaf).depth);
  return h;
}

PartitionTree::Coverage PartitionTree::Classify(int32_t id,
                                                const Rect& query) const {
  const Node& n = node(id);
  if (!query.Intersects(n.data_bounds)) return Coverage::kNone;
  if (query.ContainsRect(n.data_bounds)) return Coverage::kCover;
  return Coverage::kPartial;
}

void PartitionTree::McfVisit(int32_t id, const Rect& query,
                             bool zero_variance_as_covered,
                             Frontier* out) const {
  ++out->nodes_visited;
  const Node& n = node(id);
  if (!query.Intersects(n.data_bounds)) return;  // R_none: skipped wholesale
  if (query.ContainsRect(n.data_bounds)) {
    out->covered.push_back(id);
    return;
  }
  // 0-variance rule (AVG): a constant-valued partition contributes its
  // (single) value exactly regardless of how much of it the query covers.
  if (zero_variance_as_covered && n.stats.IsConstant()) {
    out->zero_var.push_back(id);
    return;
  }
  if (n.IsLeaf()) {
    out->partial.push_back(id);
    return;
  }
  for (const int32_t child : n.children) {
    McfVisit(child, query, zero_variance_as_covered, out);
  }
}

PartitionTree::Frontier PartitionTree::ComputeMcf(
    const Rect& query, bool zero_variance_as_covered) const {
  Frontier out;
  if (root_ >= 0) McfVisit(root_, query, zero_variance_as_covered, &out);
  return out;
}

int32_t PartitionTree::RouteToLeaf(const std::vector<double>& point) const {
  if (root_ < 0) return -1;
  int32_t id = root_;
  if (!node(id).condition.ContainsPoint(point)) return -1;
  if (cut_dim_ >= 0) {
    // Branch-free lower_bound: the first leaf whose hi is >= x. The root
    // check refused a NaN x and bounds x by the last hi, so one exists.
    const double x = point[static_cast<size_t>(cut_dim_)];
    size_t first = 0;
    size_t n = leaf_hi_.size();
    while (n > 1) {
      const size_t half = n / 2;
      first += leaf_hi_[first + half - 1] < x ? half : 0;
      n -= half;
    }
    return leaves_[first];
  }
  while (!node(id).IsLeaf()) {
    int32_t next = -1;
    for (const int32_t child : node(id).children) {
      if (node(child).condition.ContainsPoint(point)) {
        next = child;
        break;
      }
    }
    if (next < 0) return -1;
    id = next;
  }
  return id;
}

Status PartitionTree::ValidateInvariants() const {
  if (root_ < 0) return Status::FailedPrecondition("tree has no root");
  size_t reachable = 0;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    ++reachable;
    const Node& n = node(id);
    if (n.IsLeaf()) {
      if (n.leaf_id < 0 || static_cast<size_t>(n.leaf_id) >= leaves_.size() ||
          leaves_[static_cast<size_t>(n.leaf_id)] != id) {
        return Status::Internal("leaf bookkeeping broken at node " +
                                std::to_string(id));
      }
      continue;
    }
    // Invariant (1): children contained in the parent (conditions and
    // bounds). Invariant (2): sibling conditions disjoint. Invariant (3):
    // union of children equals the parent — checked via aggregate
    // consistency (counts and sums merge exactly).
    AggregateStats merged;
    for (size_t i = 0; i < n.children.size(); ++i) {
      const Node& c = node(n.children[i]);
      if (c.parent != id) {
        return Status::Internal("parent link broken at node " +
                                std::to_string(n.children[i]));
      }
      if (!n.condition.ContainsRect(c.condition)) {
        return Status::Internal("child condition escapes parent at node " +
                                std::to_string(n.children[i]));
      }
      if (!n.data_bounds.ContainsRect(c.data_bounds)) {
        return Status::Internal("child data bounds escape parent at node " +
                                std::to_string(n.children[i]));
      }
      for (size_t j = i + 1; j < n.children.size(); ++j) {
        const Node& s = node(n.children[j]);
        if (c.condition.Intersects(s.condition)) {
          return Status::Internal("sibling conditions overlap under node " +
                                  std::to_string(id));
        }
      }
      merged.Merge(c.stats);
      stack.push_back(n.children[i]);
    }
    if (merged.count != n.stats.count ||
        std::abs(merged.sum - n.stats.sum) >
            1e-6 * (1.0 + std::abs(n.stats.sum)) ||
        merged.min != n.stats.min || merged.max != n.stats.max) {
      return Status::Internal("aggregate stats inconsistent at node " +
                              std::to_string(id));
    }
  }
  if (reachable != nodes_.size()) {
    return Status::Internal("unreachable nodes present");
  }
  return Status::Ok();
}

}  // namespace pass
