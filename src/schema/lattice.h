#ifndef AAC_SCHEMA_LATTICE_H_
#define AAC_SCHEMA_LATTICE_H_

#include <cstdint>
#include <vector>

#include "schema/level_vector.h"
#include "schema/schema.h"
#include "util/check.h"

namespace aac {

/// Dense id for a group-by (a node of the lattice).
using GroupById = int32_t;

/// The lattice of group-bys induced by the "can be computed by" relation.
///
/// A group-by at level L1 is computable from L2 iff L1 <= L2 component-wise.
/// The lattice edges connect a node to its *parents*: the nodes that are one
/// level more detailed on exactly one dimension (following the paper, parents
/// are toward the base table; children are toward the fully aggregated node).
class Lattice {
 public:
  /// `schema` must outlive the lattice.
  explicit Lattice(const Schema* schema);

  const Schema& schema() const { return *schema_; }
  int32_t num_groupbys() const { return num_groupbys_; }

  /// Dense id of a group-by level (row-major mixed radix).
  GroupById IdOf(const LevelVector& level) const;

  /// Level vector of a group-by id.
  const LevelVector& LevelOf(GroupById id) const;

  /// Id of the base (most detailed) group-by.
  GroupById base_id() const { return base_id_; }

  /// Id of the fully aggregated group-by (level all zeros).
  GroupById top_id() const { return top_id_; }

  /// Immediate parents: one dimension one level more detailed.
  const std::vector<GroupById>& Parents(GroupById id) const;

  /// Immediate children: one dimension one level more aggregated.
  const std::vector<GroupById>& Children(GroupById id) const;

  /// True if `id` is computable from `ancestor` (component-wise <=,
  /// reflexive).
  bool IsAncestor(GroupById id, GroupById ancestor) const;

  /// All group-bys computable *from* `id` (component-wise <= LevelOf(id)),
  /// including `id` itself.
  std::vector<GroupById> Descendants(GroupById id) const;

  /// Number of descendants including self: prod_i (l_i + 1).
  int64_t NumDescendants(GroupById id) const;

  /// Lemma 1: number of lattice paths from `id` to the base group-by,
  /// (sum_i (h_i - l_i))! / prod_i (h_i - l_i)!.
  /// Checked against overflow; valid for the lattice sizes this library
  /// targets (sums of level gaps up to 20).
  uint64_t NumPathsToBase(GroupById id) const;

  /// Sum of the group-by's levels: its rank in the lattice. The top is 0,
  /// the base the sum of the hierarchy sizes, and each lattice parent one
  /// above its child, so a group-by is computed from the rank above it.
  int LevelSum(GroupById id) const {
    AAC_DCHECK(id >= 0 && id < num_groupbys_);
    return ranks_[static_cast<size_t>(id)];
  }

  /// Group-by ids ordered most-detailed first (descending level sum). Every
  /// node appears after all of its lattice parents, so a single pass in this
  /// order can propagate information from the base toward the top.
  const std::vector<GroupById>& TopoDetailedFirst() const {
    return topo_detailed_first_;
  }

 private:
  const Schema* schema_;
  int32_t num_groupbys_;
  std::vector<int32_t> strides_;  // per dimension, for mixed-radix ids
  std::vector<LevelVector> levels_;
  std::vector<int> ranks_;  // per group-by, its level sum
  std::vector<std::vector<GroupById>> parents_;
  std::vector<std::vector<GroupById>> children_;
  std::vector<GroupById> topo_detailed_first_;
  GroupById base_id_;
  GroupById top_id_;
};

}  // namespace aac

#endif  // AAC_SCHEMA_LATTICE_H_
