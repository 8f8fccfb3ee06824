#include "schema/lattice.h"

#include <algorithm>

#include "util/check.h"

namespace aac {

Lattice::Lattice(const Schema* schema) : schema_(schema) {
  AAC_CHECK(schema != nullptr);
  const int nd = schema_->num_dims();
  strides_.resize(static_cast<size_t>(nd));
  int64_t total = 1;
  for (int d = nd - 1; d >= 0; --d) {
    strides_[static_cast<size_t>(d)] = static_cast<int32_t>(total);
    total *= schema_->dimension(d).hierarchy_size() + 1;
  }
  AAC_CHECK_LE(total, 1 << 28);  // keep adjacency tables in memory
  num_groupbys_ = static_cast<int32_t>(total);

  levels_.resize(static_cast<size_t>(num_groupbys_));
  ranks_.resize(static_cast<size_t>(num_groupbys_));
  parents_.resize(static_cast<size_t>(num_groupbys_));
  children_.resize(static_cast<size_t>(num_groupbys_));
  for (GroupById id = 0; id < num_groupbys_; ++id) {
    LevelVector lv = LevelVector::Uniform(nd, 0);
    int32_t rem = id;
    int rank = 0;
    for (int d = 0; d < nd; ++d) {
      const int32_t stride = strides_[static_cast<size_t>(d)];
      lv.Set(d, rem / stride);
      rem %= stride;
      rank += lv[d];
    }
    levels_[static_cast<size_t>(id)] = lv;
    ranks_[static_cast<size_t>(id)] = rank;
    for (int d = 0; d < nd; ++d) {
      const int h = schema_->dimension(d).hierarchy_size();
      if (lv[d] < h) {
        parents_[static_cast<size_t>(id)].push_back(
            id + strides_[static_cast<size_t>(d)]);
      }
      if (lv[d] > 0) {
        children_[static_cast<size_t>(id)].push_back(
            id - strides_[static_cast<size_t>(d)]);
      }
    }
  }

  base_id_ = IdOf(schema_->base_level());
  top_id_ = IdOf(schema_->top_level());

  topo_detailed_first_.resize(static_cast<size_t>(num_groupbys_));
  for (GroupById id = 0; id < num_groupbys_; ++id) {
    topo_detailed_first_[static_cast<size_t>(id)] = id;
  }
  std::stable_sort(topo_detailed_first_.begin(), topo_detailed_first_.end(),
                   [this](GroupById a, GroupById b) {
                     return LevelSum(a) > LevelSum(b);
                   });
}

GroupById Lattice::IdOf(const LevelVector& level) const {
  AAC_CHECK(schema_->IsValidLevel(level));
  int64_t id = 0;
  for (int d = 0; d < level.size(); ++d) {
    id += static_cast<int64_t>(level[d]) * strides_[static_cast<size_t>(d)];
  }
  return static_cast<GroupById>(id);
}

const LevelVector& Lattice::LevelOf(GroupById id) const {
  AAC_CHECK(id >= 0 && id < num_groupbys_);
  return levels_[static_cast<size_t>(id)];
}

const std::vector<GroupById>& Lattice::Parents(GroupById id) const {
  AAC_CHECK(id >= 0 && id < num_groupbys_);
  return parents_[static_cast<size_t>(id)];
}

const std::vector<GroupById>& Lattice::Children(GroupById id) const {
  AAC_CHECK(id >= 0 && id < num_groupbys_);
  return children_[static_cast<size_t>(id)];
}

bool Lattice::IsAncestor(GroupById id, GroupById ancestor) const {
  return LevelOf(id).ComputableFrom(LevelOf(ancestor));
}

std::vector<GroupById> Lattice::Descendants(GroupById id) const {
  const LevelVector& lv = LevelOf(id);
  std::vector<GroupById> out;
  out.reserve(static_cast<size_t>(NumDescendants(id)));
  // Enumerate all level vectors component-wise <= lv.
  LevelVector cur = LevelVector::Uniform(lv.size(), 0);
  while (true) {
    out.push_back(IdOf(cur));
    int d = lv.size() - 1;
    while (d >= 0) {
      if (cur[d] < lv[d]) {
        cur.Set(d, cur[d] + 1);
        break;
      }
      cur.Set(d, 0);
      --d;
    }
    if (d < 0) break;
  }
  return out;
}

int64_t Lattice::NumDescendants(GroupById id) const {
  const LevelVector& lv = LevelOf(id);
  int64_t n = 1;
  for (int d = 0; d < lv.size(); ++d) n *= lv[d] + 1;
  return n;
}

uint64_t Lattice::NumPathsToBase(GroupById id) const {
  const LevelVector& lv = LevelOf(id);
  // Multinomial coefficient computed incrementally as a product of binomials:
  // C(g1, g1) * C(g1+g2, g2) * ... where g_i = h_i - l_i.
  uint64_t result = 1;
  int64_t total = 0;
  for (int d = 0; d < lv.size(); ++d) {
    const int64_t gap = schema_->dimension(d).hierarchy_size() - lv[d];
    for (int64_t k = 1; k <= gap; ++k) {
      ++total;
      // result *= total; result /= k;  (kept exact by multiplying first)
      const __uint128_t num = static_cast<__uint128_t>(result) *
                              static_cast<uint64_t>(total);
      AAC_CHECK(num / static_cast<uint64_t>(total) == result);  // no overflow
      const __uint128_t div = num / static_cast<uint64_t>(k);
      AAC_CHECK(div * static_cast<uint64_t>(k) == num);  // exact at each step
      AAC_CHECK(div <= ~static_cast<uint64_t>(0));
      result = static_cast<uint64_t>(div);
    }
  }
  return result;
}

}  // namespace aac
