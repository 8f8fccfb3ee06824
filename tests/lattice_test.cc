#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "schema/lattice.h"
#include "schema/schema.h"

namespace aac {
namespace {

// The paper's Example 2 schema: dims A, C with single-level hierarchies and
// B with a two-level hierarchy.
Schema MakeExample2Schema() {
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("A", 1, {4}));     // h=1
  dims.push_back(Dimension::Uniform("B", 1, {2, 2}));  // h=2
  dims.push_back(Dimension::Uniform("C", 1, {4}));     // h=1
  return Schema(std::move(dims));
}

// APB-1 hierarchy sizes from the paper: 6, 2, 3, 1, 1 -> 336 group-bys.
Schema MakeApbShapeSchema() {
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("product", 1, {2, 2, 2, 2, 2, 2}));
  dims.push_back(Dimension::Uniform("customer", 1, {2, 2}));
  dims.push_back(Dimension::Uniform("time", 1, {2, 2, 2}));
  dims.push_back(Dimension::Uniform("channel", 1, {2}));
  dims.push_back(Dimension::Uniform("scenario", 1, {2}));
  return Schema(std::move(dims));
}

TEST(Lattice, NumGroupBysMatchesPaperExample2) {
  Schema s = MakeExample2Schema();
  Lattice lat(&s);
  EXPECT_EQ(lat.num_groupbys(), 2 * 3 * 2);
}

TEST(Lattice, NumGroupBysMatchesApb) {
  Schema s = MakeApbShapeSchema();
  Lattice lat(&s);
  EXPECT_EQ(lat.num_groupbys(), 336);  // (6+1)(2+1)(3+1)(1+1)(1+1)
}

TEST(Lattice, IdRoundTrip) {
  Schema s = MakeExample2Schema();
  Lattice lat(&s);
  for (GroupById id = 0; id < lat.num_groupbys(); ++id) {
    EXPECT_EQ(lat.IdOf(lat.LevelOf(id)), id);
  }
}

TEST(Lattice, BaseAndTopIds) {
  Schema s = MakeExample2Schema();
  Lattice lat(&s);
  EXPECT_EQ(lat.LevelOf(lat.base_id()), (LevelVector{1, 2, 1}));
  EXPECT_EQ(lat.LevelOf(lat.top_id()), (LevelVector{0, 0, 0}));
  EXPECT_TRUE(lat.Parents(lat.base_id()).empty());
  EXPECT_TRUE(lat.Children(lat.top_id()).empty());
}

TEST(Lattice, ParentsAreOneLevelMoreDetailed) {
  Schema s = MakeExample2Schema();
  Lattice lat(&s);
  for (GroupById id = 0; id < lat.num_groupbys(); ++id) {
    const LevelVector& lv = lat.LevelOf(id);
    for (GroupById p : lat.Parents(id)) {
      const LevelVector& plv = lat.LevelOf(p);
      int diffs = 0;
      for (int d = 0; d < lv.size(); ++d) {
        if (plv[d] != lv[d]) {
          ++diffs;
          EXPECT_EQ(plv[d], lv[d] + 1);
        }
      }
      EXPECT_EQ(diffs, 1);
    }
  }
}

TEST(Lattice, ChildrenMirrorParents) {
  Schema s = MakeExample2Schema();
  Lattice lat(&s);
  for (GroupById id = 0; id < lat.num_groupbys(); ++id) {
    for (GroupById p : lat.Parents(id)) {
      const auto& back = lat.Children(p);
      EXPECT_NE(std::find(back.begin(), back.end(), id), back.end());
    }
  }
}

TEST(Lattice, IsAncestorMatchesComponentwiseLE) {
  Schema s = MakeExample2Schema();
  Lattice lat(&s);
  const GroupById q = lat.IdOf(LevelVector{0, 2, 0});
  EXPECT_TRUE(lat.IsAncestor(q, lat.IdOf(LevelVector{0, 2, 1})));
  EXPECT_TRUE(lat.IsAncestor(q, lat.IdOf(LevelVector{1, 2, 0})));
  EXPECT_TRUE(lat.IsAncestor(q, q));
  EXPECT_FALSE(lat.IsAncestor(q, lat.IdOf(LevelVector{1, 1, 1})));
}

TEST(Lattice, DescendantsEnumeratesAllLEVectors) {
  Schema s = MakeExample2Schema();
  Lattice lat(&s);
  const GroupById id = lat.IdOf(LevelVector{1, 1, 0});
  std::vector<GroupById> desc = lat.Descendants(id);
  EXPECT_EQ(static_cast<int64_t>(desc.size()), lat.NumDescendants(id));
  EXPECT_EQ(desc.size(), 4u);  // (1+1)(1+1)(0+1)
  std::set<GroupById> set(desc.begin(), desc.end());
  EXPECT_TRUE(set.count(lat.IdOf(LevelVector{0, 0, 0})));
  EXPECT_TRUE(set.count(lat.IdOf(LevelVector{1, 1, 0})));
  EXPECT_FALSE(set.count(lat.IdOf(LevelVector{1, 1, 1})));
}

TEST(Lattice, NumDescendantsOfBaseIsWholeLattice) {
  Schema s = MakeApbShapeSchema();
  Lattice lat(&s);
  EXPECT_EQ(lat.NumDescendants(lat.base_id()), lat.num_groupbys());
  EXPECT_EQ(lat.NumDescendants(lat.top_id()), 1);
}

// Brute-force path count by DFS over parent edges.
uint64_t CountPathsDfs(const Lattice& lat, GroupById id) {
  if (id == lat.base_id()) return 1;
  uint64_t n = 0;
  for (GroupById p : lat.Parents(id)) n += CountPathsDfs(lat, p);
  return n;
}

TEST(Lattice, Lemma1PathCountMatchesBruteForce) {
  Schema s = MakeExample2Schema();
  Lattice lat(&s);
  for (GroupById id = 0; id < lat.num_groupbys(); ++id) {
    EXPECT_EQ(lat.NumPathsToBase(id), CountPathsDfs(lat, id))
        << lat.LevelOf(id).ToString();
  }
}

TEST(Lattice, Lemma1WorstCaseMatchesPaperApbFigure) {
  Schema s = MakeApbShapeSchema();
  Lattice lat(&s);
  // (h1+...+hn)! / (h1! h2! ... hn!) = 13!/(6!2!3!1!1!) = 720720.
  EXPECT_EQ(lat.NumPathsToBase(lat.top_id()), 720720u);
  EXPECT_EQ(lat.NumPathsToBase(lat.base_id()), 1u);
}

TEST(Lattice, TopoDetailedFirstRespectsParentOrder) {
  Schema s = MakeApbShapeSchema();
  Lattice lat(&s);
  std::vector<int> pos(static_cast<size_t>(lat.num_groupbys()));
  const auto& order = lat.TopoDetailedFirst();
  ASSERT_EQ(order.size(), static_cast<size_t>(lat.num_groupbys()));
  for (size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (GroupById id = 0; id < lat.num_groupbys(); ++id) {
    for (GroupById p : lat.Parents(id)) {
      EXPECT_LT(pos[static_cast<size_t>(p)], pos[static_cast<size_t>(id)]);
    }
  }
}

TEST(Lattice, LevelSumIsTheRank) {
  for (const Schema& s : {MakeExample2Schema(), MakeApbShapeSchema()}) {
    Lattice lat(&s);
    EXPECT_EQ(lat.LevelSum(lat.top_id()), 0);
    int hierarchy_sizes = 0;
    for (int d = 0; d < s.num_dims(); ++d) {
      hierarchy_sizes += s.dimension(d).hierarchy_size();
    }
    EXPECT_EQ(lat.LevelSum(lat.base_id()), hierarchy_sizes);
    for (GroupById id = 0; id < lat.num_groupbys(); ++id) {
      for (GroupById p : lat.Parents(id)) {
        EXPECT_EQ(lat.LevelSum(p), lat.LevelSum(id) + 1);
      }
    }
  }
}

TEST(Lattice, SingleDimensionDegenerateChain) {
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Uniform("only", 1, {2, 2}));
  Schema s(std::move(dims));
  Lattice lat(&s);
  EXPECT_EQ(lat.num_groupbys(), 3);
  EXPECT_EQ(lat.NumPathsToBase(lat.top_id()), 1u);  // chain has one path
  EXPECT_EQ(lat.Parents(lat.top_id()).size(), 1u);
}

}  // namespace
}  // namespace aac
