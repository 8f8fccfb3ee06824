#include "chunks/chunk_layout.h"

#include <algorithm>

#include "util/check.h"

namespace aac {

DimensionChunkLayout::DimensionChunkLayout(
    const Dimension* dim, std::vector<std::vector<int32_t>> chunk_begins)
    : dim_(dim), chunk_begins_(std::move(chunk_begins)) {
  AAC_CHECK(dim_ != nullptr);
  AAC_CHECK_EQ(chunk_begins_.size(), static_cast<size_t>(dim_->num_levels()));
  // Append the end sentinel (cardinality) to each level's begin list.
  for (int l = 0; l < dim_->num_levels(); ++l) {
    auto& begins = chunk_begins_[static_cast<size_t>(l)];
    AAC_CHECK(!begins.empty());
    AAC_CHECK_EQ(begins.front(), 0);
    begins.push_back(static_cast<int32_t>(dim_->cardinality(l)));
  }
  Validate();
  chunk_of_value_.resize(chunk_begins_.size());
  for (size_t l = 0; l < chunk_begins_.size(); ++l) {
    const auto& begins = chunk_begins_[l];
    auto& table = chunk_of_value_[l];
    table.resize(static_cast<size_t>(begins.back()));
    for (size_t c = 0; c + 1 < begins.size(); ++c) {
      std::fill(table.begin() + begins[c], table.begin() + begins[c + 1],
                static_cast<int32_t>(c));
    }
  }
}

DimensionChunkLayout DimensionChunkLayout::UniformValuesPerChunk(
    const Dimension* dim, const std::vector<int32_t>& values_per_chunk) {
  AAC_CHECK(dim != nullptr);
  AAC_CHECK_EQ(values_per_chunk.size(), static_cast<size_t>(dim->num_levels()));
  std::vector<std::vector<int32_t>> begins(
      static_cast<size_t>(dim->num_levels()));
  for (int l = 0; l < dim->num_levels(); ++l) {
    const int32_t vpc = values_per_chunk[static_cast<size_t>(l)];
    AAC_CHECK_GT(vpc, 0);
    const auto card = static_cast<int32_t>(dim->cardinality(l));
    for (int32_t v = 0; v < card; v += vpc) {
      begins[static_cast<size_t>(l)].push_back(v);
    }
  }
  return DimensionChunkLayout(dim, std::move(begins));
}

int32_t DimensionChunkLayout::num_chunks(int level) const {
  AAC_CHECK(level >= 0 && level < dim_->num_levels());
  return static_cast<int32_t>(chunk_begins_[static_cast<size_t>(level)].size()) -
         1;
}

std::pair<int32_t, int32_t> DimensionChunkLayout::ValueRange(
    int level, int32_t chunk) const {
  AAC_DCHECK(chunk >= 0 && chunk < num_chunks(level));
  const auto& begins = chunk_begins_[static_cast<size_t>(level)];
  return {begins[static_cast<size_t>(chunk)],
          begins[static_cast<size_t>(chunk) + 1]};
}

int32_t DimensionChunkLayout::ChunkWidth(int level, int32_t chunk) const {
  auto [b, e] = ValueRange(level, chunk);
  return e - b;
}

std::pair<int32_t, int32_t> DimensionChunkLayout::ChildChunkRange(
    int level, int32_t chunk) const {
  AAC_CHECK_LT(level, dim_->hierarchy_size());
  auto [vb, ve] = ValueRange(level, chunk);
  const int32_t child_vb = dim_->ChildRange(level, vb).first;
  const int32_t child_ve = dim_->ChildRange(level, ve - 1).second;
  const int32_t cb = ChunkOfValue(level + 1, child_vb);
  const int32_t ce = ChunkOfValue(level + 1, child_ve - 1) + 1;
  return {cb, ce};
}

std::pair<int32_t, int32_t> DimensionChunkLayout::DescendantChunkRange(
    int level, int32_t chunk, int target_level) const {
  AAC_CHECK_GE(target_level, level);
  std::pair<int32_t, int32_t> range{chunk, chunk + 1};
  for (int l = level; l < target_level; ++l) {
    range = {ChildChunkRange(l, range.first).first,
             ChildChunkRange(l, range.second - 1).second};
  }
  return range;
}

int32_t DimensionChunkLayout::ParentChunk(int level, int32_t chunk) const {
  AAC_CHECK_GE(level, 1);
  auto [vb, ve] = ValueRange(level, chunk);
  (void)ve;
  return ChunkOfValue(level - 1, dim_->ParentValue(level, vb));
}

int32_t DimensionChunkLayout::AncestorChunk(int level, int32_t chunk,
                                            int target_level) const {
  AAC_CHECK_LE(target_level, level);
  int32_t c = chunk;
  for (int l = level; l > target_level; --l) c = ParentChunk(l, c);
  return c;
}

int64_t DimensionChunkLayout::TotalChunksAllLevels() const {
  int64_t total = 0;
  for (int l = 0; l < dim_->num_levels(); ++l) total += num_chunks(l);
  return total;
}

void DimensionChunkLayout::Validate() const {
  for (int l = 0; l < dim_->num_levels(); ++l) {
    const auto& begins = chunk_begins_[static_cast<size_t>(l)];
    const auto card = static_cast<int32_t>(dim_->cardinality(l));
    AAC_CHECK_GE(begins.size(), 2u);
    AAC_CHECK_EQ(begins.back(), card);
    for (size_t i = 1; i < begins.size(); ++i) {
      AAC_CHECK_LT(begins[i - 1], begins[i]);  // non-empty, increasing
    }
  }
  // Hierarchical alignment (closure property): each chunk's child values at
  // the next level start and end exactly on chunk boundaries there.
  for (int l = 0; l < dim_->hierarchy_size(); ++l) {
    const auto& child_begins = chunk_begins_[static_cast<size_t>(l) + 1];
    for (int32_t c = 0; c < num_chunks(l); ++c) {
      auto [vb, ve] = ValueRange(l, c);
      const int32_t child_vb = dim_->ChildRange(l, vb).first;
      const int32_t child_ve = dim_->ChildRange(l, ve - 1).second;
      AAC_CHECK(std::binary_search(child_begins.begin(), child_begins.end(),
                                   child_vb));
      AAC_CHECK(std::binary_search(child_begins.begin(), child_begins.end(),
                                   child_ve));
    }
  }
}

}  // namespace aac
