#include "chunks/chunk_grid.h"

#include "util/check.h"

namespace aac {

ChunkGrid::ChunkGrid(const Lattice* lattice,
                     std::vector<const DimensionChunkLayout*> layouts)
    : lattice_(lattice), layouts_(std::move(layouts)) {
  AAC_CHECK(lattice_ != nullptr);
  const int nd = schema().num_dims();
  AAC_CHECK_EQ(layouts_.size(), static_cast<size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    AAC_CHECK(layouts_[static_cast<size_t>(d)] != nullptr);
    AAC_CHECK_EQ(&layouts_[static_cast<size_t>(d)]->dimension(),
                 &schema().dimension(d));
  }
  num_chunks_.resize(static_cast<size_t>(lattice_->num_groupbys()));
  flat_begin_.assign(static_cast<size_t>(lattice_->num_groupbys()) + 1, 0);
  strides_.resize(static_cast<size_t>(lattice_->num_groupbys()));
  for (GroupById gb = 0; gb < lattice_->num_groupbys(); ++gb) {
    const LevelVector& lv = lattice_->LevelOf(gb);
    int64_t total = 1;
    auto& strides = strides_[static_cast<size_t>(gb)];
    for (int d = nd - 1; d >= 0; --d) {
      strides[static_cast<size_t>(d)] = total;
      total *= layouts_[static_cast<size_t>(d)]->num_chunks(lv[d]);
    }
    num_chunks_[static_cast<size_t>(gb)] = total;
    flat_begin_[static_cast<size_t>(gb) + 1] =
        flat_begin_[static_cast<size_t>(gb)] + total;
  }
}

const DimensionChunkLayout& ChunkGrid::layout(int dim) const {
  AAC_CHECK(dim >= 0 && dim < schema().num_dims());
  return *layouts_[static_cast<size_t>(dim)];
}

int64_t ChunkGrid::NumChunks(GroupById gb) const {
  AAC_CHECK(gb >= 0 && gb < lattice_->num_groupbys());
  return num_chunks_[static_cast<size_t>(gb)];
}

ChunkId ChunkGrid::ChunkIdOf(GroupById gb, const ChunkCoords& coords) const {
  const auto& strides = strides_[static_cast<size_t>(gb)];
  const int nd = schema().num_dims();
  ChunkId id = 0;
  for (int d = 0; d < nd; ++d) {
    id += coords[static_cast<size_t>(d)] * strides[static_cast<size_t>(d)];
  }
  AAC_DCHECK(id >= 0 && id < NumChunks(gb));
  return id;
}

ChunkCoords ChunkGrid::CoordsOf(GroupById gb, ChunkId chunk) const {
  AAC_DCHECK(chunk >= 0 && chunk < NumChunks(gb));
  const auto& strides = strides_[static_cast<size_t>(gb)];
  const int nd = schema().num_dims();
  ChunkCoords coords{};
  ChunkId rem = chunk;
  for (int d = 0; d < nd; ++d) {
    coords[static_cast<size_t>(d)] =
        static_cast<int32_t>(rem / strides[static_cast<size_t>(d)]);
    rem %= strides[static_cast<size_t>(d)];
  }
  return coords;
}

ChunkId ChunkGrid::ChunkOfCell(GroupById gb, const int32_t* values) const {
  const LevelVector& lv = lattice_->LevelOf(gb);
  const int nd = schema().num_dims();
  ChunkCoords coords{};
  for (int d = 0; d < nd; ++d) {
    coords[static_cast<size_t>(d)] =
        layouts_[static_cast<size_t>(d)]->ChunkOfValue(lv[d], values[d]);
  }
  return ChunkIdOf(gb, coords);
}

int64_t ChunkGrid::CellsInChunk(GroupById gb, ChunkId chunk) const {
  const LevelVector& lv = lattice_->LevelOf(gb);
  const ChunkCoords coords = CoordsOf(gb, chunk);
  int64_t cells = 1;
  for (int d = 0; d < schema().num_dims(); ++d) {
    cells *= layouts_[static_cast<size_t>(d)]->ChunkWidth(
        lv[d], coords[static_cast<size_t>(d)]);
  }
  return cells;
}

std::vector<ChunkId> ChunkGrid::ParentChunkNumbers(GroupById from,
                                                   ChunkId chunk,
                                                   GroupById to) const {
  AAC_CHECK(lattice_->IsAncestor(from, to));
  std::vector<ChunkId> out;
  ForEachParentChunk(from, chunk, to, [&out](ChunkId id) {
    out.push_back(id);
    return true;
  });
  return out;
}

ChunkId ChunkGrid::ChildChunkNumber(GroupById from, ChunkId chunk,
                                    GroupById to) const {
  AAC_CHECK(lattice_->IsAncestor(to, from));
  const LevelVector& from_lv = lattice_->LevelOf(from);
  const LevelVector& to_lv = lattice_->LevelOf(to);
  const ChunkCoords coords = CoordsOf(from, chunk);
  ChunkCoords out{};
  for (int d = 0; d < schema().num_dims(); ++d) {
    out[static_cast<size_t>(d)] =
        layouts_[static_cast<size_t>(d)]->AncestorChunk(
            from_lv[d], coords[static_cast<size_t>(d)], to_lv[d]);
  }
  return ChunkIdOf(to, out);
}

}  // namespace aac
