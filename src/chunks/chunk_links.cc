#include "chunks/chunk_links.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace aac {

namespace {

// The one dimension on which two lattice neighbours differ.
int StepDimension(const LevelVector& a, const LevelVector& b) {
  for (int d = 0; d < a.size(); ++d) {
    if (a[d] != b[d]) return d;
  }
  AAC_CHECK(false);
  return -1;
}

}  // namespace

ChunkLinks::ChunkLinks(const ChunkGrid* grid) {
  AAC_CHECK(grid != nullptr);
  const Lattice& lattice = grid->lattice();
  const int nd = grid->schema().num_dims();

  // Per-dimension range tables: for chunk c at level l, the chunk range one
  // level finer (finer[d][l][c]) and the chunk one level coarser
  // (coarser[d][l][c]).
  std::vector<std::vector<std::vector<std::pair<int32_t, int32_t>>>> finer(
      static_cast<size_t>(nd));
  std::vector<std::vector<std::vector<int32_t>>> coarser(
      static_cast<size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    const DimensionChunkLayout& layout = grid->layout(d);
    const int levels = layout.dimension().num_levels();
    auto& dim_finer = finer[static_cast<size_t>(d)];
    auto& dim_coarser = coarser[static_cast<size_t>(d)];
    dim_finer.resize(static_cast<size_t>(levels));
    dim_coarser.resize(static_cast<size_t>(levels));
    for (int l = 0; l < levels; ++l) {
      for (int32_t c = 0; c < layout.num_chunks(l); ++c) {
        if (l + 1 < levels) {
          dim_finer[static_cast<size_t>(l)].push_back(
              layout.ChildChunkRange(l, c));
        }
        if (l > 0) {
          dim_coarser[static_cast<size_t>(l)].push_back(
              layout.ParentChunk(l, c));
        }
      }
    }
  }

  const size_t num_gbs = static_cast<size_t>(lattice.num_groupbys());
  parent_begin_.assign(num_gbs + 1, 0);
  child_begin_.assign(num_gbs + 1, 0);
  stride_begin_.assign(num_gbs + 1, 0);
  parent_degree_.resize(num_gbs);
  child_degree_.resize(num_gbs);
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const size_t g = static_cast<size_t>(gb);
    const int64_t chunks = grid->NumChunks(gb);
    // Links store chunk numbers as int32_t.
    AAC_CHECK_LE(chunks, int64_t{std::numeric_limits<int32_t>::max()});
    const size_t np = lattice.Parents(gb).size();
    const size_t nc = lattice.Children(gb).size();
    AAC_CHECK_LE(np, size_t{std::numeric_limits<uint8_t>::max()});
    AAC_CHECK_LE(nc, size_t{std::numeric_limits<uint8_t>::max()});
    parent_degree_[g] = static_cast<uint8_t>(np);
    child_degree_[g] = static_cast<uint8_t>(nc);
    parent_begin_[g + 1] = parent_begin_[g] + chunks * static_cast<int64_t>(np);
    child_begin_[g + 1] = child_begin_[g] + chunks * static_cast<int64_t>(nc);
    stride_begin_[g + 1] = stride_begin_[g] + static_cast<int64_t>(np);
  }
  parent_links_.resize(static_cast<size_t>(parent_begin_.back()));
  child_links_.resize(static_cast<size_t>(child_begin_.back()));
  parent_strides_.resize(static_cast<size_t>(stride_begin_.back()));

  // Chunk number of `coords` in group-by `gb`; it fits: checked above.
  const auto chunk_id = [grid, nd](GroupById gb, const ChunkCoords& coords) {
    int64_t id = 0;
    for (int d = 0; d < nd; ++d) {
      id += coords[static_cast<size_t>(d)] * grid->Stride(gb, d);
    }
    return static_cast<int32_t>(id);
  };
  std::vector<int> parent_dims;
  std::vector<int> child_dims;
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const size_t g = static_cast<size_t>(gb);
    const LevelVector& lv = lattice.LevelOf(gb);
    const auto& parents = lattice.Parents(gb);
    const auto& children = lattice.Children(gb);
    parent_dims.resize(parents.size());
    for (size_t pi = 0; pi < parents.size(); ++pi) {
      parent_dims[pi] = StepDimension(lv, lattice.LevelOf(parents[pi]));
      parent_strides_[static_cast<size_t>(stride_begin_[g]) + pi] =
          grid->Stride(parents[pi], parent_dims[pi]);
    }
    child_dims.resize(children.size());
    for (size_t ci = 0; ci < children.size(); ++ci) {
      child_dims[ci] = StepDimension(lv, lattice.LevelOf(children[ci]));
    }
    Link* parent_out = &parent_links_[static_cast<size_t>(parent_begin_[g])];
    int32_t* child_out = &child_links_[static_cast<size_t>(child_begin_[g])];
    // The group-by's chunks in number order: row-major coordinates, the
    // last dimension fastest.
    ChunkCoords coords{};
    for (ChunkId chunk = 0; chunk < grid->NumChunks(gb); ++chunk) {
      for (size_t pi = 0; pi < parents.size(); ++pi) {
        const size_t d = static_cast<size_t>(parent_dims[pi]);
        const auto [begin, end] =
            finer[d][static_cast<size_t>(lv[static_cast<int>(d)])]
                 [static_cast<size_t>(coords[d])];
        ChunkCoords at = coords;
        at[d] = begin;
        *parent_out++ = Link{chunk_id(parents[pi], at), end - begin};
      }
      for (size_t ci = 0; ci < children.size(); ++ci) {
        const size_t d = static_cast<size_t>(child_dims[ci]);
        ChunkCoords at = coords;
        at[d] = coarser[d][static_cast<size_t>(lv[static_cast<int>(d)])]
                       [static_cast<size_t>(coords[d])];
        *child_out++ = chunk_id(children[ci], at);
      }
      for (int d = nd - 1; d >= 0; --d) {
        const size_t e = static_cast<size_t>(d);
        if (++coords[e] < grid->layout(d).num_chunks(lv[d])) break;
        coords[e] = 0;
      }
    }
  }
}

int64_t ChunkLinks::bytes() const {
  const auto vector_bytes = [](const auto& v) {
    return static_cast<int64_t>(v.size() * sizeof(v[0]));
  };
  return vector_bytes(parent_begin_) + vector_bytes(child_begin_) +
         vector_bytes(stride_begin_) + vector_bytes(parent_degree_) +
         vector_bytes(child_degree_) + vector_bytes(parent_links_) +
         vector_bytes(parent_strides_) + vector_bytes(child_links_);
}

}  // namespace aac
