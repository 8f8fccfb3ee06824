// Lattice inspector: prints the structure behind the algorithms — the
// group-by lattice of the APB-1-like schema, per-depth node/path counts
// (Lemma 1 of the paper), chunk counts, and size estimates. Handy for
// understanding why exhaustive lookup explodes: the fully aggregated
// group-by alone has 720,720 paths to the base table.
//
//   $ ./lattice_inspector

#include <cstdio>
#include <vector>

#include "chunks/chunk_size_model.h"
#include "util/table_printer.h"
#include "workload/apb_schema.h"

using namespace aac;

int main() {
  ApbCube cube;
  const Schema& schema = cube.schema();
  const Lattice& lattice = cube.lattice();
  const ChunkGrid& grid = cube.grid();

  std::printf("schema: %d dimensions\n", schema.num_dims());
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Dimension& dim = schema.dimension(d);
    std::printf("  %-9s h=%d levels:", dim.name().c_str(),
                dim.hierarchy_size());
    for (int l = 0; l < dim.num_levels(); ++l) {
      std::printf(" %s(%lld values, %d chunks)", dim.level_name(l).c_str(),
                  static_cast<long long>(dim.cardinality(l)),
                  grid.layout(d).num_chunks(l));
    }
    std::printf("\n");
  }
  std::printf("\nlattice: %d group-bys, %lld chunks over all levels, "
              "%lld base chunks\n\n",
              lattice.num_groupbys(),
              static_cast<long long>(grid.TotalChunksAllGroupBys()),
              static_cast<long long>(grid.NumChunks(lattice.base_id())));

  // Aggregate per depth (levels of aggregation above the base).
  const int base_rank = lattice.LevelSum(lattice.base_id());
  struct DepthRow {
    int64_t nodes = 0;
    int64_t chunks = 0;
    uint64_t max_paths = 0;
    uint64_t total_paths = 0;
  };
  std::vector<DepthRow> rows(32);
  int max_depth = 0;
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const int depth = base_rank - lattice.LevelSum(gb);
    max_depth = std::max(max_depth, depth);
    DepthRow& row = rows[static_cast<size_t>(depth)];
    ++row.nodes;
    row.chunks += grid.NumChunks(gb);
    const uint64_t paths = lattice.NumPathsToBase(gb);
    row.max_paths = std::max(row.max_paths, paths);
    row.total_paths += paths;
  }

  TablePrinter table({"depth above base", "group-bys", "chunks",
                      "max paths to base (Lemma 1)", "sum of paths"});
  for (int depth = 0; depth <= max_depth; ++depth) {
    const DepthRow& row = rows[static_cast<size_t>(depth)];
    table.AddRow({std::to_string(depth), std::to_string(row.nodes),
                  std::to_string(row.chunks), std::to_string(row.max_paths),
                  std::to_string(row.total_paths)});
  }
  table.Print();

  std::printf("\nthe fully aggregated group-by has %llu paths to the base "
              "(13!/(6!2!3!1!1!)) — what the exhaustive search explores and "
              "a single virtual-count read avoids.\n\n",
              static_cast<unsigned long long>(
                  lattice.NumPathsToBase(lattice.top_id())));

  // Size estimates for a few interesting group-bys.
  ChunkSizeModel model(&grid, /*num_base_tuples=*/1'000'000);
  std::printf("estimated sizes at 1M base tuples (analytic occupancy "
              "model):\n");
  for (const LevelVector lv :
       {schema.base_level(), LevelVector{6, 2, 0, 1, 1},
        LevelVector{3, 1, 2, 0, 0}, schema.top_level()}) {
    const GroupById gb = lattice.IdOf(lv);
    std::printf("  %-12s ~%.0f tuples, %lld descendants computable from "
                "it\n",
                lv.ToString().c_str(), model.ExpectedGroupByTuples(gb),
                static_cast<long long>(lattice.NumDescendants(gb)));
  }
  return 0;
}
