// Rollup-kernel microbenchmark: pre-PR kernel vs the RollupPlan kernel.
//
// The "old" side is a faithful replica of the kernel before precomputed
// ancestor-offset tables landed: per cell it walks the dimension hierarchy
// level by level (Dimension::ParentValue in a loop, AAC_CHECK per step),
// zeroes fresh dense State arrays per call, sweeps every target cell on
// emit, and hashes through std::unordered_map on the sparse path. The
// "new" side is Aggregator::AggregateSpans (plan cache + fold arena).
//
// Cases: dense multi-level rollups (uniform and non-uniform hierarchies),
// a sparse rollup into a large mostly-empty chunk, and a 1..8 source-span
// sweep. On top of the old-vs-new comparison, every case also measures the
// forced scalar vs forced vector fold kernel (the SIMD dispatch seam) and a
// 1/2/4/8-morsel-lane sweep through a MorselPool — all variants are checked
// bit-identical against each other, always. Results (ns/tuple and speedups)
// are printed and written to BENCH_rollup.json (override with --out PATH;
// AAC_BENCH_ROLLUP_REPS rescales). --smoke runs tiny sizes, verifies the
// identities, additionally asserts the vector kernel beats scalar by >= 1.5x
// on the best dense case (skipped — not failed — without AVX2 or under a
// sanitizer, where instrumentation swamps the kernel), and writes no file
// unless --out is given — tools/check.sh kernel-simd and bench-smoke run
// exactly that.
//
// Caveat for committed numbers: on a single-core container the morsel-lane
// columns measure oversubscription (lanes time-slice one core), not
// scaling; the JSON records hardware_concurrency so readers can tell.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/support.h"
#include "chunks/chunk_grid.h"
#include "chunks/chunk_layout.h"
#include "schema/lattice.h"
#include "schema/schema.h"
#include "storage/aggregator.h"
#include "storage/chunk_data.h"
#include "storage/fold_kernel.h"
#include "storage/morsel_pool.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace aac::bench {
namespace {

// ---------------------------------------------------------------------------
// Pre-PR kernel replica.
// ---------------------------------------------------------------------------

struct OldTargetChunkShape {
  int num_dims = 0;
  std::array<int32_t, kMaxDims> range_begin{};
  std::array<int64_t, kMaxDims> stride{};
  std::array<int32_t, kMaxDims> width{};
  int64_t cells = 1;

  static OldTargetChunkShape Make(const ChunkGrid& grid, GroupById gb,
                                  ChunkId chunk) {
    OldTargetChunkShape s;
    const LevelVector& lv = grid.lattice().LevelOf(gb);
    const ChunkCoords coords = grid.CoordsOf(gb, chunk);
    s.num_dims = grid.schema().num_dims();
    for (int d = s.num_dims - 1; d >= 0; --d) {
      auto [vb, ve] =
          grid.layout(d).ValueRange(lv[d], coords[static_cast<size_t>(d)]);
      s.range_begin[static_cast<size_t>(d)] = vb;
      s.width[static_cast<size_t>(d)] = ve - vb;
      s.stride[static_cast<size_t>(d)] = s.cells;
      s.cells *= ve - vb;
    }
    return s;
  }

  int64_t OffsetOf(const int32_t* values) const {
    int64_t off = 0;
    for (int d = 0; d < num_dims; ++d) {
      const int32_t rel = values[d] - range_begin[static_cast<size_t>(d)];
      AAC_CHECK(rel >= 0 && rel < width[static_cast<size_t>(d)]);
      off += rel * stride[static_cast<size_t>(d)];
    }
    return off;
  }

  void ValuesOf(int64_t offset, int32_t* values) const {
    for (int d = 0; d < num_dims; ++d) {
      values[d] = range_begin[static_cast<size_t>(d)] +
                  static_cast<int32_t>(offset / stride[static_cast<size_t>(d)]);
      offset %= stride[static_cast<size_t>(d)];
    }
  }
};

constexpr int64_t kDenseCellLimit = int64_t{1} << 22;

ChunkData OldAggregateSpans(const ChunkGrid& grid, GroupById from,
                            const std::vector<std::span<const Cell>>& spans,
                            GroupById to, ChunkId chunk) {
  const Schema& schema = grid.schema();
  const Lattice& lattice = grid.lattice();
  const LevelVector& from_lv = lattice.LevelOf(from);
  const LevelVector& to_lv = lattice.LevelOf(to);
  const int nd = schema.num_dims();
  const OldTargetChunkShape shape = OldTargetChunkShape::Make(grid, to, chunk);

  ChunkData out;
  out.gb = to;
  out.chunk = chunk;
  std::vector<Cell>* accumulator = &out.cells;

  // The pre-PR per-cell hierarchy walk: AncestorValue was a ParentValue
  // loop, one guarded vector lookup per level step.
  auto map_cell = [&](const Cell& c, std::array<int32_t, kMaxDims>* mapped) {
    for (int d = 0; d < nd; ++d) {
      const Dimension& dim = schema.dimension(d);
      int32_t v = c.values[static_cast<size_t>(d)];
      for (int l = from_lv[d]; l > to_lv[d]; --l) v = dim.ParentValue(l, v);
      (*mapped)[static_cast<size_t>(d)] = v;
    }
  };

  int64_t incoming = 0;
  for (const auto& span : spans) incoming += static_cast<int64_t>(span.size());

  const bool use_dense =
      shape.cells <= kDenseCellLimit &&
      (shape.cells <= 4096 || shape.cells <= 4 * incoming);
  struct State {
    double sum = 0.0;
    int64_t count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    void Merge(const Cell& c) {
      sum += c.measure;
      count += c.count;
      if (c.min < min) min = c.min;
      if (c.max > max) max = c.max;
    }
  };
  auto emit = [&shape](int64_t off, const State& s, std::vector<Cell>* dst) {
    Cell cell;
    shape.ValuesOf(off, cell.values.data());
    cell.measure = s.sum;
    cell.count = s.count;
    cell.min = s.min;
    cell.max = s.max;
    dst->push_back(cell);
  };

  if (use_dense) {
    // Fresh multi-MB buffers, zeroed per call — the allocation churn the
    // fold arena removes.
    std::vector<State> states(static_cast<size_t>(shape.cells));
    std::vector<uint8_t> occupied(static_cast<size_t>(shape.cells), 0);
    std::array<int32_t, kMaxDims> mapped{};
    for (const auto& span : spans) {
      for (const Cell& c : span) {
        map_cell(c, &mapped);
        const int64_t off = shape.OffsetOf(mapped.data());
        states[static_cast<size_t>(off)].Merge(c);
        occupied[static_cast<size_t>(off)] = 1;
      }
    }
    accumulator->clear();
    // Full sweep over every target cell, occupied or not.
    for (int64_t off = 0; off < shape.cells; ++off) {
      if (!occupied[static_cast<size_t>(off)]) continue;
      emit(off, states[static_cast<size_t>(off)], accumulator);
    }
  } else {
    std::unordered_map<int64_t, State> states;
    states.reserve(static_cast<size_t>(incoming));
    std::array<int32_t, kMaxDims> mapped{};
    for (const auto& span : spans) {
      for (const Cell& c : span) {
        map_cell(c, &mapped);
        states[shape.OffsetOf(mapped.data())].Merge(c);
      }
    }
    accumulator->clear();
    accumulator->reserve(states.size());
    for (const auto& [off, state] : states) emit(off, state, accumulator);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bench harness.
// ---------------------------------------------------------------------------

struct Cube {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<Lattice> lattice;
  std::vector<std::unique_ptr<DimensionChunkLayout>> layouts;
  std::unique_ptr<ChunkGrid> grid;
};

// One chunk per level per dimension (whole level = one chunk): rollup
// targets then cover full levels, which keeps the arithmetic obvious.
Cube MakeCube(std::vector<Dimension> dims) {
  Cube c;
  c.schema = std::make_unique<Schema>(std::move(dims));
  c.lattice = std::make_unique<Lattice>(c.schema.get());
  for (int d = 0; d < c.schema->num_dims(); ++d) {
    const Dimension& dim = c.schema->dimension(d);
    std::vector<int32_t> per_level;
    for (int l = 0; l < dim.num_levels(); ++l) {
      per_level.push_back(static_cast<int32_t>(dim.cardinality(l)));
    }
    c.layouts.push_back(std::make_unique<DimensionChunkLayout>(
        DimensionChunkLayout::UniformValuesPerChunk(&dim, per_level)));
  }
  std::vector<const DimensionChunkLayout*> ptrs;
  for (const auto& l : c.layouts) ptrs.push_back(l.get());
  c.grid = std::make_unique<ChunkGrid>(c.lattice.get(), std::move(ptrs));
  return c;
}

std::vector<std::vector<Cell>> RandomSpans(const Cube& cube, int num_spans,
                                           int64_t tuples_per_span,
                                           uint64_t seed) {
  Rng rng(seed);
  const Schema& schema = *cube.schema;
  const LevelVector& base = schema.base_level();
  const int nd = schema.num_dims();
  std::vector<std::vector<Cell>> spans;
  for (int s = 0; s < num_spans; ++s) {
    std::vector<Cell> cells;
    cells.reserve(static_cast<size_t>(tuples_per_span));
    for (int64_t i = 0; i < tuples_per_span; ++i) {
      Cell c;
      for (int d = 0; d < nd; ++d) {
        c.values[static_cast<size_t>(d)] = static_cast<int32_t>(
            rng.Uniform(static_cast<uint64_t>(schema.dimension(d).cardinality(base[d]))));
      }
      InitCellAggregates(c, static_cast<double>(rng.Uniform(1000)) + 0.5);
      cells.push_back(c);
    }
    spans.push_back(std::move(cells));
  }
  return spans;
}

std::vector<std::span<const Cell>> AsSpans(
    const std::vector<std::vector<Cell>>& spans) {
  std::vector<std::span<const Cell>> out;
  out.reserve(spans.size());
  for (const auto& s : spans) out.emplace_back(s);
  return out;
}

// Morsel-lane sweep points (lane 1 = serial, lane N = caller + N-1 helpers).
constexpr std::array<int, 4> kLaneSweep = {1, 2, 4, 8};

struct CaseResult {
  std::string name;
  std::string path;  // "dense" or "sparse" (which fold path the case hits)
  int num_spans = 0;
  int64_t tuples = 0;
  int64_t target_cells = 0;
  double old_ns_per_tuple = 0.0;
  double new_ns_per_tuple = 0.0;
  double speedup = 0.0;
  bool identical = false;

  // SIMD dispatch seam: the same fold forced onto each kernel. The sparse
  // path ignores the setting (it is always scalar), so simd_speedup is only
  // meaningful for path == "dense".
  double scalar_ns_per_tuple = 0.0;
  double vector_ns_per_tuple = 0.0;
  double simd_speedup = 0.0;
  bool simd_identical = false;

  // Morsel-lane sweep (default kernel): ns/tuple at 1/2/4/8 lanes. Lanes
  // only engage on the dense path; sparse cases report serial numbers for
  // every column.
  std::array<double, kLaneSweep.size()> lane_ns_per_tuple{};
  std::array<int, kLaneSweep.size()> lanes_used{};
  bool morsel_identical = false;
};

double MedianNanos(std::vector<int64_t>& samples) {
  std::sort(samples.begin(), samples.end());
  return static_cast<double>(samples[samples.size() / 2]);
}

CaseResult RunCase(const std::string& name, const Cube& cube, GroupById from,
                   GroupById to, ChunkId chunk,
                   const std::vector<std::vector<Cell>>& spans, int reps) {
  const std::vector<std::span<const Cell>> views = AsSpans(spans);
  int64_t tuples = 0;
  for (const auto& s : spans) tuples += static_cast<int64_t>(s.size());

  // New kernel: one aggregator for the whole case, as in the engine
  // (plan cached after the first call, arena recycled).
  Aggregator agg(cube.grid.get());
  ChunkData new_out;
  std::vector<int64_t> new_ns;
  for (int r = 0; r < reps + 1; ++r) {
    Stopwatch sw;
    new_out = agg.AggregateSpans(from, views, to, chunk);
    if (r > 0) new_ns.push_back(sw.ElapsedNanos());  // rep 0 = warmup
  }

  ChunkData old_out;
  std::vector<int64_t> old_ns;
  for (int r = 0; r < reps + 1; ++r) {
    Stopwatch sw;
    old_out = OldAggregateSpans(*cube.grid, from, views, to, chunk);
    if (r > 0) old_ns.push_back(sw.ElapsedNanos());
  }

  CaseResult res;
  res.name = name;
  res.path = agg.last_fold().used_dense ? "dense" : "sparse";
  res.num_spans = static_cast<int>(spans.size());
  res.tuples = tuples;
  res.target_cells = agg.last_fold().shape_cells;
  res.old_ns_per_tuple = MedianNanos(old_ns) / static_cast<double>(tuples);
  res.new_ns_per_tuple = MedianNanos(new_ns) / static_cast<double>(tuples);
  res.speedup = res.old_ns_per_tuple / res.new_ns_per_tuple;
  res.identical =
      ChunkDataEquals(cube.schema->num_dims(), &old_out, &new_out, 0.0);
  const int nd = cube.schema->num_dims();

  // Forced-kernel comparison across the dispatch seam.
  auto time_kernel = [&](FoldKernelKind kind, ChunkData* out) {
    Aggregator forced(cube.grid.get());
    forced.set_fold_kernel(kind);
    std::vector<int64_t> ns;
    for (int r = 0; r < reps + 1; ++r) {
      Stopwatch sw;
      *out = forced.AggregateSpans(from, views, to, chunk);
      if (r > 0) ns.push_back(sw.ElapsedNanos());
    }
    return MedianNanos(ns) / static_cast<double>(tuples);
  };
  ChunkData scalar_out, vector_out;
  res.scalar_ns_per_tuple = time_kernel(FoldKernelKind::kScalar, &scalar_out);
  res.vector_ns_per_tuple = time_kernel(FoldKernelKind::kVector, &vector_out);
  res.simd_speedup = res.scalar_ns_per_tuple / res.vector_ns_per_tuple;
  res.simd_identical = ChunkDataEquals(nd, &scalar_out, &vector_out, 0.0);

  // Morsel-lane sweep (default kernel, thresholds lowered so every dense
  // fold is eligible; sparse folds simply never consult the pool).
  res.morsel_identical = true;
  for (size_t li = 0; li < kLaneSweep.size(); ++li) {
    const int lanes = kLaneSweep[li];
    std::unique_ptr<MorselPool> pool;
    Aggregator lane_agg(cube.grid.get());
    if (lanes > 1) {
      pool = std::make_unique<MorselPool>(lanes - 1);
      lane_agg.set_morsel_pool(pool.get());
      pool->set_min_cells(1);
    }
    ChunkData lane_out;
    std::vector<int64_t> ns;
    for (int r = 0; r < reps + 1; ++r) {
      Stopwatch sw;
      lane_out = lane_agg.AggregateSpans(from, views, to, chunk);
      if (r > 0) ns.push_back(sw.ElapsedNanos());
    }
    res.lane_ns_per_tuple[li] = MedianNanos(ns) / static_cast<double>(tuples);
    res.lanes_used[li] = lane_agg.last_fold().morsel_lanes;
    res.morsel_identical =
        res.morsel_identical && ChunkDataEquals(nd, &lane_out, &new_out, 0.0);
  }
  return res;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: rollup_kernel [--smoke] [--out PATH]\n");
      return 2;
    }
  }
  if (!smoke && out_path.empty()) out_path = "BENCH_rollup.json";

  const int reps =
      static_cast<int>(EnvInt64("AAC_BENCH_ROLLUP_REPS", smoke ? 3 : 9));
  const int64_t scale = smoke ? 10 : 1;  // smoke shrinks tuple counts 10x

  std::vector<CaseResult> results;

  // Dense multi-level rollup, uniform hierarchy: 3 dims of 5 levels
  // (fanout 2: cards 4..64), base level folded 3 levels up. The per-cell
  // cost the plan removes is 9 ParentValue walks per tuple.
  {
    Cube cube = MakeCube([] {
      std::vector<Dimension> dims;
      dims.push_back(Dimension::Uniform("d0", 4, {2, 2, 2, 2}));
      dims.push_back(Dimension::Uniform("d1", 4, {2, 2, 2, 2}));
      dims.push_back(Dimension::Uniform("d2", 4, {2, 2, 2, 2}));
      return dims;
    }());
    const GroupById from = cube.lattice->base_id();
    const GroupById to = cube.lattice->IdOf(LevelVector{1, 1, 1});
    auto spans = RandomSpans(cube, 4, 60'000 / scale, /*seed=*/7);
    results.push_back(
        RunCase("dense_multilevel_uniform", cube, from, to, 0, spans, reps));
  }

  // Dense multi-level rollup, non-uniform hierarchy (irregular fanouts).
  {
    Rng rng(13);
    auto make_nonuniform = [&rng](const std::string& dim_name, int levels,
                                  int64_t card0) {
      std::vector<std::string> names;
      for (int l = 0; l < levels; ++l) {
        std::string level_name = "L";
        level_name += std::to_string(l);
        names.push_back(std::move(level_name));
      }
      std::vector<std::vector<int32_t>> parent_maps;
      int64_t card = card0;
      for (int l = 0; l + 1 < levels; ++l) {
        std::vector<int32_t> pm;
        for (int32_t p = 0; p < card; ++p) {
          const int fanout = 1 + static_cast<int>(rng.Uniform(4));  // 1..4
          for (int k = 0; k < fanout; ++k) pm.push_back(p);
        }
        card = static_cast<int64_t>(pm.size());
        parent_maps.push_back(std::move(pm));
      }
      return Dimension(dim_name, std::move(names), card0,
                       std::move(parent_maps));
    };
    Cube cube = MakeCube([&] {
      std::vector<Dimension> dims;
      dims.push_back(make_nonuniform("n0", 5, 3));
      dims.push_back(make_nonuniform("n1", 5, 3));
      dims.push_back(make_nonuniform("n2", 4, 4));
      return dims;
    }());
    const GroupById from = cube.lattice->base_id();
    const GroupById to = cube.lattice->IdOf(LevelVector{1, 1, 1});
    auto spans = RandomSpans(cube, 4, 60'000 / scale, /*seed=*/11);
    results.push_back(
        RunCase("dense_multilevel_nonuniform", cube, from, to, 0, spans, reps));
  }

  // Dense scatter into a wide chunk: base-level fold into the full 256x256
  // base chunk (64k cells, ~2 MB of fold states). The state array blows the
  // L1 budget, so the scalar kernel stalls on every scattered merge; the
  // vector kernel computes 8 offsets per batch and prefetches their states
  // before merging, overlapping the misses — the case the SIMD seam is for
  // (and the shape the morsel path splits across lanes in production).
  {
    Cube cube = MakeCube([] {
      std::vector<Dimension> dims;
      dims.push_back(Dimension::Uniform("w0", 16, {4, 4}));
      dims.push_back(Dimension::Uniform("w1", 16, {4, 4}));
      return dims;
    }());
    const GroupById base = cube.lattice->base_id();
    auto spans = RandomSpans(cube, 4, 200'000 / scale, /*seed=*/17);
    results.push_back(
        RunCase("dense_scatter_64k", cube, base, base, 0, spans, reps));
  }

  // Sparse rollup: one level up into a 32^3-cell chunk with few tuples —
  // the old kernel's unordered_map path vs the flat open-addressing table.
  {
    Cube cube = MakeCube([] {
      std::vector<Dimension> dims;
      dims.push_back(Dimension::Uniform("s0", 4, {2, 2, 2, 2}));
      dims.push_back(Dimension::Uniform("s1", 4, {2, 2, 2, 2}));
      dims.push_back(Dimension::Uniform("s2", 4, {2, 2, 2, 2}));
      return dims;
    }());
    const GroupById from = cube.lattice->base_id();
    const GroupById to = cube.lattice->IdOf(LevelVector{3, 3, 3});
    auto spans = RandomSpans(cube, 2, 2'000 / scale, /*seed=*/23);
    results.push_back(
        RunCase("sparse_hash_fold", cube, from, to, 0, spans, reps));
  }

  // Source-span sweep: the dense uniform case split across 1..8 spans at a
  // fixed total tuple budget.
  {
    Cube cube = MakeCube([] {
      std::vector<Dimension> dims;
      dims.push_back(Dimension::Uniform("p0", 4, {2, 2, 2, 2}));
      dims.push_back(Dimension::Uniform("p1", 4, {2, 2, 2, 2}));
      dims.push_back(Dimension::Uniform("p2", 4, {2, 2, 2, 2}));
      return dims;
    }());
    const GroupById from = cube.lattice->base_id();
    const GroupById to = cube.lattice->IdOf(LevelVector{1, 1, 1});
    const int64_t total = 96'000 / scale;
    for (int num_spans : {1, 2, 4, 8}) {
      auto spans =
          RandomSpans(cube, num_spans, total / num_spans, /*seed=*/31);
      results.push_back(RunCase("span_sweep_" + std::to_string(num_spans),
                                cube, from, to, 0, spans, reps));
    }
  }

  // Report.
  std::printf(
      "%-28s %-7s %6s %9s %11s %12s %12s %8s %5s\n", "case", "path", "spans",
      "tuples", "cells", "old_ns/tup", "new_ns/tup", "speedup", "same");
  bool all_identical = true;
  for (const CaseResult& r : results) {
    all_identical =
        all_identical && r.identical && r.simd_identical && r.morsel_identical;
    std::printf("%-28s %-7s %6d %9lld %11lld %12.2f %12.2f %7.2fx %5s\n",
                r.name.c_str(), r.path.c_str(), r.num_spans,
                static_cast<long long>(r.tuples),
                static_cast<long long>(r.target_cells), r.old_ns_per_tuple,
                r.new_ns_per_tuple, r.speedup, r.identical ? "yes" : "NO");
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("\nkernel dispatch: default=%s, avx2=%s, hw_threads=%u%s\n",
              FoldKernelName(DefaultFoldKernel()),
              VectorFoldKernelSupported() ? "yes" : "no", hw_threads,
              hw_threads <= 1 ? " (single core: morsel columns measure "
                                "oversubscription, not scaling)"
                              : "");
  std::printf("%-28s %12s %12s %7s  %10s %10s %10s %10s %5s\n", "case",
              "scalar_ns/t", "vector_ns/t", "simd_x", "1-lane", "2-lane",
              "4-lane", "8-lane", "same");
  for (const CaseResult& r : results) {
    std::printf(
        "%-28s %12.2f %12.2f %6.2fx  %10.2f %10.2f %10.2f %10.2f %5s\n",
        r.name.c_str(), r.scalar_ns_per_tuple, r.vector_ns_per_tuple,
        r.simd_speedup, r.lane_ns_per_tuple[0], r.lane_ns_per_tuple[1],
        r.lane_ns_per_tuple[2], r.lane_ns_per_tuple[3],
        r.simd_identical && r.morsel_identical ? "yes" : "NO");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: kernel variants disagree on at least one case "
                 "(old/new, scalar/vector, or morsel lanes)\n");
    return 1;
  }

  if (smoke) {
    // The SIMD acceptance bar: the vector kernel must beat scalar by >=
    // 1.5x on the best dense case. Skipped (not failed) where the vector
    // kernel cannot or should not win: no AVX2, or a sanitizer build whose
    // per-access instrumentation swamps the kernel arithmetic.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    constexpr bool kSanitized = true;
#else
    constexpr bool kSanitized = false;
#endif
    if (!VectorFoldKernelSupported()) {
      std::printf("smoke: SIMD speedup assertion skipped (no AVX2)\n");
    } else if (kSanitized) {
      std::printf("smoke: SIMD speedup assertion skipped (sanitizer build)\n");
    } else {
      double best_dense_simd = 0.0;
      for (const CaseResult& r : results) {
        if (r.path == "dense") {
          best_dense_simd = std::max(best_dense_simd, r.simd_speedup);
        }
      }
      if (best_dense_simd < 1.5) {
        std::fprintf(stderr,
                     "FAIL: vector dense kernel only %.2fx over scalar "
                     "(need >= 1.5x)\n",
                     best_dense_simd);
        return 1;
      }
      std::printf("smoke: vector dense kernel %.2fx over scalar (>= 1.5x)\n",
                  best_dense_simd);
    }
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"rollup_kernel\",\n  \"reps\": %d,\n",
                 reps);
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"avx2\": %s,\n",
                 VectorFoldKernelSupported() ? "true" : "false");
    std::fprintf(f, "  \"hardware_threads\": %u,\n", hw_threads);
    if (hw_threads <= 1) {
      std::fprintf(f,
                   "  \"note\": \"single-core host: morsel-lane columns "
                   "measure oversubscription, not scaling\",\n");
    }
    std::fprintf(f, "  \"cases\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(
          f,
          "    {\"case\": \"%s\", \"path\": \"%s\", \"spans\": %d, "
          "\"tuples\": %lld, \"target_cells\": %lld, "
          "\"old_ns_per_tuple\": %.2f, \"new_ns_per_tuple\": %.2f, "
          "\"speedup\": %.2f, \"identical\": %s,\n"
          "     \"scalar_ns_per_tuple\": %.2f, \"vector_ns_per_tuple\": %.2f, "
          "\"simd_speedup\": %.2f, \"simd_identical\": %s,\n"
          "     \"morsel_ns_per_tuple\": {\"1\": %.2f, \"2\": %.2f, "
          "\"4\": %.2f, \"8\": %.2f}, \"morsel_identical\": %s}%s\n",
          r.name.c_str(), r.path.c_str(), r.num_spans,
          static_cast<long long>(r.tuples),
          static_cast<long long>(r.target_cells), r.old_ns_per_tuple,
          r.new_ns_per_tuple, r.speedup, r.identical ? "true" : "false",
          r.scalar_ns_per_tuple, r.vector_ns_per_tuple, r.simd_speedup,
          r.simd_identical ? "true" : "false", r.lane_ns_per_tuple[0],
          r.lane_ns_per_tuple[1], r.lane_ns_per_tuple[2],
          r.lane_ns_per_tuple[3], r.morsel_identical ? "true" : "false",
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace aac::bench

int main(int argc, char** argv) { return aac::bench::Main(argc, argv); }
