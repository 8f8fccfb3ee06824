// Rollup-kernel microbenchmark: Aggregator::AggregateSpans (plan cache +
// fold arena) over dense multi-level rollups (uniform and non-uniform
// hierarchies), a dense scatter into a 64k-cell chunk, a sparse rollup into
// a large mostly-empty chunk, and a 1..8 source-span sweep. Every case is
// timed with the default kernel and with the fold forced onto the scalar
// and the vector kernel (the SIMD dispatch seam); the two forced folds are
// checked bit-identical, always. Results (ns/tuple and the SIMD speedup)
// are printed and written to BENCH_rollup.json (override with --out PATH;
// AAC_BENCH_ROLLUP_REPS rescales). --smoke runs tiny sizes, verifies the
// identity, additionally asserts the vector kernel beats scalar by >= 1.5x
// on the best dense case (skipped — not failed — without AVX2 or under a
// sanitizer, where instrumentation swamps the kernel), and writes no file
// unless --out is given — tools/check.sh kernel-simd and bench-smoke run
// exactly that.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "chunks/chunk_grid.h"
#include "chunks/chunk_layout.h"
#include "schema/lattice.h"
#include "schema/schema.h"
#include "storage/aggregator.h"
#include "storage/chunk_data.h"
#include "storage/fold_kernel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace aac::bench {
namespace {

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

struct CaseResult {
  std::string name;
  std::string path;  // "dense" or "sparse" (which fold path the case hits)
  int num_spans = 0;
  int64_t tuples = 0;
  int64_t target_cells = 0;
  double new_ns_per_tuple = 0.0;  // default kernel

  // SIMD dispatch seam: the same fold forced onto each kernel. The sparse
  // path ignores the setting (it is always scalar), so simd_speedup is only
  // meaningful for path == "dense".
  double scalar_ns_per_tuple = 0.0;
  double vector_ns_per_tuple = 0.0;
  double simd_speedup = 0.0;
  bool simd_identical = false;
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

  // One aggregator for the whole case, as in the engine (plan cached after
  // the first call, arena recycled).
  Aggregator agg(cube.grid.get());
  std::vector<int64_t> new_ns;
  for (int r = 0; r < reps + 1; ++r) {
    Stopwatch sw;
    agg.AggregateSpans(from, views, to, chunk);
    if (r > 0) new_ns.push_back(sw.ElapsedNanos());  // rep 0 = warmup
  }

  CaseResult res;
  res.name = name;
  res.path = agg.last_fold().used_dense ? "dense" : "sparse";
  res.num_spans = static_cast<int>(spans.size());
  res.tuples = tuples;
  res.target_cells = agg.last_fold().shape_cells;
  res.new_ns_per_tuple = MedianNanos(new_ns) / static_cast<double>(tuples);

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
  res.simd_identical = ChunkDataEquals(cube.schema->num_dims(), &scalar_out,
                                       &vector_out, 0.0);
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
  // (fanout 2: cards 4..64), base level folded 3 levels up: 9 hierarchy
  // steps per tuple, one plan-table load per dimension.
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
  // before merging, overlapping the misses — the case the SIMD seam is for.
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
  // the flat open-addressing table's path.
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
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("kernel dispatch: default=%s, avx2=%s, hw_threads=%u\n",
              FoldKernelName(DefaultFoldKernel()),
              VectorFoldKernelSupported() ? "yes" : "no", hw_threads);
  std::printf("%-28s %-7s %6s %9s %11s %12s %12s %12s %7s %5s\n", "case",
              "path", "spans", "tuples", "cells", "new_ns/tup", "scalar_ns/t",
              "vector_ns/t", "simd_x", "same");
  bool all_identical = true;
  for (const CaseResult& r : results) {
    all_identical = all_identical && r.simd_identical;
    std::printf("%-28s %-7s %6d %9lld %11lld %12.2f %12.2f %12.2f %6.2fx %5s\n",
                r.name.c_str(), r.path.c_str(), r.num_spans,
                static_cast<long long>(r.tuples),
                static_cast<long long>(r.target_cells), r.new_ns_per_tuple,
                r.scalar_ns_per_tuple, r.vector_ns_per_tuple, r.simd_speedup,
                r.simd_identical ? "yes" : "NO");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: scalar and vector kernels disagree on at least one "
                 "case\n");
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
    std::fprintf(f, "  \"cases\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(
          f,
          "    {\"case\": \"%s\", \"path\": \"%s\", \"spans\": %d, "
          "\"tuples\": %lld, \"target_cells\": %lld, "
          "\"new_ns_per_tuple\": %.2f,\n"
          "     \"scalar_ns_per_tuple\": %.2f, \"vector_ns_per_tuple\": %.2f, "
          "\"simd_speedup\": %.2f, \"simd_identical\": %s}%s\n",
          r.name.c_str(), r.path.c_str(), r.num_spans,
          static_cast<long long>(r.tuples),
          static_cast<long long>(r.target_cells), r.new_ns_per_tuple,
          r.scalar_ns_per_tuple, r.vector_ns_per_tuple, r.simd_speedup,
          r.simd_identical ? "true" : "false",
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
