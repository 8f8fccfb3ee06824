#include "storage/fold_kernel.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define AAC_FOLD_KERNEL_HAVE_AVX2 1
#else
#define AAC_FOLD_KERNEL_HAVE_AVX2 0
#endif

namespace aac {

namespace {

inline int64_t OffsetOf(const RollupPlan& plan, const Cell& c,
                        bool at_source_level) {
  return at_source_level ? plan.SourceOffsetOf(c.values.data())
                         : plan.TargetOffsetOf(c.values.data());
}

void FoldCellsScalar(const RollupPlan& plan, const Cell* cells, size_t n,
                     bool at_source_level, FoldArena& arena) {
  FoldState* states = arena.dense_states();
  uint8_t* occupied = arena.dense_occupied();
  std::vector<int64_t>& touched = arena.touched();
  for (size_t i = 0; i < n; ++i) {
    const int64_t off = OffsetOf(plan, cells[i], at_source_level);
    AAC_DCHECK(off >= 0 && off < plan.cells);
    if (!occupied[off]) {
      occupied[off] = 1;
      touched.push_back(off);
    }
    states[off].Merge(cells[i]);
  }
}

#if AAC_FOLD_KERNEL_HAVE_AVX2

// The vector kernel leans on the exact memory layout of Cell and FoldState:
// a Cell is 16 int32 lanes (values at lane 0..7, aggregates as two doubles +
// an int64 + two doubles from byte 32), and the four aggregate fields of
// both structs are one contiguous 256-bit block.
static_assert(sizeof(Cell) == 64, "merge loads assume 64-byte cells");
static_assert(offsetof(Cell, measure) == 32 && offsetof(Cell, count) == 40 &&
                  offsetof(Cell, min) == 48 && offsetof(Cell, max) == 56,
              "aggregate block must be contiguous at byte 32");
static_assert(sizeof(FoldState) == 32 && offsetof(FoldState, sum) == 0 &&
                  offsetof(FoldState, count) == 8 &&
                  offsetof(FoldState, min) == 16 &&
                  offsetof(FoldState, max) == 24,
              "FoldState must be one contiguous 256-bit block");

// Merges one cell's aggregate block into one FoldState with a single
// 256-bit load/blend/store. Lane semantics replicate the scalar Merge
// exactly: sum lane is state + cell (same operand order), count lane is a
// 64-bit integer add, min/max lanes use (cell, state) operand order so
// vminpd/vmaxpd's "a < b ? a : b" equals the scalar `c.min < min` branch —
// including NaN propagation and signed-zero behavior.
__attribute__((target("avx2"))) inline void MergeStateAvx2(FoldState* s,
                                                           const Cell& c) {
  const __m256d state = _mm256_loadu_pd(reinterpret_cast<const double*>(s));
  const __m256d cell = _mm256_loadu_pd(&c.measure);
  const __m256d sum = _mm256_add_pd(state, cell);
  const __m256d cnt = _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_castpd_si256(state), _mm256_castpd_si256(cell)));
  const __m256d mn = _mm256_min_pd(cell, state);
  const __m256d mx = _mm256_max_pd(cell, state);
  __m256d out = _mm256_blend_pd(sum, cnt, 0x2);
  out = _mm256_blend_pd(out, mn, 0x4);
  out = _mm256_blend_pd(out, mx, 0x8);
  _mm256_storeu_pd(reinterpret_cast<double*>(s), out);
}

// The offset computation stays SCALAR on purpose. An earlier revision of
// this kernel gathered values[d] of 8 cells with vpgatherdd and batched the
// table lookups the same way; measured against plain scalar loads (which
// have full instruction-level parallelism across cells — no loop-carried
// dependency) the gather version was a wash on current Intel cores and a
// regression on AMD. What does pay is (a) specializing the per-cell offset
// loop on num_dims so it unrolls to straight-line code, (b) splitting the
// fold into a checked phase and a post-saturation phase, and (c) the
// branchless 256-bit merge below. The per-cell range DCHECKs of
// SourceOffsetOf are skipped here; the same invariant was proven for every
// table entry when the plan was built.
//
// Two-phase structure: `touched` records each target offset exactly once,
// so touched.size() == plan.cells means every state is already occupied.
// From that point on the occupied test and the touched push are dead code
// and are dropped. No phase tests bounds: every plan-table offset is a
// valid offset < plan.cells, so nothing can land outside the chunk. Merges
// run cell by cell in source order in every phase, so the fold stays
// bit-identical to the scalar kernel.
template <int ND, bool kAtSource>
__attribute__((target("avx2"))) void FoldCellsAvx2Impl(
    const RollupPlan& plan, const Cell* cells, size_t n, FoldArena& arena) {
  const int32_t* table[ND];
  int32_t begin[ND];
  int32_t stride[ND];
  for (int d = 0; d < ND; ++d) {
    if constexpr (kAtSource) {
      table[d] = plan.table[static_cast<size_t>(d)];
      begin[d] = plan.src_begin[static_cast<size_t>(d)];
      stride[d] = 0;
    } else {
      table[d] = nullptr;
      begin[d] = plan.range_begin[static_cast<size_t>(d)];
      stride[d] = static_cast<int32_t>(plan.stride[static_cast<size_t>(d)]);
    }
  }
  const auto offset_of = [&](const Cell& c) -> int64_t {
    int64_t off = 0;
    for (int d = 0; d < ND; ++d) {
      const int32_t rel = c.values[static_cast<size_t>(d)] - begin[d];
      if constexpr (kAtSource) {
        off += table[d][rel];
      } else {
        off += static_cast<int64_t>(rel) * stride[d];
      }
    }
    return off;
  };

  FoldState* states = arena.dense_states();
  uint8_t* occupied = arena.dense_occupied();
  std::vector<int64_t>& touched = arena.touched();

  // Phase 1: occupancy checks while untouched target cells remain.
  const size_t cells_in_chunk = static_cast<size_t>(plan.cells);
  size_t i = 0;
  for (; i < n && touched.size() < cells_in_chunk; ++i) {
    const int64_t off = offset_of(cells[i]);
    AAC_DCHECK(off >= 0 && off < plan.cells);
    if (!occupied[off]) {
      occupied[off] = 1;
      touched.push_back(off);
    }
    MergeStateAvx2(&states[off], cells[i]);
  }

  // Phase 2: the chunk is saturated. Offsets for 8 cells are computed ahead
  // of their merges so the state loads of a whole batch issue early.
  int32_t offs[8];
  for (; i + 8 <= n; i += 8) {
    for (int k = 0; k < 8; ++k) {
      offs[k] = static_cast<int32_t>(offset_of(cells[i + k]));
    }
    for (int k = 0; k < 8; ++k) {
      MergeStateAvx2(&states[offs[k]], cells[i + k]);
    }
  }
  for (; i < n; ++i) {
    MergeStateAvx2(&states[offset_of(cells[i])], cells[i]);
  }
}

template <int ND>
__attribute__((target("avx2"))) void FoldCellsAvx2Dims(
    const RollupPlan& plan, const Cell* cells, size_t n, bool at_source_level,
    FoldArena& arena) {
  if (at_source_level) {
    FoldCellsAvx2Impl<ND, true>(plan, cells, n, arena);
  } else {
    FoldCellsAvx2Impl<ND, false>(plan, cells, n, arena);
  }
}

__attribute__((target("avx2"))) void FoldCellsAvx2(const RollupPlan& plan,
                                                   const Cell* cells, size_t n,
                                                   bool at_source,
                                                   FoldArena& arena) {
  // A Cell carries at most 8 coordinate lanes, so every dimensionality has
  // a straight-line specialization.
  switch (plan.num_dims) {
    case 1: FoldCellsAvx2Dims<1>(plan, cells, n, at_source, arena); return;
    case 2: FoldCellsAvx2Dims<2>(plan, cells, n, at_source, arena); return;
    case 3: FoldCellsAvx2Dims<3>(plan, cells, n, at_source, arena); return;
    case 4: FoldCellsAvx2Dims<4>(plan, cells, n, at_source, arena); return;
    case 5: FoldCellsAvx2Dims<5>(plan, cells, n, at_source, arena); return;
    case 6: FoldCellsAvx2Dims<6>(plan, cells, n, at_source, arena); return;
    case 7: FoldCellsAvx2Dims<7>(plan, cells, n, at_source, arena); return;
    case 8: FoldCellsAvx2Dims<8>(plan, cells, n, at_source, arena); return;
    default: FoldCellsScalar(plan, cells, n, at_source, arena); return;
  }
}

#endif  // AAC_FOLD_KERNEL_HAVE_AVX2

}  // namespace

const char* FoldKernelName(FoldKernelKind kind) {
  return kind == FoldKernelKind::kVector ? "vector" : "scalar";
}

bool VectorFoldKernelSupported() {
#if AAC_FOLD_KERNEL_HAVE_AVX2
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

FoldKernelKind ResolveFoldKernel(const char* mode) {
  if (mode != nullptr && std::strcmp(mode, "scalar") == 0) {
    return FoldKernelKind::kScalar;
  }
  // "vector" and auto both require hardware support; forcing the vector
  // kernel on a machine without AVX2 degrades to scalar instead of SIGILL.
  return VectorFoldKernelSupported() ? FoldKernelKind::kVector
                                     : FoldKernelKind::kScalar;
}

FoldKernelKind DefaultFoldKernel() {
  static const FoldKernelKind kind =
      ResolveFoldKernel(std::getenv("AAC_FOLD_KERNEL"));
  return kind;
}

void FoldCellsDense(const RollupPlan& plan, const Cell* cells, size_t n,
                    bool at_source_level, FoldKernelKind kind,
                    FoldArena& arena) {
  AAC_DCHECK(arena.dense_capacity() >= plan.cells);
#if AAC_FOLD_KERNEL_HAVE_AVX2
  if (kind == FoldKernelKind::kVector && VectorFoldKernelSupported()) {
    FoldCellsAvx2(plan, cells, n, at_source_level, arena);
    return;
  }
#else
  (void)kind;
#endif
  FoldCellsScalar(plan, cells, n, at_source_level, arena);
}

}  // namespace aac
