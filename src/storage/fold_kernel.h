#ifndef AAC_STORAGE_FOLD_KERNEL_H_
#define AAC_STORAGE_FOLD_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "storage/rollup_plan.h"
#include "storage/tuple.h"
#include "util/check.h"

namespace aac {

/// Which implementation of the dense fold inner loop to run.
///
/// Both kernels perform the exact same sequence of IEEE-754 operations on
/// every target cell — the vector kernel vectorizes only the 32-byte
/// FoldState merge (one 256-bit load/blend/store per cell) and batches the
/// scalar offset computation ahead of the merges, while merges stay in
/// source-cell order — so the two are bit-identical by construction, not by
/// tolerance (DESIGN.md §13).
enum class FoldKernelKind {
  kScalar,  // portable loop, always compiled
  kVector,  // AVX2 merge kernel (x86-64 only, runtime-dispatched)
};

/// Human-readable kernel name ("scalar" / "vector") for logs and benches.
const char* FoldKernelName(FoldKernelKind kind);

/// True when the vector kernel is both compiled in and supported by the
/// CPU we are running on (AVX2). When false, requests for kVector silently
/// run the scalar kernel — forcing the vector path on unsupported hardware
/// must degrade, not SIGILL.
bool VectorFoldKernelSupported();

/// Maps a mode string to a kernel: "scalar", "vector", anything else
/// (including null) = auto. "vector" and auto both resolve to kVector only
/// when VectorFoldKernelSupported().
FoldKernelKind ResolveFoldKernel(const char* mode);

/// The process-wide default, resolved once from the AAC_FOLD_KERNEL
/// environment variable (tools/check.sh kernel-simd forces "scalar" or
/// "vector" through it) and the CPU check.
FoldKernelKind DefaultFoldKernel();

/// Folds `n` cells into the arena's dense buffers, which EnsureDense must
/// already have sized to `plan.cells`. The touched list records each target
/// offset on first touch, so FoldArena::ResetDense wipes exactly those.
/// `at_source_level` selects SourceOffsetOf (cells at the plan's `from`
/// level) vs TargetOffsetOf (re-folding accumulator cells already at the
/// target level). Merge order is the cell order for every kernel — the
/// bit-identity contract.
void FoldCellsDense(const RollupPlan& plan, const Cell* cells, size_t n,
                    bool at_source_level, FoldKernelKind kind,
                    FoldArena& arena);

/// Emits target-level coordinates for a non-decreasing sequence of dense
/// offsets without the per-dimension div/mod of RollupPlan::ValuesOf:
/// offsets are mixed-radix numbers over the chunk widths, so stepping from
/// one touched offset to the next is a digit increment with carries. The
/// emit loop visits touched offsets in sorted order, and consecutive
/// touched offsets are typically adjacent (delta 1..width of the innermost
/// dimension), so the common step is one add and no divides; larger jumps
/// fall back to the div/mod seed.
class DenseEmitWalker {
 public:
  explicit DenseEmitWalker(const RollupPlan& plan) : plan_(plan) {}

  /// Writes the target-level values of `offset` into `values[0..num_dims)`.
  /// Offsets must be presented in non-decreasing order.
  void ValuesAt(int64_t offset, int32_t* values) {
    const int nd = plan_.num_dims;
    const int last = nd - 1;
    const int64_t delta = offset - offset_;
    AAC_DCHECK(!primed_ || delta >= 0);
    if (!primed_ || delta > plan_.width[static_cast<size_t>(last)]) {
      // Seed (or re-seed after a long jump) with the full division chain.
      int64_t rest = offset;
      for (int d = 0; d < nd; ++d) {
        digits_[static_cast<size_t>(d)] =
            static_cast<int32_t>(rest / plan_.stride[static_cast<size_t>(d)]);
        rest %= plan_.stride[static_cast<size_t>(d)];
      }
      primed_ = true;
    } else {
      // delta <= width[last] guarantees at most one carry out of each
      // digit, so a single ripple pass restores canonical form.
      digits_[static_cast<size_t>(last)] += static_cast<int32_t>(delta);
      for (int d = last;
           d > 0 && digits_[static_cast<size_t>(d)] >=
                        plan_.width[static_cast<size_t>(d)];
           --d) {
        digits_[static_cast<size_t>(d)] -= plan_.width[static_cast<size_t>(d)];
        ++digits_[static_cast<size_t>(d - 1)];
      }
    }
    offset_ = offset;
    for (int d = 0; d < nd; ++d) {
      values[d] = plan_.range_begin[static_cast<size_t>(d)] +
                  digits_[static_cast<size_t>(d)];
    }
  }

 private:
  const RollupPlan& plan_;
  std::array<int32_t, kMaxDims> digits_{};
  int64_t offset_ = 0;
  bool primed_ = false;
};

}  // namespace aac

#endif  // AAC_STORAGE_FOLD_KERNEL_H_
