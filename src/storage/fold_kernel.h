#ifndef AAC_STORAGE_FOLD_KERNEL_H_
#define AAC_STORAGE_FOLD_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "storage/rollup_plan.h"
#include "storage/tuple.h"

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

/// The kernel a new Aggregator runs: kVector exactly when
/// VectorFoldKernelSupported(), else kScalar.
FoldKernelKind DefaultFoldKernel();

/// Folds `n` cells at the plan's `from` level into the arena's dense
/// buffers, which EnsureDense must already have sized to `plan.cells`. The
/// touched list records each target offset on first touch, so
/// FoldArena::ResetDense wipes exactly those. Merge order is the cell order
/// for every kernel — the bit-identity contract.
void FoldCellsDense(const RollupPlan& plan, const Cell* cells, size_t n,
                    FoldKernelKind kind, FoldArena& arena);

}  // namespace aac

#endif  // AAC_STORAGE_FOLD_KERNEL_H_
