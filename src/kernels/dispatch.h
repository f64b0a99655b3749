// Runtime backend dispatch for the batched candidate-scoring kernels.
//
// The kernels in geo_kernels.h ship a portable scalar implementation plus
// an AVX2 one (when the build and the CPU both support it). The backend is
// chosen exactly once, SimSIMD-style, via a function-pointer table: cpuid
// decides, COMX_FORCE_SCALAR=1 in the environment overrides to scalar, and
// tests can pin either backend explicitly. Both backends are contractually
// bit-identical: every kernel evaluates the same IEEE double expression
// tree per element (no FMA contraction, no reassociation) and emits
// results in the same fixed order, so which backend ran is unobservable in
// any simulation output — only in wall-clock time.

#ifndef COMX_KERNELS_DISPATCH_H_
#define COMX_KERNELS_DISPATCH_H_

#include <cstddef>
#include <cstdint>

namespace comx {
namespace kernels {

/// Available kernel backends.
enum class Backend : int8_t { kScalar = 0, kAvx2 = 1 };

/// Display name ("scalar", "avx2").
const char* BackendName(Backend backend);

/// True when the binary carries AVX2 kernels and the CPU executes them.
bool Avx2Supported();

/// The backend the dispatch table currently routes to. Resolved on first
/// use: COMX_FORCE_SCALAR (any value but "" / "0") forces scalar, else the
/// best supported backend wins.
Backend ActiveBackend();

/// Pins the dispatch table to `backend` (kAvx2 requires Avx2Supported()).
/// Test-only: the sim-level equivalence suite runs identical sweeps under
/// both backends in one process. Returns false when unsupported.
bool ForceBackendForTesting(Backend backend);

/// Re-resolves the dispatch table from the environment + cpuid, undoing
/// ForceBackendForTesting and re-reading COMX_FORCE_SCALAR.
void ResetDispatchForTesting();

namespace internal {

/// The function-pointer table one backend fills in. Signatures mirror the
/// public entry points in geo_kernels.h, which are thin trampolines.
struct KernelTable {
  void (*batch_squared_distance)(const double* xs, const double* ys,
                                 size_t n, double cx, double cy,
                                 double* d2_out);
  size_t (*filter_in_range)(const double* xs, const double* ys,
                            const double* radius2, size_t n, double cx,
                            double cy, double range2, int32_t* idx_out,
                            double* d2_out);
};

/// The active table (resolved once, atomically published).
const KernelTable& Active();

/// The table for one backend; kAvx2 returns nullptr when unsupported.
const KernelTable* TableFor(Backend backend);

/// Backend resolution given an environment value for COMX_FORCE_SCALAR
/// (nullptr = unset). Split out so the env contract is unit-testable
/// without mutating the process environment.
Backend ResolveBackend(const char* force_scalar_env);

}  // namespace internal

}  // namespace kernels
}  // namespace comx

#endif  // COMX_KERNELS_DISPATCH_H_
