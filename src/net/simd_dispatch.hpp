// Runtime SIMD dispatch for the data-plane batch kernels.
//
// The hot kernels (the 8-wide lookup3 digest, the 8-wide marker sweep)
// exist in two implementations: portable scalar code that is ALWAYS built,
// and AVX2 intrinsics compiled into dedicated translation units with
// -mavx2.  One binary serves every host: the tier is picked once at
// startup from cpuid, so CI runners, ASan/TSan jobs and non-AVX2 machines
// run the same executable down the scalar path while AVX2 hosts take the
// vector path — and the two must be byte-identical (pinned by
// tests/simd_dispatch_test.cpp, the fastpath/soa/sharded golden suites are
// the outer safety net).
//
// Selection order:
//   1. force_tier() — programmatic override, used by tests to run BOTH
//      paths in one process regardless of host;
//   2. the VPM_SIMD environment variable ("scalar", "avx2", "auto") —
//      lets any CI job or operator force the scalar path without a
//      rebuild; requesting "avx2" on a host without it falls back to
//      scalar (never executes unsupported instructions);
//   3. cpuid (kAvx2 when the CPU and OS support AVX2, else kScalar).
#ifndef VPM_NET_SIMD_DISPATCH_HPP
#define VPM_NET_SIMD_DISPATCH_HPP

namespace vpm::net::simd {

enum class Tier {
  kScalar,  ///< portable code, always available
  kAvx2,    ///< 8-wide 32-bit integer kernels (x86-64-v3)
};

/// What the hardware supports (cpuid; computed once, cached).
[[nodiscard]] Tier detected_tier() noexcept;

/// What the kernels actually use: force_tier() override, else VPM_SIMD,
/// else detected_tier().  Never exceeds detected_tier().
[[nodiscard]] Tier active_tier() noexcept;

/// Was the AVX2 translation unit compiled into this binary?  (False on
/// non-x86 targets or compilers without -mavx2; detected_tier() is then
/// kScalar regardless of cpuid.)
[[nodiscard]] bool avx2_compiled() noexcept;

/// Test hook: force the active tier for the rest of the process (clamped
/// to detected_tier(), so forcing kAvx2 on a scalar-only host is a no-op).
/// The equivalence suite uses this to run both paths in one binary.
void force_tier(Tier t) noexcept;
/// Drop the force_tier() override (back to VPM_SIMD / cpuid selection).
void clear_forced_tier() noexcept;

/// Human-readable tier name ("scalar", "avx2") for bench output.
[[nodiscard]] const char* tier_name(Tier t) noexcept;

}  // namespace vpm::net::simd

#endif  // VPM_NET_SIMD_DISPATCH_HPP
