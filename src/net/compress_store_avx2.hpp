// Left-packing ("compress store") of selected 32-bit lanes under AVX2.
//
// AVX2 has no vpcompressd (that is AVX-512), so survivor selection packs
// lanes through a 256-entry permutation table indexed by the 8-bit
// selection mask: entry m lists the set-bit lane numbers of m in ascending
// order, so one vpermd moves every selected lane to the register front and
// a single unaligned store writes them.  The store always writes eight
// lanes; callers guarantee the destination has room for a full group's
// worth of slack (see the kernel contract in sample_batch.hpp for why
// survivors-so-far <= group base makes that safe without over-allocating).
//
// Include only from -mavx2 translation units (empty otherwise, like
// lookup3_avx2.hpp).
#ifndef VPM_NET_COMPRESS_STORE_AVX2_HPP
#define VPM_NET_COMPRESS_STORE_AVX2_HPP

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

namespace vpm::net::detail {

struct CompressTable {
  alignas(32) std::uint32_t perm[256][8];
};

consteval CompressTable make_compress_table() {
  CompressTable t{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned k = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if ((m >> lane) & 1u) t.perm[m][k++] = lane;
    }
    // Unused tail lanes replicate lane 0 — they are stored into the slack
    // region and overwritten by the next group (or sit past the returned
    // count, which the contract leaves unspecified).
  }
  return t;
}

inline constexpr CompressTable kCompressTable = make_compress_table();

/// Store the lanes of `v` selected by `mask` (bit i -> lane i) to `out`,
/// left-packed in ascending lane order.  Writes eight lanes regardless;
/// returns the number of selected lanes.
inline unsigned compress_store_u32(std::uint32_t* out, __m256i v,
                                   unsigned mask) noexcept {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompressTable.perm[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(v, perm));
  return static_cast<unsigned>(__builtin_popcount(mask));
}

/// Exact-width variant for a kernel's final partial group: same left-pack,
/// but a vpmaskmovd store that writes only the selected-lane count, so the
/// destination needs no slack past `out + popcount(mask)` (the out[n]
/// poison-sentinel contract holds even when the group straddles the end).
inline unsigned compress_maskstore_u32(std::uint32_t* out, __m256i v,
                                       unsigned mask) noexcept {
  const __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompressTable.perm[mask]));
  const int k = __builtin_popcount(mask);
  const __m256i keep = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(k), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  _mm256_maskstore_epi32(reinterpret_cast<int*>(out), keep,
                         _mm256_permutevar8x32_epi32(v, perm));
  return static_cast<unsigned>(k);
}

}  // namespace vpm::net::detail

#endif  // defined(__AVX2__)

#endif  // VPM_NET_COMPRESS_STORE_AVX2_HPP
