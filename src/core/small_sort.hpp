// Stable sorting and merging of short ranges without the heap.
//
// libstdc++'s std::stable_sort and std::inplace_merge take a temporary
// buffer on every call, even for one element.  The verifier sorts and
// merges a few fresh entries per receipt round, and the sample-round
// splitter sorts every sampling round's few records, so on those paths the
// buffer was most of the allocator traffic.  Ranges past kSmallFresh still
// take the library algorithms, so any length stays O(n log n).
#ifndef VPM_CORE_SMALL_SORT_HPP
#define VPM_CORE_SMALL_SORT_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <utility>

namespace vpm::core {

/// Ranges up to this many elements sort and merge without the heap.
constexpr std::ptrdiff_t kSmallFresh = 32;

/// std::stable_sort, by insertion for a short range.
template <typename It, typename Less>
void stable_sort_fresh(It first, It last, Less less) {
  if (last - first > kSmallFresh) {
    std::stable_sort(first, last, less);
    return;
  }
  for (It i = first; i != last; ++i) {
    auto v = std::move(*i);
    It j = i;
    for (; j != first && less(v, *std::prev(j)); --j) {
      *j = std::move(*std::prev(j));
    }
    *j = std::move(v);
  }
}

/// std::inplace_merge of sorted [first, middle) and [middle, last), from
/// the back through a fixed buffer when the second range is short.
template <typename It, typename Less>
void merge_fresh(It first, It middle, It last, Less less) {
  const std::ptrdiff_t n = last - middle;
  if (first == middle || n == 0) return;
  if (n > kSmallFresh) {
    std::inplace_merge(first, middle, last, less);
    return;
  }
  std::array<typename std::iterator_traits<It>::value_type, kSmallFresh> buf;
  const auto buf_end = std::move(middle, last, buf.begin());
  auto b = buf_end;
  It a = middle;
  It out = last;
  // The larger head goes last; on a tie the fresh entry stays behind.
  while (b != buf.begin()) {
    if (a != first && less(*std::prev(b), *std::prev(a))) {
      *--out = std::move(*--a);
    } else {
      *--out = std::move(*--b);
    }
  }
}

}  // namespace vpm::core

#endif  // VPM_CORE_SMALL_SORT_HPP
