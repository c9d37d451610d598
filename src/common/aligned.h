// 64-byte-aligned vector storage for SIMD-scanned buffers.
//
// Column payloads, selection vectors, and batch outputs are read by
// the vector kernels in exec/simd.h; starting every such allocation on
// a cache-line boundary means a full-width load at a span head never
// straddles lines (block offsets still start mid-buffer — the kernels
// use unaligned loads and only the base allocation is guaranteed).
#ifndef MOSAIC_COMMON_ALIGNED_H_
#define MOSAIC_COMMON_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace mosaic {

/// Cache-line alignment for all SIMD-visible buffers; also at least
/// the widest vector register the kernels use (64 >= 32-byte AVX2).
inline constexpr size_t kSimdAlignment = 64;

template <typename T, size_t Alignment = kSimdAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T), "alignment below the type's own");

  AlignedAllocator() = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): converting rebind
  // copy, required implicit by the allocator protocol.
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  // Aligned by hand inside a plain allocation, with the base pointer
  // stored just below the block. Aligned operator new goes through
  // glibc's memalign, which carves every aligned block out of a fresh
  // chunk and frees the split-off ends; those fragments get reused by
  // long-lived small objects (cached query results) and pin the freed
  // per-query buffers between them, so a steady query mix kept growing
  // the heap (a 21k-row GROUP BY loop: ~10 MB of free-but-held arena
  // vs under 1 MB this way).
  T* allocate(size_t n) {
    if (n == 0) return nullptr;
    if (n > (SIZE_MAX - kSlack) / sizeof(T)) throw std::bad_array_new_length();
    char* base = static_cast<char*>(::operator new(n * sizeof(T) + kSlack));
    const uintptr_t block =
        (reinterpret_cast<uintptr_t>(base) + sizeof(void*) + Alignment - 1) &
        ~uintptr_t{Alignment - 1};
    reinterpret_cast<void**>(block)[-1] = base;
    return reinterpret_cast<T*>(block);
  }

  void deallocate(T* p, size_t) {
    if (p != nullptr) ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }

 private:
  /// Room for the stored base pointer plus the worst-case shift up to
  /// the next Alignment boundary.
  static constexpr size_t kSlack = Alignment + sizeof(void*);
};

/// std::vector whose data() is 64-byte aligned. Element access and
/// iteration are identical to std::vector; only the allocator differs,
/// so converting a call site is a type change, not a behavior change.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace mosaic

#endif  // MOSAIC_COMMON_ALIGNED_H_
