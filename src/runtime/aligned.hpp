// Cache-line-aligned array storage for simulated shared memory.
//
// The coherence model maps host addresses to lines by `addr / line_bytes`
// (src/arch/coherence.hpp); home tiles are assigned by dense first-touch
// order, but WHICH words share a line is still a property of the host
// allocation base modulo the line size. Structures whose hot words carry
// `alignas(rt::kCacheLine)` are immune; bulk node arenas from plain
// `new T[n]` are not — a 16-byte-aligned arena base shifts the node/line
// packing with ASLR and with allocator state, which made queue/stack
// timings drift across processes and even between two runs in one process
// (tests/test_check_explore.cpp, RecordHistory). Every arena that backs
// simulated shared memory allocates through this wrapper so line packing
// is a property of the data structure, not of the host heap.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

#include "runtime/context.hpp"

namespace hmps::rt {

/// Selects AlignedArray's constructor that builds no element.
struct Unbuilt {};
inline constexpr Unbuilt kUnbuilt{};

/// Fixed-size array whose base is aligned to the simulated cache-line size
/// and whose storage is a whole number of lines, so no other allocation
/// shares its last line. Non-copyable. Either every element is
/// value-initialized up front (and destroyed in reverse order), or, with
/// kUnbuilt, none is: the owner builds each element with build(i) before
/// its first use and pays only for the elements a run touches.
template <class T>
class AlignedArray {
 public:
  explicit AlignedArray(std::size_t n) : n_(n), p_(allocate(n)) {
    for (std::size_t i = 0; i < n_; ++i) new (p_ + i) T();
  }
  AlignedArray(std::size_t n, Unbuilt) : n_(0), p_(allocate(n)) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "unbuilt elements are never destroyed");
  }
  ~AlignedArray() {
    for (std::size_t i = n_; i-- > 0;) p_[i].~T();
    ::operator delete(p_, std::align_val_t{kCacheLine});
  }
  AlignedArray(const AlignedArray&) = delete;
  AlignedArray& operator=(const AlignedArray&) = delete;

  /// Value-initializes element `i` of an unbuilt array.
  T& build(std::size_t i) { return *new (p_ + i) T(); }

  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }

 private:
  static T* allocate(std::size_t n) {
    const std::size_t bytes =
        (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
    return static_cast<T*>(
        ::operator new(bytes, std::align_val_t{kCacheLine}));
  }

  std::size_t n_;  ///< elements the destructor destroys
  T* p_;
};

}  // namespace hmps::rt
