// Relaxed-atomic accessors for host memory that simulated CPUs on *other host
// threads* may touch concurrently (the SMP kernel, docs/CONCURRENCY.md).
//
// Guest bytes in the shared SFS region are reachable from every core, and guest
// programs are entitled to race on them (the race detector exists to tell them
// off). Host-level, though, a racing plain memcpy is undefined behavior and a
// TSan report. These helpers copy byte ranges with relaxed atomic element
// accesses, so a guest-level race stays a guest-level race: each element read
// or write is individually atomic, the value torn at most at element
// granularity — the same guarantee a real shared-memory multiprocessor gives a
// misbehaving program. On x86 a relaxed atomic load/store compiles to the same
// mov as the plain access, so the hot paths pay nothing.
//
// Word-sized variants exist for the CPU's aligned 4-byte accesses; the range
// copies align on the shared side, move whole words (the private side is read
// or written with plain, possibly unaligned, copies), and fall back to bytes at
// the edges.
#ifndef SRC_BASE_ATOMIC_MEM_H_
#define SRC_BASE_ATOMIC_MEM_H_

#include <cstddef>
#include <cstdint>

namespace hemlock {

// |p| must be 4-byte aligned (the CPU checks guest alignment before resolving).
inline uint32_t RelaxedLoad32(const uint8_t* p) {
  return __atomic_load_n(reinterpret_cast<const uint32_t*>(p), __ATOMIC_RELAXED);
}

inline void RelaxedStore32(uint8_t* p, uint32_t value) {
  __atomic_store_n(reinterpret_cast<uint32_t*>(p), value, __ATOMIC_RELAXED);
}

inline uint8_t RelaxedLoad8(const uint8_t* p) {
  return __atomic_load_n(p, __ATOMIC_RELAXED);
}

inline void RelaxedStore8(uint8_t* p, uint8_t value) {
  __atomic_store_n(p, value, __ATOMIC_RELAXED);
}

// Copies |n| bytes from private |src| into shared |shared_dst|.
inline void RelaxedCopyTo(uint8_t* shared_dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i < n && (reinterpret_cast<uintptr_t>(shared_dst + i) & 3u) != 0; ++i) {
    RelaxedStore8(shared_dst + i, src[i]);
  }
  for (; i + 4 <= n; i += 4) {
    uint32_t word;
    __builtin_memcpy(&word, src + i, 4);
    RelaxedStore32(shared_dst + i, word);
  }
  for (; i < n; ++i) {
    RelaxedStore8(shared_dst + i, src[i]);
  }
}

// Copies |n| bytes from shared |shared_src| into private |dst|.
inline void RelaxedCopyFrom(uint8_t* dst, const uint8_t* shared_src, size_t n) {
  size_t i = 0;
  for (; i < n && (reinterpret_cast<uintptr_t>(shared_src + i) & 3u) != 0; ++i) {
    dst[i] = RelaxedLoad8(shared_src + i);
  }
  for (; i + 4 <= n; i += 4) {
    uint32_t word = RelaxedLoad32(shared_src + i);
    __builtin_memcpy(dst + i, &word, 4);
  }
  for (; i < n; ++i) {
    dst[i] = RelaxedLoad8(shared_src + i);
  }
}

inline void RelaxedFill(uint8_t* shared_dst, uint8_t value, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    RelaxedStore8(shared_dst + i, value);
  }
}

}  // namespace hemlock

#endif  // SRC_BASE_ATOMIC_MEM_H_
