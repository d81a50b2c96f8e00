// Nominal device address-space layout for the memory-coalescing model.
// Each logical array gets a distinct high-bit base so accesses to different
// arrays never alias in the cache-line counting.
#ifndef GCGT_CORE_MEMORY_LAYOUT_H_
#define GCGT_CORE_MEMORY_LAYOUT_H_

#include <cstdint>

namespace gcgt {

inline constexpr uint64_t kBitsBase = 0x1ull << 40;     ///< CGR bit array
inline constexpr uint64_t kOffsetsBase = 0x2ull << 40;  ///< bitStart / CSR offsets
inline constexpr uint64_t kLabelBase = 0x3ull << 40;    ///< BFS labels / CC parents
inline constexpr uint64_t kQueueBase = 0x4ull << 40;    ///< frontier queues
inline constexpr uint64_t kCsrColBase = 0x5ull << 40;   ///< CSR column indices
inline constexpr uint64_t kAuxBase = 0x6ull << 40;      ///< sigma/delta/etc.
inline constexpr uint64_t kTaskBase = 0x7ull << 40;     ///< hub-split task list

}  // namespace gcgt

#endif  // GCGT_CORE_MEMORY_LAYOUT_H_
