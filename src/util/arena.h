// Bump-pointer arena for per-request scratch memory.
//
// The serve hot path allocates the same shapes over and over: packed node
// feature blocks, encoder activations, GBDT feature rows, per-cycle output
// vectors. Heap-allocating each one per request costs malloc/free round
// trips and spreads hot data across the address space. An Arena instead
// carves allocations out of large recycled blocks with a bump pointer:
// allocation is a pointer increment, and `reset()` reclaims everything at
// once without running destructors or touching the system allocator.
//
// Contract: only trivially-destructible payloads (the hot path stores raw
// float/double/int arrays). `reset()` invalidates every pointer handed out
// since the last reset but keeps the blocks, so a recycled arena serves its
// second request with zero mallocs. Arena itself is single-threaded: the
// server keeps one `thread_local` arena per thread and resets it at the
// start of each use, so steady-state batch execution performs no scratch
// mallocs at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace atlas::util {

class Arena {
 public:
  /// `block_bytes` is the granularity of the underlying recycled blocks;
  /// oversized requests get a dedicated block of exactly their size.
  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw allocation, aligned to `align` (power of two). Never returns
  /// nullptr; zero-byte requests yield a valid unique pointer.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  /// Typed array of `n` trivially-destructible T, uninitialized.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Recycle: every outstanding pointer becomes invalid, all blocks are
  /// retained for reuse. O(#blocks), no system-allocator traffic.
  void reset();

  /// Scoped recycling: `mark()` snapshots the bump position, `rewind(m)`
  /// frees everything allocated after the snapshot (keeping the blocks).
  /// Lets a long batched call reuse one block-sized footprint across many
  /// internal row blocks without invalidating the caller's allocations.
  struct Marker {
    std::size_t block = 0;
    std::size_t offset = 0;
    std::size_t allocated = 0;
  };
  Marker mark() const { return Marker{current_, offset_, bytes_allocated_}; }
  void rewind(const Marker& m) {
    current_ = m.block;
    offset_ = m.offset;
    bytes_allocated_ = m.allocated;
  }

  /// Bytes handed out since the last reset().
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total capacity held across blocks (survives reset()).
  std::size_t bytes_reserved() const { return bytes_reserved_; }

  static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 20;

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t current_ = 0;   // block being bumped (blocks_.size() if none)
  std::size_t offset_ = 0;    // bump offset within blocks_[current_]
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace atlas::util
