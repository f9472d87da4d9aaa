#include "util/arena.h"

#include <cstdint>

namespace atlas::util {

Arena::Arena(std::size_t block_bytes)
    : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (align == 0) align = 1;
  if (bytes == 0) bytes = 1;
  // Try to bump within the current block, then scan forward through retained
  // blocks (a recycled arena starts at block 0 with full capacity).
  while (current_ < blocks_.size()) {
    Block& b = blocks_[current_];
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(b.data.get());
    const std::uintptr_t raw = base + offset_;
    const std::uintptr_t aligned = (raw + (align - 1)) & ~std::uintptr_t(align - 1);
    const std::size_t start = static_cast<std::size_t>(aligned - base);
    if (start + bytes <= b.size) {
      offset_ = start + bytes;
      bytes_allocated_ += bytes;
      return reinterpret_cast<void*>(aligned);
    }
    ++current_;
    offset_ = 0;
  }
  // No retained block fits: grow. Oversized requests get a dedicated block
  // so one huge batch doesn't force every future block to that size.
  const std::size_t want = bytes + align;
  const std::size_t size = want > block_bytes_ ? want : block_bytes_;
  Block b;
  // Uninitialized (alloc_array promises no more), so pages stay unbacked
  // until something is written to them.
  b.data = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  b.size = size;
  bytes_reserved_ += size;
  blocks_.push_back(std::move(b));
  current_ = blocks_.size() - 1;
  offset_ = 0;
  Block& nb = blocks_[current_];
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(nb.data.get());
  const std::uintptr_t aligned = (base + (align - 1)) & ~std::uintptr_t(align - 1);
  offset_ = static_cast<std::size_t>(aligned - base) + bytes;
  bytes_allocated_ += bytes;
  return reinterpret_cast<void*>(aligned);
}

void Arena::reset() {
  current_ = 0;
  offset_ = 0;
  bytes_allocated_ = 0;
}

}  // namespace atlas::util
