#include "util/hash.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <random>

namespace atlas::util {
namespace {

std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void round() {
    v0 += v1;
    v1 = std::rotl(v1, 13);
    v1 ^= v0;
    v0 = std::rotl(v0, 32);
    v2 += v3;
    v3 = std::rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = std::rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = std::rotl(v1, 17);
    v1 ^= v2;
    v2 = std::rotl(v2, 32);
  }

  void compress(std::uint64_t m) {
    v3 ^= m;
    round();
    v0 ^= m;
  }
};

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t siphash13(const void* data, std::size_t n, std::uint64_t k0,
                        std::uint64_t k1) {
  const auto* p = static_cast<const unsigned char*>(data);
  SipState s{k0 ^ 0x736f6d6570736575ULL, k1 ^ 0x646f72616e646f6dULL,
             k0 ^ 0x6c7967656e657261ULL, k1 ^ 0x7465646279746573ULL};
  const std::size_t whole = n & ~std::size_t{7};
  for (std::size_t i = 0; i < whole; i += 8) s.compress(load_le64(p + i));
  // Last block: the leftover bytes, little-endian, under the length's low
  // byte.
  std::uint64_t last = static_cast<std::uint64_t>(n) << 56;
  for (std::size_t i = whole; i < n; ++i) {
    last |= static_cast<std::uint64_t>(p[i]) << (8 * (i - whole));
  }
  s.compress(last);
  s.v2 ^= 0xff;
  for (int i = 0; i < 3; ++i) s.round();
  return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  return fnv1a64(bytes, sizeof(bytes), h);
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

NetlistHashMemo::NetlistHashMemo() {
  std::random_device rd;
  const auto draw = [&rd] {
    return (static_cast<std::uint64_t>(rd()) << 32) | rd();
  };
  k0_ = draw();
  k1_ = draw();
  fnv_.reserve(kCapacity);
}

std::uint64_t NetlistHashMemo::fnv1a64(std::string_view text) {
  const Key key{siphash13(text.data(), text.size(), k0_, k1_), text.size()};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = fnv_.find(key); it != fnv_.end()) return it->second;
  }
  const std::uint64_t fnv = util::fnv1a64(text);
  const std::lock_guard<std::mutex> lock(mu_);
  // A concurrent miss on the same text may have filled the entry already;
  // the ring then keeps one slot for it, not two.
  if (fnv_.try_emplace(key, fnv).second) {
    if (fnv_.size() > kCapacity) fnv_.erase(ring_[next_]);
    ring_[next_] = key;
    next_ = (next_ + 1) % kCapacity;
  }
  return fnv;
}

}  // namespace atlas::util
