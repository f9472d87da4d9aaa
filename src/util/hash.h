// Content hashing for cache keys.
//
// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms and
// processes — the serve-layer feature cache keys designs by the hash of
// their Verilog text, and the same key must resolve identically for every
// client of one daemon (and across a router, which places requests by it).
// Clients name a cached design by this value on the wire, so it cannot
// change. It is byte-serial (~200 µs on a 120 KiB netlist) and unkeyed: a
// client can compute an FNV-1a collision against another client's text
// offline.
//
// SipHash-1-3 (Aumasson & Bernstein; one compression and three finalization
// rounds, the variant CPython hashes bytes with): a keyed PRF over 8-byte
// words, ~5x faster than FNV-1a on netlist text. Under a secret per-process
// key nobody outside the process can aim a collision at it, so it may index
// tables whose keys come from the wire.
//
// NetlistHashMemo combines the two: a warm text upload is found by its
// keyed SipHash (plus length), and FNV-1a runs only the first time a text
// is seen, so the value every key is built from stays FNV-1a.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace atlas::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over a byte range, optionally continuing a previous hash.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = kFnvOffsetBasis);

inline std::uint64_t fnv1a64(std::string_view s,
                             std::uint64_t seed = kFnvOffsetBasis) {
  return fnv1a64(s.data(), s.size(), seed);
}

/// SipHash-1-3 of a byte range under the 128-bit key (k0, k1). Any
/// alignment; the result does not depend on the host's byte order.
std::uint64_t siphash13(const void* data, std::size_t n, std::uint64_t k0,
                        std::uint64_t k1);

/// Mix an integer into a running hash (for composite cache keys).
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v);

/// 16-digit lowercase hex rendering (stable textual cache-key form).
std::string hash_hex(std::uint64_t h);

/// Memoized util::fnv1a64 for texts that are hashed again and again (warm
/// netlist uploads). Entries are found by the text's length and its
/// SipHash-1-3 under a key drawn from std::random_device at construction;
/// they hold no text. At most kCapacity entries are kept, the oldest
/// dropped first. Thread-safe; the hashing runs outside the lock.
class NetlistHashMemo {
 public:
  static constexpr std::size_t kCapacity = 1024;

  NetlistHashMemo();
  NetlistHashMemo(const NetlistHashMemo&) = delete;
  NetlistHashMemo& operator=(const NetlistHashMemo&) = delete;

  /// Exactly util::fnv1a64(text).
  std::uint64_t fnv1a64(std::string_view text);

 private:
  struct Key {
    std::uint64_t sip = 0;
    std::uint64_t size = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.sip);
    }
  };

  std::uint64_t k0_;
  std::uint64_t k1_;
  std::mutex mu_;
  std::unordered_map<Key, std::uint64_t, KeyHash> fnv_;
  /// Insertion order: ring_[next_] is the oldest entry once the map is full.
  std::array<Key, kCapacity> ring_{};
  std::size_t next_ = 0;
};

}  // namespace atlas::util
