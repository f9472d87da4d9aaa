#include "router/hash_ring.h"

#include "util/hash.h"

namespace atlas::router {
namespace {

/// splitmix64 finalizer: full-avalanche bit mix. FNV-1a chaining alone
/// leaves the high bits poorly mixed, and ring positions are compared as
/// full 64-bit values — without this, the ~size*vnodes points cluster and
/// arc lengths (= backend load shares) spread 3-4x instead of ~1.3x.
std::uint64_t finalize(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Ring point for (backend, vnode): content hash only, so every process
/// ever built places the same backends at the same points.
std::uint64_t ring_point(const std::string& backend, std::size_t vnode) {
  return finalize(util::hash_mix(util::fnv1a64(backend),
                                 static_cast<std::uint64_t>(vnode)));
}

}  // namespace

HashRing::HashRing(std::size_t vnodes_per_backend)
    : vnodes_(vnodes_per_backend == 0 ? 1 : vnodes_per_backend) {}

void HashRing::add(const std::string& backend) {
  if (!members_.insert(backend).second) return;
  for (std::size_t v = 0; v < vnodes_; ++v) {
    auto [it, inserted] = ring_.emplace(ring_point(backend, v), backend);
    // Point collision: the lexicographically smaller id owns the point
    // regardless of which was added first.
    if (!inserted && backend < it->second) it->second = backend;
  }
}

bool HashRing::remove(const std::string& backend) {
  if (members_.erase(backend) == 0) return false;
  // Rebuild rather than erase-by-owner: a collided point this backend won
  // must fall back to the other member, and membership churn is rare and
  // tiny (|members| * vnodes hashes) next to any request.
  ring_.clear();
  std::set<std::string> members = std::move(members_);
  members_.clear();
  for (const std::string& m : members) add(m);
  return true;
}

bool HashRing::contains(const std::string& backend) const {
  return members_.count(backend) != 0;
}

std::size_t HashRing::size() const { return members_.size(); }

std::string HashRing::lookup(std::uint64_t key) const {
  if (ring_.empty()) return std::string();
  // Keys get the same finalizer as ring points: callers pass whatever
  // 64-bit hash they have (FNV-mixed content hashes included) and still
  // sample arcs uniformly.
  auto it = ring_.lower_bound(finalize(key));
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

std::vector<std::string> HashRing::preference(std::uint64_t key,
                                              std::size_t n) const {
  std::vector<std::string> out;
  if (ring_.empty() || n == 0) return out;
  const std::size_t want = std::min(n, members_.size());
  std::set<std::string> seen;
  auto it = ring_.lower_bound(finalize(key));
  for (std::size_t steps = 0; steps < ring_.size() && out.size() < want;
       ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (seen.insert(it->second).second) out.push_back(it->second);
    ++it;
  }
  return out;
}

}  // namespace atlas::router
