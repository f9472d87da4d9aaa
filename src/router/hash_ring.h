// Consistent hash ring: the placement function of the atlas_router tier.
//
// Each backend contributes `vnodes` points on a 64-bit ring (FNV-1a of the
// backend id mixed with the vnode index), and a key is owned by the first
// point clockwise from the key's hash. Two properties make this the right
// partitioner for the serve feature caches:
//
//   * **Determinism.** Points are pure content hashes of the backend id —
//     no RNG, no insertion-order dependence, no process state — so every
//     router instance (and every restart) maps the same (netlist hash,
//     library hash) key to the same shard. Cache warmth survives router
//     restarts and multiple routers agree without coordination.
//   * **Minimal movement.** Removing a backend reassigns only the keys it
//     owned (to each arc's successor); adding one steals only the arcs its
//     points land in. The rest of the fleet's caches stay warm through
//     membership churn, which is the whole point of routing by hash rather
//     than round-robin.
//
// `preference(key, n)` returns the owner followed by the next distinct
// backends in ring order — the failover chain: when the owner is dead, the
// first successor is exactly where consistent hashing would re-home the
// key after removal, so a failed-over request warms the shard that will
// keep serving the key.
//
// Not internally synchronized: BackendPool guards its ring with the pool
// mutex; standalone use (tests) is single-threaded.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace atlas::router {

class HashRing {
 public:
  /// More virtual nodes = flatter load distribution at the cost of ring
  /// memory; 64 keeps max/mean below ~1.35 for small fleets.
  explicit HashRing(std::size_t vnodes_per_backend = 64);

  /// Idempotent; re-adding an existing backend is a no-op.
  void add(const std::string& backend);
  /// Returns false when the backend was not a member.
  bool remove(const std::string& backend);
  bool contains(const std::string& backend) const;

  /// Member count (backends, not virtual nodes).
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Owner of `key`; empty string on an empty ring.
  std::string lookup(std::uint64_t key) const;

  /// Up to `n` distinct backends in ring order starting at the owner of
  /// `key`: the failover preference chain. The replica set at replication
  /// factor r is preference(key, r), a *prefix* of the failover chain: the
  /// containment invariant hot-key replication leans on. Promoting a key
  /// from 1 to R replicas only adds warm shards (the owner stays first on
  /// ties), and failover from any replica lands on another replica or on
  /// the successor that would inherit the key's arc after a removal.
  std::vector<std::string> preference(std::uint64_t key, std::size_t n) const;

 private:
  std::size_t vnodes_;
  /// point -> backend id. On the (astronomically unlikely) point collision
  /// the lexicographically smaller id wins, keeping placement independent
  /// of insertion order.
  std::map<std::uint64_t, std::string> ring_;
  std::set<std::string> members_;
};

}  // namespace atlas::router
