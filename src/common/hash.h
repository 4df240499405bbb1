// Small non-cryptographic hashing helpers (FNV-1a) used for cache keys and
// deterministic request fingerprints, plus the seeded consistent-hash ring
// that backs partitioned directory ownership (cluster.directory_mode).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace swala {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// 64-bit FNV-1a over a byte string.
std::uint64_t fnv1a64(std::string_view data);

/// Continue an FNV-1a hash (for hashing several fields into one digest).
std::uint64_t fnv1a64_continue(std::uint64_t state, std::string_view data);

/// Cheap 64-bit integer mix (splitmix64 finalizer); good avalanche.
std::uint64_t mix64(std::uint64_t x);

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) over a
/// byte string. Used by the durable cache-file format to detect torn writes
/// and silent corruption; table-driven software implementation, no SSE4.2
/// dependency.
std::uint32_t crc32c(std::string_view data);

/// Continue a CRC-32C (for checksumming several buffers as one stream).
/// `state` is the value returned by a previous call (or 0 to start).
std::uint32_t crc32c_continue(std::uint32_t state, std::string_view data);

/// Consistent-hash ring with virtual nodes and seeded placement.
///
/// Each member contributes `vnodes` points on a 64-bit ring; a key is owned
/// by the member whose point first follows the key's hash (wrapping). Point
/// positions depend only on (seed, member id, replica index), so every node
/// that builds a ring from the same seed and membership computes identical
/// ownership without coordination, regardless of insertion order. Removing
/// a member deletes only its points: keys it owned redistribute among the
/// survivors, and no key moves between two surviving members.
///
/// Members are plain uint32 ids (the cluster layer's NodeId); the ring is
/// not thread-safe — callers that mutate membership concurrently with
/// owner_of must synchronize externally.
class HashRing {
 public:
  /// Returned by owner_of on an empty ring.
  static constexpr std::uint32_t kNoOwner = ~static_cast<std::uint32_t>(0);

  explicit HashRing(std::uint64_t seed = kDefaultSeed,
                    std::size_t vnodes = kDefaultVnodes);

  /// Adds `node`'s virtual points (idempotent; bumps version() when the
  /// membership actually changes).
  void add_node(std::uint32_t node);

  /// Removes `node`'s virtual points (idempotent; bumps version() when the
  /// membership actually changes).
  void remove_node(std::uint32_t node);

  bool contains(std::uint32_t node) const;

  /// The member owning `key`, or kNoOwner when the ring is empty. With
  /// `skip` set: the owner once `skip` leaves (the next point clockwise of
  /// another member), as on a copy with `skip` removed but without the copy.
  std::uint32_t owner_of(std::string_view key,
                         std::uint32_t skip = kNoOwner) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_points() const { return points_.size(); }
  std::uint64_t seed() const { return seed_; }
  std::size_t vnodes() const { return vnodes_; }

  /// Monotonic transition counter: incremented once per effective
  /// add_node/remove_node. Two rings built from the same seed and the same
  /// membership *sequence* report the same version, so the cluster layer
  /// can compare ring states across nodes without hashing the point set.
  std::uint64_t version() const { return version_; }

  /// Current members, sorted ascending.
  const std::vector<std::uint32_t>& members() const { return nodes_; }

  static constexpr std::uint64_t kDefaultSeed = 0x52494E47ULL;  // "RING"
  static constexpr std::size_t kDefaultVnodes = 64;

 private:
  std::uint64_t point_for(std::uint32_t node, std::uint32_t replica) const;

  std::uint64_t seed_;
  std::size_t vnodes_;
  /// Sorted by (point, node); the pair ordering breaks the (vanishingly
  /// rare) point collision deterministically.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
  std::vector<std::uint32_t> nodes_;  // sorted member ids
  std::uint64_t version_ = 0;         // effective membership transitions
};

}  // namespace swala
