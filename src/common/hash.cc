#include "common/hash.h"

#include <algorithm>

namespace swala {

std::uint64_t fnv1a64(std::string_view data) {
  return fnv1a64_continue(kFnvOffsetBasis, data);
}

std::uint64_t fnv1a64_continue(std::uint64_t state, std::string_view data) {
  for (unsigned char c : data) {
    state ^= c;
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

struct Crc32cTable {
  std::uint32_t entries[256];

  Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& crc_table() {
  static const Crc32cTable table;
  return table;
}

}  // namespace

std::uint32_t crc32c_continue(std::uint32_t state, std::string_view data) {
  const auto& table = crc_table().entries;
  std::uint32_t crc = ~state;
  for (unsigned char c : data) {
    crc = table[(crc ^ c) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c(std::string_view data) {
  return crc32c_continue(0, data);
}

HashRing::HashRing(std::uint64_t seed, std::size_t vnodes)
    : seed_(seed), vnodes_(vnodes == 0 ? 1 : vnodes) {}

std::uint64_t HashRing::point_for(std::uint32_t node,
                                  std::uint32_t replica) const {
  // Depends only on (seed, node, replica): every ring built from the same
  // seed places a member's points identically, whatever the join order.
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(node) << 32) | replica;
  return mix64(seed_ ^ mix64(packed));
}

void HashRing::add_node(std::uint32_t node) {
  const auto pos = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (pos != nodes_.end() && *pos == node) return;
  nodes_.insert(pos, node);
  points_.reserve(points_.size() + vnodes_);
  for (std::uint32_t r = 0; r < vnodes_; ++r) {
    points_.emplace_back(point_for(node, r), node);
  }
  std::sort(points_.begin(), points_.end());
  ++version_;
}

void HashRing::remove_node(std::uint32_t node) {
  const auto pos = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  if (pos == nodes_.end() || *pos != node) return;
  nodes_.erase(pos);
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [node](const auto& p) {
                                 return p.second == node;
                               }),
                points_.end());
  ++version_;
}

bool HashRing::contains(std::uint32_t node) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

std::uint32_t HashRing::owner_of(std::string_view key,
                                 std::uint32_t skip) const {
  const std::uint64_t h = mix64(fnv1a64(key));
  // First point strictly after the key's hash, wrapping to the start.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), h,
      [](std::uint64_t value, const auto& p) { return value < p.first; });
  for (std::size_t n = points_.size(); n > 0; --n, ++it) {
    if (it == points_.end()) it = points_.begin();
    if (it->second != skip) return it->second;
  }
  return kNoOwner;
}

}  // namespace swala
