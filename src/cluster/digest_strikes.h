// Two-strike rule for anti-entropy directory digests. Each round a peer
// advertises a digest of the directory records it expects us to hold for
// it, and we compare it with a digest of what we actually hold. One
// mismatch proves nothing: an update may still be in flight between the
// two snapshots. A resync fires only when the SAME (peer, local) pair
// mismatches two rounds running — nothing moved on either side, so the
// drift is real (a lost kInsert/kOwnerUpdate) and will not converge alone.
#pragma once

#include <cstdint>

namespace swala::cluster {

/// Per-(receiver, sender) digest tracker. A plain value: the caller
/// supplies any locking.
class DigestStrikes {
 public:
  /// Feeds one round's comparison. Returns true exactly when this round
  /// confirms a mismatch (the caller resyncs); the tracker is then clear.
  bool observe(std::uint64_t peer_digest, std::uint64_t local_digest) {
    if (peer_digest == local_digest) {
      pending_ = false;
      return false;
    }
    if (pending_ && peer_digest_ == peer_digest &&
        local_digest_ == local_digest) {
      pending_ = false;
      return true;
    }
    pending_ = true;
    peer_digest_ = peer_digest;
    local_digest_ = local_digest;
    return false;
  }

 private:
  std::uint64_t peer_digest_ = 0;
  std::uint64_t local_digest_ = 0;
  bool pending_ = false;
};

}  // namespace swala::cluster
