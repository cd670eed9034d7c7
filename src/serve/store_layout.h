// Placement policy for the artifact store: which directory every artifact
// lives in.
//
//   <root>/store.layout                   (this file's spec)
//   <root>/shard-<k>/strategies/<key>.strategy
//   <root>/shard-<k>/releases/<key>/<id>.release
//   <root>/shard-<k>/manifest.wal         (serve/wal framing)
//   <root>/shard-<k>/shard.lock           (serve/file_lock)
//
// Keys are placed on shards by consistent hashing: every shard owns
// kVirtualPoints pseudo-random points on a 64-bit hash ring and a key
// belongs to the shard owning the first point at or clockwise of
// Fnv1a64(key). Growing a store from N to M shards therefore re-homes only
// the keys whose nearest point changed (~|M-N|/M of them) instead of
// rehashing everything — the property that makes resharding a bounded
// migration rather than a full rewrite. The shard count is pinned in
// <root>/store.layout on the first write; a fresh root gets 1 shard unless
// the opener asks for more, and opening with a conflicting --shards is an
// error, not a silent re-map.
#ifndef DPMM_SERVE_STORE_LAYOUT_H_
#define DPMM_SERVE_STORE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/fs_ops.h"
#include "util/status.h"

namespace dpmm {
namespace serve {

class StoreLayout {
 public:
  /// Virtual ring points per shard. More points = smoother key balance and
  /// smaller per-shard variance; 16 keeps the ring tiny while holding the
  /// max/min shard-load ratio near 1 for realistic key counts.
  static constexpr std::size_t kVirtualPoints = 16;
  /// A shard count past this is almost certainly a typo (each shard costs
  /// a directory, a manifest and a lock file).
  static constexpr std::size_t kMaxShards = 4096;

  /// Resolves the layout of the store at `root`: the store.layout file
  /// wins; otherwise `requested_shards`, or 1 when that is 0 (persisted on
  /// the first write via Persist). An explicit request conflicting with the
  /// pinned shard count is InvalidArgument. Reads go through `fs` (default:
  /// the real filesystem).
  [[nodiscard]] static Result<StoreLayout> Resolve(const std::string& root,
                                                   std::size_t requested_shards,
                                                   FsOps* fs = nullptr);

  const std::string& root() const { return root_; }
  std::size_t num_shards() const { return num_shards_; }

  /// The consistent-hash shard owning a store key.
  std::size_t ShardOf(const std::string& key) const;

  std::string ShardDir(std::size_t shard) const;
  std::string ManifestPath(std::size_t shard) const;
  std::string LockPath(std::size_t shard) const;

  /// Artifact paths in the owning shard.
  std::string StrategyPath(const std::string& key) const;
  std::string ReleaseDir(const std::string& key) const;

  /// Writes <root>/store.layout durably (WriteViaRename discipline) if the
  /// file is not known to exist yet. Stores call
  /// this on their first write so a read-only open of a missing store stays
  /// side-effect free.
  [[nodiscard]] Status Persist(FsOps* fs = nullptr);

 private:
  StoreLayout(std::string root, std::size_t num_shards, bool persisted);

  std::string root_;
  std::size_t num_shards_ = 1;
  bool persisted_ = false;
  /// Sorted ring of (point, shard) pairs.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

}  // namespace serve
}  // namespace dpmm

#endif  // DPMM_SERVE_STORE_LAYOUT_H_
