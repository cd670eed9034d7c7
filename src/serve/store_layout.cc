#include "serve/store_layout.h"

#include <algorithm>

#include "serialize/artifact.h"
#include "serve/store.h"
#include "util/text.h"

namespace dpmm {
namespace serve {

namespace {

constexpr const char kLayoutHeader[] = "# dpmm-store-layout 1";

std::string LayoutPath(const std::string& root) {
  return root + "/store.layout";
}

}  // namespace

StoreLayout::StoreLayout(std::string root, std::size_t num_shards,
                         bool persisted)
    : root_(std::move(root)), num_shards_(num_shards), persisted_(persisted) {
  ring_.reserve(num_shards_ * kVirtualPoints);
  for (std::size_t shard = 0; shard < num_shards_; ++shard) {
    for (std::size_t point = 0; point < kVirtualPoints; ++point) {
      // The point's position is a hash of its name, so it never moves when
      // the shard count changes — the consistent-hashing property.
      const std::string name = "shard-" + std::to_string(shard) + "#" +
                               std::to_string(point);
      ring_.emplace_back(serialize::Fnv1a64(name), shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

Result<StoreLayout> StoreLayout::Resolve(const std::string& root,
                                         std::size_t requested_shards,
                                         FsOps* fs) {
  if (fs == nullptr) fs = SystemFsOps();
  if (requested_shards > kMaxShards) {
    return Status::InvalidArgument(
        "--shards " + std::to_string(requested_shards) + " exceeds the " +
        std::to_string(kMaxShards) + "-shard limit");
  }
  std::size_t pinned = 0;
  bool persisted = false;
  auto bytes = fs->ReadFile(LayoutPath(root));
  if (bytes.ok()) {
    // Parse "# dpmm-store-layout 1\nshards N\n" strictly: a store.layout we
    // cannot read exactly is damage, not a fresh store.
    const std::string& text = bytes.ValueOrDie();
    std::size_t shards = 0;
    bool have_shards = false;
    bool have_header = false;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      std::size_t next = text.find('\n', pos);
      if (next == std::string::npos) next = text.size();
      const std::string line = util::TrimAscii(text.substr(pos, next - pos));
      pos = next + 1;
      if (line.empty()) continue;
      if (line == kLayoutHeader) {
        have_header = true;
        continue;
      }
      if (line.rfind("shards ", 0) == 0) {
        std::size_t v = 0;
        if (!util::ParseSizeT(line.substr(7), &v) || v == 0 ||
            v > kMaxShards) {
          return Status::IoError("malformed shard count in " +
                                 LayoutPath(root));
        }
        shards = v;
        have_shards = true;
        continue;
      }
      return Status::IoError("unrecognized line in " + LayoutPath(root) +
                             ": '" + line + "'");
    }
    if (!have_header || !have_shards) {
      return Status::IoError(LayoutPath(root) +
                             " is missing its header or shard count");
    }
    pinned = shards;
    persisted = true;
  } else if (bytes.status().code() != StatusCode::kNotFound) {
    return bytes.status();
  }

  if (pinned != 0 && requested_shards != 0 && requested_shards != pinned) {
    return Status::InvalidArgument(
        "store at " + root + " is pinned to " + std::to_string(pinned) +
        " shards; opening with --shards " + std::to_string(requested_shards) +
        " would silently re-home keys (re-shard via `store compact` on a "
        "fresh root instead)");
  }
  std::size_t shards = pinned != 0 ? pinned : requested_shards;
  if (shards == 0) shards = 1;
  return StoreLayout(root, shards, persisted);
}

std::size_t StoreLayout::ShardOf(const std::string& key) const {
  const std::uint64_t h = serialize::Fnv1a64(key);
  // First ring point at or clockwise of the key's hash; wrap to the start
  // when the key hashes past the last point.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(h, static_cast<std::size_t>(0)));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::string StoreLayout::ShardDir(std::size_t shard) const {
  return root_ + "/shard-" + std::to_string(shard);
}

std::string StoreLayout::ManifestPath(std::size_t shard) const {
  return ShardDir(shard) + "/manifest.wal";
}

std::string StoreLayout::LockPath(std::size_t shard) const {
  return ShardDir(shard) + "/shard.lock";
}

std::string StoreLayout::StrategyPath(const std::string& key) const {
  return ShardDir(ShardOf(key)) + "/strategies/" + key + ".strategy";
}

std::string StoreLayout::ReleaseDir(const std::string& key) const {
  return ShardDir(ShardOf(key)) + "/releases/" + key;
}

Status StoreLayout::Persist(FsOps* fs) {
  if (persisted_) return Status::OK();
  if (fs == nullptr) fs = SystemFsOps();
  Status st = internal::EnsureDir(root_, fs);
  if (!st.ok()) return st;
  std::string bytes = std::string(kLayoutHeader) + "\n" + "shards " +
                      std::to_string(num_shards_) + "\n";
  st = internal::WriteViaRename(LayoutPath(root_), bytes, fs);
  if (!st.ok()) return st;
  persisted_ = true;
  return Status::OK();
}

}  // namespace serve
}  // namespace dpmm
