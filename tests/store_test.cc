// Tests for the generation-based storage engine: consistent-hash shard
// placement, the one-shard default, the refusal of flat v1 roots and their
// byte-identical upgrade by compaction, release-id exhaustion, supersession
// and tombstone lifecycles at the 1000-release scale, adoption of
// manifest-unknown files, and the bounded LRU caches
// (store loads and the answer engine's root cache) — including eviction
// churn under concurrent readers, which is why this suite runs in the TSan
// CI pass.
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query/predicate.h"
#include "serialize/artifact.h"
#include "serve/answer_engine.h"
#include "serve/store.h"
#include "serve/store_layout.h"
#include "serve/store_manifest.h"
#include "serve/wal.h"
#include "strategy/strategy.h"
#include "util/lru_cache.h"

namespace dpmm {
namespace {

using serialize::EncodeReleaseArtifact;
using serialize::EncodeStrategyArtifact;
using serialize::ReleaseArtifact;
using serialize::StrategyArtifact;
using serve::AnswerEngine;
using serve::CompactStore;
using serve::ReleaseStore;
using serve::StatStore;
using serve::StoreLayout;
using serve::StoreOptions;
using serve::StoreStat;
using serve::StrategyStore;

std::string FreshRoot() {
  std::string tmpl = ::testing::TempDir() + "/dpmm_store_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Every regular file under `dir`, keyed by its path relative to `dir`,
/// with its bytes — a whole-tree snapshot for "nothing changed" checks.
void SnapshotTree(const std::string& dir, const std::string& rel,
                  std::map<std::string, std::string>* out) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      SnapshotTree(path, rel + name + "/", out);
    } else {
      (*out)[rel + name] = ReadFileBytes(path);
    }
  }
  ::closedir(d);
}

std::map<std::string, std::string> SnapshotTree(const std::string& dir) {
  std::map<std::string, std::string> files;
  SnapshotTree(dir, "", &files);
  return files;
}

/// The release filename the store uses (store.cc IdName).
std::string IdFile(std::size_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06zu.release", id);
  return buf;
}

/// A minimal decodable strategy artifact: the identity strategy over the
/// domain, dense engine. Cheap enough to mint hundreds of them — these
/// tests exercise the storage engine, not the design layer.
std::shared_ptr<const StrategyArtifact> IdentityArtifact(
    const std::string& spec, const Domain& domain) {
  auto artifact = std::make_shared<StrategyArtifact>();
  artifact->signature = serve::CanonicalSignature(spec, domain);
  artifact->domain_sizes = domain.sizes();
  artifact->strategy =
      std::make_shared<Strategy>(IdentityStrategy(domain.NumCells()));
  artifact->rank = domain.NumCells();
  return artifact;
}

/// A minimal decodable release: x_hat[c] = fill + c, so every release in a
/// test carries distinguishable (and exactly reproducible) bytes.
ReleaseArtifact SampleRelease(const std::string& signature,
                              const Domain& domain, const std::string& dataset,
                              std::uint64_t batch_index, double fill) {
  ReleaseArtifact rel;
  rel.signature = signature;
  rel.domain_sizes = domain.sizes();
  rel.budget = {0.1, 1e-5};
  rel.dataset = dataset;
  rel.seed = 1;
  rel.batch_index = batch_index;
  rel.x_hat.resize(domain.NumCells());
  for (std::size_t c = 0; c < rel.x_hat.size(); ++c) {
    rel.x_hat[c] = fill + static_cast<double>(c);
  }
  return rel;
}

struct StatTotals {
  std::size_t strategies = 0;
  std::size_t live = 0;
  std::size_t superseded = 0;
  std::size_t tombstoned = 0;
  std::size_t unmanifested = 0;
};

StatTotals Sum(const StoreStat& stat) {
  StatTotals t;
  for (const auto& shard : stat.shards) {
    t.strategies += shard.strategies;
    t.live += shard.live;
    t.superseded += shard.superseded;
    t.tombstoned += shard.tombstoned;
    t.unmanifested += shard.unmanifested;
  }
  return t;
}

// ---- Layout: consistent-hash placement

TEST(StoreLayoutTest, RingCoversEveryShardAndPlacementIsStable) {
  const std::string root = FreshRoot();
  auto resolved = StoreLayout::Resolve(root, 4);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const StoreLayout& layout = resolved.ValueOrDie();
  EXPECT_EQ(layout.num_shards(), 4u);

  std::set<std::size_t> hit;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = serve::StoreKey("sig-" + std::to_string(i));
    const std::size_t shard = layout.ShardOf(key);
    ASSERT_LT(shard, 4u);
    // Placement is a pure function of the key.
    EXPECT_EQ(layout.ShardOf(key), shard);
    hit.insert(shard);
  }
  // 1000 keys on a 64-point ring: every shard owns a non-trivial arc.
  EXPECT_EQ(hit.size(), 4u);
}

TEST(StoreLayoutTest, GrowthRehomesOnlyAFractionOfKeys) {
  // The consistent-hashing contract: growing 4 -> 5 shards moves roughly
  // 1/5 of the keys, not all of them (naive modulo would move ~4/5).
  const StoreLayout four =
      StoreLayout::Resolve(FreshRoot(), 4).ValueOrDie();
  const StoreLayout five =
      StoreLayout::Resolve(FreshRoot(), 5).ValueOrDie();
  int moved = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = serve::StoreKey("sig-" + std::to_string(i));
    if (four.ShardOf(key) != five.ShardOf(key)) ++moved;
  }
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys / 2) << "growth re-homed " << moved << " of "
                              << kKeys << " keys — that is a rehash, not a "
                              << "consistent-hash migration";
}

// ---- One layout: the one-shard default and the flat v1 upgrade

TEST(ShardedStore, FreshStoreGetsOneShard) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  auto strategy = IdentityArtifact("fresh", domain);
  StrategyStore sstore(root);
  ASSERT_TRUE(sstore.Put(*strategy).ok());
  ReleaseStore rstore(root);
  auto id = rstore.Put(SampleRelease(strategy->signature, domain, "d", 0, 1.0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(id.ValueOrDie(), 0u);

  // The first write pins one shard; nothing lands at the flat v1 paths.
  EXPECT_EQ(ReadFileBytes(root + "/store.layout"),
            "# dpmm-store-layout 1\nshards 1\n");
  const std::string key = serve::StoreKey(strategy->signature);
  EXPECT_TRUE(FileExists(root + "/shard-0/strategies/" + key + ".strategy"));
  EXPECT_TRUE(FileExists(root + "/shard-0/releases/" + key + "/" + IdFile(0)));
  EXPECT_FALSE(FileExists(root + "/strategies"));
  EXPECT_FALSE(FileExists(root + "/releases"));

  auto stat = StatStore(root);
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  EXPECT_EQ(stat.ValueOrDie().num_shards, 1u);
  EXPECT_EQ(Sum(stat.ValueOrDie()).strategies, 1u);
  EXPECT_EQ(Sum(stat.ValueOrDie()).live, 1u);
}

/// Writes a flat v1 root directly — the retired layout has no production
/// writer left — with the current encoders: one strategy and `releases`
/// at ids 0, 1, ... under <root>/strategies and <root>/releases/<key>.
void WriteFlatV1Root(const std::string& root, const StrategyArtifact& strategy,
                     const std::vector<ReleaseArtifact>& releases) {
  const std::string key = serve::StoreKey(strategy.signature);
  ASSERT_EQ(::mkdir((root + "/strategies").c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((root + "/releases").c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((root + "/releases/" + key).c_str(), 0755), 0);
  WriteFileBytes(root + "/strategies/" + key + ".strategy",
                 EncodeStrategyArtifact(strategy));
  for (std::size_t id = 0; id < releases.size(); ++id) {
    WriteFileBytes(root + "/releases/" + key + "/" + IdFile(id),
                   EncodeReleaseArtifact(releases[id]));
  }
}

TEST(ShardedStore, FlatV1RootIsRefusedUntilCompactUpgradesIt) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  auto strategy = IdentityArtifact("flat", domain);
  const std::string sig = strategy->signature;
  const std::string key = serve::StoreKey(sig);
  std::vector<ReleaseArtifact> releases;
  for (std::uint64_t b = 0; b < 3; ++b) {
    releases.push_back(SampleRelease(sig, domain, "d", b, 10.0 * b));
  }
  WriteFlatV1Root(root, *strategy, releases);
  // Leftovers of interrupted flat-era writes are not artifacts: compaction
  // leaves them alone, so they must not keep the root refused after it.
  WriteFileBytes(root + "/strategies/" + key + ".strategy.tmp", "torn");
  WriteFileBytes(root + "/releases/" + key + "/put.1.0.claim", "torn");
  const std::map<std::string, std::string> flat_tree = SnapshotTree(root);
  ASSERT_EQ(flat_tree.size(), 6u);

  // Every store operation fails closed, naming the upgrade command. Each
  // runs on a fresh store object so none rides on another's cached status.
  auto expect_refused = [&](const Status& st, const char* op) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << op;
    EXPECT_NE(st.message().find("store compact --store " + root),
              std::string::npos)
        << op << ": " << st.ToString();
  };
  expect_refused(StrategyStore(root).Put(*strategy), "StrategyStore::Put");
  expect_refused(StrategyStore(root).Get(sig).status(), "StrategyStore::Get");
  expect_refused(StrategyStore(root).Contains(sig).status(),
                 "StrategyStore::Contains");
  expect_refused(ReleaseStore(root).Put(releases[0]).status(),
                 "ReleaseStore::Put");
  expect_refused(ReleaseStore(root).Get(sig, 0).status(), "ReleaseStore::Get");
  expect_refused(ReleaseStore(root).List(sig).status(), "ReleaseStore::List");
  expect_refused(ReleaseStore(root).LatestId(sig).status(),
                 "ReleaseStore::LatestId");
  expect_refused(ReleaseStore(root).Tombstone(sig, 0),
                 "ReleaseStore::Tombstone");
  StoreOptions four;
  four.shards = 4;
  expect_refused(ReleaseStore(root, four).Put(releases[0]).status(),
                 "ReleaseStore::Put with --shards");
  EXPECT_EQ(SnapshotTree(root), flat_tree) << "a refused operation wrote";

  // Stat reads without writing and counts what awaits the upgrade.
  auto stat = StatStore(root);
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  EXPECT_EQ(stat.ValueOrDie().num_shards, 1u);
  EXPECT_EQ(stat.ValueOrDie().flat_strategies, 1u);
  EXPECT_EQ(stat.ValueOrDie().flat_releases, 3u);
  EXPECT_EQ(SnapshotTree(root), flat_tree);

  // Compaction with default options upgrades to one shard, re-homing every
  // artifact byte-verbatim and removing the originals.
  auto report = CompactStore(root);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().shards_compacted, 1u);
  EXPECT_EQ(report.ValueOrDie().flat_migrated, 4u);  // 1 strategy + 3 releases
  EXPECT_EQ(report.ValueOrDie().files_removed, 4u);  // the 4 flat originals
  EXPECT_EQ(report.ValueOrDie().live_kept, 3u);

  const StoreLayout layout = StoreLayout::Resolve(root, 0).ValueOrDie();
  EXPECT_EQ(layout.num_shards(), 1u);
  EXPECT_EQ(ReadFileBytes(layout.StrategyPath(key)),
            flat_tree.at("strategies/" + key + ".strategy"));
  for (std::size_t id = 0; id < 3; ++id) {
    const std::string rel = "releases/" + key + "/" + IdFile(id);
    EXPECT_FALSE(FileExists(root + "/" + rel));
    EXPECT_EQ(ReadFileBytes(layout.ReleaseDir(key) + "/" + IdFile(id)),
              flat_tree.at(rel));
  }
  EXPECT_FALSE(FileExists(root + "/strategies/" + key + ".strategy"));

  // The upgraded root serves the whole history and keeps allocating past
  // it.
  StrategyStore sstore(root);
  EXPECT_TRUE(sstore.Contains(sig).ValueOrDie());
  auto got = sstore.Get(sig);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(EncodeStrategyArtifact(*got.ValueOrDie()),
            flat_tree.at("strategies/" + key + ".strategy"));
  ReleaseStore rstore(root);
  EXPECT_EQ(rstore.List(sig).ValueOrDie(), (std::vector<std::size_t>{0, 1, 2}));
  for (std::size_t id = 0; id < 3; ++id) {
    auto rel = rstore.Get(sig, id);
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    EXPECT_EQ(EncodeReleaseArtifact(*rel.ValueOrDie()),
              flat_tree.at("releases/" + key + "/" + IdFile(id)));
  }
  auto next = rstore.Put(SampleRelease(sig, domain, "d", 3, 30.0));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.ValueOrDie(), 3u);

  auto after = StatStore(root);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().flat_strategies, 0u);
  EXPECT_EQ(after.ValueOrDie().flat_releases, 0u);
  EXPECT_EQ(Sum(after.ValueOrDie()).live, 4u);
  EXPECT_EQ(Sum(after.ValueOrDie()).strategies, 1u);
}

// ---- Release-id exhaustion: ids never wrap onto a stored release

constexpr std::size_t kMaxId = std::numeric_limits<std::size_t>::max();

TEST(ShardedStore, StrayMaximalFilenameExhaustsIdsInsteadOfWrapping) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  const std::string sig = serve::CanonicalSignature("wrap", domain);
  const std::string key = serve::StoreKey(sig);
  ReleaseStore rstore(root);
  const ReleaseArtifact first = SampleRelease(sig, domain, "d", 0, 1.0);
  ASSERT_EQ(rstore.Put(first).ValueOrDie(), 0u);

  const StoreLayout layout = StoreLayout::Resolve(root, 0).ValueOrDie();
  const std::string dir = layout.ReleaseDir(key);
  // A name past the id range is not an id: 2^64 + 1 must not alias id 1.
  WriteFileBytes(dir + "/18446744073709551617.release", "stray");
  EXPECT_EQ(rstore.List(sig).ValueOrDie(), (std::vector<std::size_t>{0}));

  // The largest id is still allocated once; its successor does not exist.
  WriteFileBytes(dir + "/18446744073709551614.release", "stray");
  auto last = rstore.Put(SampleRelease(sig, domain, "second", 0, 2.0));
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.ValueOrDie(), kMaxId);
  auto wrapped = rstore.Put(SampleRelease(sig, domain, "third", 0, 3.0));
  ASSERT_FALSE(wrapped.ok()) << "allocated id " << wrapped.ValueOrDie();
  EXPECT_EQ(wrapped.status().code(), StatusCode::kDataLoss);

  ReleaseStore fresh(root);
  auto got = fresh.Get(sig, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(EncodeReleaseArtifact(*got.ValueOrDie()),
            EncodeReleaseArtifact(first));
}

TEST(ShardedStore, ManifestRecordAtTheMaximumIdExhaustsIdsInsteadOfWrapping) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  const std::string sig = serve::CanonicalSignature("wrap-manifest", domain);
  const std::string key = serve::StoreKey(sig);
  ReleaseStore rstore(root);
  const ReleaseArtifact first = SampleRelease(sig, domain, "d", 0, 1.0);
  ASSERT_EQ(rstore.Put(first).ValueOrDie(), 0u);

  // The manifest accepts any u64 id; record the largest one.
  const StoreLayout layout = StoreLayout::Resolve(root, 0).ValueOrDie();
  const std::string manifest_path = layout.ManifestPath(layout.ShardOf(key));
  auto manifest = serve::ShardManifest::Load(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  {
    auto writer = serve::WalWriter::Open(
        manifest_path, manifest.ValueOrDie().wal_valid_size());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    serve::WalWriter w = std::move(writer).ValueOrDie();
    ASSERT_TRUE(
        w.Append(serve::ShardManifest::ReleaseRecord(key, kMaxId, 0, "x#0"))
            .ok());
    ASSERT_TRUE(w.Close().ok());
  }

  auto wrapped = rstore.Put(SampleRelease(sig, domain, "third", 0, 3.0));
  ASSERT_FALSE(wrapped.ok()) << "allocated id " << wrapped.ValueOrDie();
  EXPECT_EQ(wrapped.status().code(), StatusCode::kDataLoss);
  auto got = ReleaseStore(root).Get(sig, 0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(EncodeReleaseArtifact(*got.ValueOrDie()),
            EncodeReleaseArtifact(first));
}

TEST(ShardedStore, ConflictingPinnedShardCountIsRefused) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  auto strategy = IdentityArtifact("pin", domain);
  StoreOptions four;
  four.shards = 4;
  {
    StrategyStore sstore(root, four);
    ASSERT_TRUE(sstore.Put(*strategy).ok());  // persists store.layout
  }

  StoreOptions two;
  two.shards = 2;
  StrategyStore wrong(root, two);
  auto put = wrong.Put(*strategy);
  ASSERT_FALSE(put.ok());
  EXPECT_EQ(put.code(), StatusCode::kInvalidArgument);
  auto get = wrong.Get(strategy->signature);
  ASSERT_FALSE(get.ok());
  EXPECT_EQ(get.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(StatStore(root, two).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CompactStore(root, two).status().code(),
            StatusCode::kInvalidArgument);

  // Re-stating the pinned count (or stating none) is fine.
  EXPECT_TRUE(StatStore(root, four).ok());
  EXPECT_TRUE(StatStore(root).ok());
  StrategyStore agreed(root, four);
  EXPECT_TRUE(agreed.Get(strategy->signature).ok());
}

// ---- Supersession and compaction at scale

TEST(ShardedStore, ThousandReleasesNinetyPercentSupersededCompactToLiveSet) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  StoreOptions options;
  options.shards = 4;

  constexpr std::size_t kSignatures = 4;
  constexpr std::size_t kDatasets = 25;
  constexpr std::size_t kGenerations = 10;

  std::vector<std::string> sigs;
  {
    StrategyStore sstore(root, options);
    for (std::size_t s = 0; s < kSignatures; ++s) {
      auto strategy = IdentityArtifact("w" + std::to_string(s), domain);
      ASSERT_TRUE(sstore.Put(*strategy).ok());
      sigs.push_back(strategy->signature);
    }
  }

  // 4 signatures x 25 datasets x 10 generations = 1000 releases; within a
  // (signature, dataset, batch-slot) only the last generation stays live.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> live_id;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> prev_id;
  std::map<std::pair<std::size_t, std::size_t>, double> live_fill;
  {
    ReleaseStore rstore(root, options);
    for (std::size_t s = 0; s < kSignatures; ++s) {
      for (std::size_t d = 0; d < kDatasets; ++d) {
        for (std::size_t g = 0; g < kGenerations; ++g) {
          const double fill = static_cast<double>(10000 * s + 100 * d + g);
          auto id = rstore.Put(SampleRelease(
              sigs[s], domain, "ds" + std::to_string(d), 0, fill));
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          if (g + 1 == kGenerations) {
            prev_id[{s, d}] = live_id[{s, d}];
          }
          live_id[{s, d}] = id.ValueOrDie();
          live_fill[{s, d}] = fill;
        }
      }
    }

    // The stored artifact is self-describing: the last generation records
    // which id it superseded.
    const std::size_t superseded_id = prev_id[{0, 0}];
    auto last = rstore.Get(sigs[0], live_id[{0, 0}]);
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    ASSERT_TRUE(last.ValueOrDie()->has_supersedes());
    EXPECT_EQ(last.ValueOrDie()->supersedes(), superseded_id);
  }

  auto stat = StatStore(root);
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  StatTotals before = Sum(stat.ValueOrDie());
  EXPECT_EQ(before.strategies, kSignatures);
  EXPECT_EQ(before.live, 100u);
  EXPECT_EQ(before.superseded, 900u);
  EXPECT_EQ(before.tombstoned, 0u);
  EXPECT_EQ(before.unmanifested, 0u);

  auto report = CompactStore(root);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().files_removed, 900u);
  EXPECT_EQ(report.ValueOrDie().live_kept, 100u);
  EXPECT_EQ(report.ValueOrDie().flat_migrated, 0u);
  EXPECT_EQ(report.ValueOrDie().shards_compacted, 4u);

  // Zero lost live artifacts: every slot's last generation is still served
  // with its exact payload; the superseded files are gone.
  ReleaseStore rstore(root);
  for (std::size_t s = 0; s < kSignatures; ++s) {
    EXPECT_EQ(rstore.List(sigs[s]).ValueOrDie().size(), kDatasets)
        << "signature " << s;
    for (std::size_t d = 0; d < kDatasets; ++d) {
      const double expected_fill = live_fill[{s, d}];
      auto rel = rstore.Get(sigs[s], live_id[{s, d}]);
      ASSERT_TRUE(rel.ok()) << "s=" << s << " d=" << d << " "
                            << rel.status().ToString();
      EXPECT_EQ(rel.ValueOrDie()->x_hat[0], expected_fill);
    }
  }
  EXPECT_EQ(rstore.Get(sigs[0], prev_id[{0, 0}]).status().code(),
            StatusCode::kNotFound);

  auto after = StatStore(root);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Sum(after.ValueOrDie()).live, 100u);
  EXPECT_EQ(Sum(after.ValueOrDie()).superseded, 0u);

  // Compaction is idempotent: a second pass finds nothing to do.
  auto again = CompactStore(root);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().files_removed, 0u);
  EXPECT_EQ(again.ValueOrDie().flat_migrated, 0u);
  EXPECT_EQ(again.ValueOrDie().live_kept, 100u);
}

// ---- Tombstones

TEST(ShardedStore, TombstoneLifecycle) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  auto strategy = IdentityArtifact("tomb", domain);
  const std::string sig = strategy->signature;
  StoreOptions options;
  options.shards = 2;

  StrategyStore sstore(root, options);
  ASSERT_TRUE(sstore.Put(*strategy).ok());
  ReleaseStore rstore(root, options);
  for (std::uint64_t b = 0; b < 3; ++b) {
    ASSERT_TRUE(rstore.Put(SampleRelease(sig, domain, "d", b, 5.0 * b)).ok());
  }

  ASSERT_TRUE(rstore.Tombstone(sig, 1).ok());
  EXPECT_EQ(rstore.Tombstone(sig, 99).code(), StatusCode::kNotFound);

  // The intent is recorded but the file outlives it until compaction.
  EXPECT_TRUE(rstore.Get(sig, 1).ok());
  auto stat = StatStore(root);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(Sum(stat.ValueOrDie()).tombstoned, 1u);
  EXPECT_EQ(Sum(stat.ValueOrDie()).live, 2u);

  auto report = CompactStore(root);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().files_removed, 1u);
  EXPECT_EQ(report.ValueOrDie().live_kept, 2u);

  ReleaseStore fresh(root);
  EXPECT_EQ(fresh.Get(sig, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fresh.List(sig).ValueOrDie(), (std::vector<std::size_t>{0, 2}));
  auto after = StatStore(root);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Sum(after.ValueOrDie()).tombstoned, 0u);
  // A compacted-away id cannot be re-tombstoned (and is never reused: the
  // next put continues past the highest surviving id).
  EXPECT_EQ(fresh.Tombstone(sig, 1).code(), StatusCode::kNotFound);
  auto next = fresh.Put(SampleRelease(sig, domain, "d", 9, 99.0));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.ValueOrDie(), 3u);
}

// ---- Adoption of manifest-unknown files

TEST(ShardedStore, CompactionAdoptsUnmanifestedFilesAsLive) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  auto strategy = IdentityArtifact("adopt", domain);
  const std::string sig = strategy->signature;
  const std::string key = serve::StoreKey(sig);
  StoreOptions options;
  options.shards = 2;

  StrategyStore sstore(root, options);
  ASSERT_TRUE(sstore.Put(*strategy).ok());
  ReleaseStore rstore(root, options);
  ASSERT_TRUE(rstore.Put(SampleRelease(sig, domain, "d", 0, 1.0)).ok());

  // Model a put that crashed between the artifact write and the manifest
  // append: a valid release file the manifest has never heard of.
  const StoreLayout layout = StoreLayout::Resolve(root, 0).ValueOrDie();
  const std::string orphan_bytes =
      EncodeReleaseArtifact(SampleRelease(sig, domain, "d", 7, 70.0));
  {
    std::ofstream out(layout.ReleaseDir(key) + "/" + IdFile(5),
                      std::ios::binary | std::ios::trunc);
    out.write(orphan_bytes.data(),
              static_cast<std::streamsize>(orphan_bytes.size()));
    ASSERT_TRUE(out.good());
  }

  auto stat = StatStore(root);
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(Sum(stat.ValueOrDie()).unmanifested, 1u);
  // Listing and id allocation already see the file (directory truth).
  EXPECT_EQ(rstore.List(sig).ValueOrDie(), (std::vector<std::size_t>{0, 5}));

  auto report = CompactStore(root);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().files_removed, 0u);
  EXPECT_EQ(report.ValueOrDie().live_kept, 2u);

  auto after = StatStore(root);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Sum(after.ValueOrDie()).unmanifested, 0u);
  EXPECT_EQ(Sum(after.ValueOrDie()).live, 2u);
  ReleaseStore fresh(root);
  auto got = fresh.Get(sig, 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(EncodeReleaseArtifact(*got.ValueOrDie()), orphan_bytes);
  auto next = fresh.Put(SampleRelease(sig, domain, "d", 8, 80.0));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.ValueOrDie(), 6u);
}

// ---- Bounded store caches

TEST(StoreCaches, StrategyCacheEvictsAndRereadsByteIdentically) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  StoreOptions options;
  options.strategy_cache_capacity = 2;

  std::vector<std::shared_ptr<const StrategyArtifact>> artifacts;
  std::vector<std::string> expected;
  StrategyStore store(root, options);
  for (int i = 0; i < 3; ++i) {
    artifacts.push_back(IdentityArtifact("s" + std::to_string(i), domain));
    ASSERT_TRUE(store.Put(*artifacts.back()).ok());
    expected.push_back(EncodeStrategyArtifact(*artifacts.back()));
  }
  EXPECT_LE(store.cache_size(), 2u);

  // Cycling 3 keys through a 2-entry cache evicts on every round, and every
  // re-read decodes to the exact artifact that was stored.
  const std::uint64_t before = store.cache_evictions();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      auto got = store.Get(artifacts[i]->signature);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(EncodeStrategyArtifact(*got.ValueOrDie()), expected[i]);
    }
  }
  EXPECT_GT(store.cache_evictions(), before);
  EXPECT_LE(store.cache_size(), 2u);
}

TEST(StoreCaches, ReleaseCacheEvictsAndRereadsByteIdentically) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  auto strategy = IdentityArtifact("rel-cache", domain);
  const std::string sig = strategy->signature;
  StoreOptions options;
  options.release_cache_capacity = 2;

  ReleaseStore store(root, options);
  std::vector<std::string> expected;
  for (std::uint64_t b = 0; b < 3; ++b) {
    const ReleaseArtifact rel = SampleRelease(sig, domain, "d", b, 3.0 * b);
    ASSERT_TRUE(store.Put(rel).ok());
    expected.push_back(EncodeReleaseArtifact(rel));
  }

  const std::uint64_t before = store.cache_evictions();
  for (int round = 0; round < 3; ++round) {
    for (std::size_t id = 0; id < 3; ++id) {
      auto got = store.Get(sig, id);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(EncodeReleaseArtifact(*got.ValueOrDie()), expected[id]);
    }
  }
  EXPECT_GT(store.cache_evictions(), before);
  EXPECT_LE(store.cache_size(), 2u);
}

/// Readers hammer shared stores whose caches are smaller than the working
/// set, so every round mixes cache hits, evictions and disk re-reads. Runs
/// under TSan in CI: the store mutexes must make the LRU churn race-free,
/// and eviction must never surface a wrong or torn artifact.
TEST(StoreCaches, ConcurrentReadersUnderEvictionChurn) {
  const std::string root = FreshRoot();
  const Domain domain({2, 4});
  StoreOptions options;
  options.strategy_cache_capacity = 2;
  options.release_cache_capacity = 2;

  std::vector<std::string> sigs;
  std::vector<std::string> expected_strategy;
  std::vector<std::string> expected_release;
  {
    StrategyStore seed_s(root, options);
    ReleaseStore seed_r(root, options);
    for (int i = 0; i < 3; ++i) {
      auto strategy = IdentityArtifact("c" + std::to_string(i), domain);
      ASSERT_TRUE(seed_s.Put(*strategy).ok());
      sigs.push_back(strategy->signature);
      expected_strategy.push_back(EncodeStrategyArtifact(*strategy));
      const ReleaseArtifact rel =
          SampleRelease(strategy->signature, domain, "d", 0, 7.0 * i);
      ASSERT_TRUE(seed_r.Put(rel).ok());
      expected_release.push_back(EncodeReleaseArtifact(rel));
    }
  }

  StrategyStore sstore(root, options);
  ReleaseStore rstore(root, options);
  constexpr int kReaders = 4;
  constexpr int kRounds = 12;
  std::vector<int> mismatches(kReaders, 0);
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (std::size_t i = 0; i < sigs.size(); ++i) {
            // Offset per thread so the access orders disagree.
            const std::size_t at =
                (i + static_cast<std::size_t>(t)) % sigs.size();
            auto s = sstore.Get(sigs[at]);
            if (!s.ok() || EncodeStrategyArtifact(*s.ValueOrDie()) !=
                               expected_strategy[at]) {
              ++mismatches[t];
            }
            auto r = rstore.Get(sigs[at], 0);
            if (!r.ok() || EncodeReleaseArtifact(*r.ValueOrDie()) !=
                               expected_release[at]) {
              ++mismatches[t];
            }
          }
        }
      });
    }
    for (auto& reader : readers) reader.join();
  }
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  }
  // 3 keys cycling through 2 slots from 4 threads: eviction churn happened.
  EXPECT_GT(sstore.cache_evictions(), 0u);
  EXPECT_GT(rstore.cache_evictions(), 0u);
  EXPECT_LE(sstore.cache_size(), 2u);
  EXPECT_LE(rstore.cache_size(), 2u);
}

// ---- The LRU cache itself

TEST(LruCache, EvictsLeastRecentlyUsedInExactOrder) {
  util::LruCache<int, int> cache(3);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.capacity(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch 1 so 2 becomes least-recently-used; the next insert evicts 2.
  ASSERT_NE(cache.Get(1), nullptr);
  cache.Put(4, 40);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 10);

  // Refreshing an existing key updates in place: no eviction, new value,
  // most-recently-used position.
  cache.Put(3, 33);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(*cache.Get(3), 33);

  // Order is now 3, 1, 4 (MRU first): inserting evicts 4.
  ASSERT_NE(cache.Get(1), nullptr);  // order: 1, 3, 4
  cache.Put(5, 50);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.Get(4), nullptr);
  EXPECT_NE(cache.Get(5), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 3u);
}

// ---- Answer engine root cache

TEST(AnswerEngineRootCache, EvictionRecomputesBitIdentically) {
  const Domain domain({2, 4});
  auto strategy = IdentityArtifact("roots", domain);
  auto release = std::make_shared<ReleaseArtifact>(
      SampleRelease(strategy->signature, domain, "d", 0, 1.5));

  // Zero capacity is a caller bug, reported not served.
  EXPECT_EQ(AnswerEngine::Create(strategy, release, domain, 0).status().code(),
            StatusCode::kInvalidArgument);

  auto created = AnswerEngine::Create(strategy, release, domain,
                                      /*root_cache_capacity=*/2);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  AnswerEngine engine = std::move(created).ValueOrDie();

  const char* const kTexts[] = {"A1 = 0", "A1 = 1", "A2 = 0", "A2 >= 2"};
  std::vector<query::Predicate> preds;
  for (const char* text : kTexts) {
    auto parsed = query::ParsePredicate(text, domain);
    ASSERT_TRUE(parsed.ok()) << text;
    preds.push_back(std::move(parsed).ValueOrDie());
  }

  // 4 distinct roots through a 2-entry cache: the tail evicts the head.
  std::vector<AnswerEngine::Answer> first;
  for (const auto& pred : preds) first.push_back(engine.AnswerPredicate(pred));
  EXPECT_EQ(engine.root_cache_size(), 2u);
  EXPECT_EQ(engine.root_cache_evictions(), 2u);
  EXPECT_EQ(engine.root_cache_hits(), 0u);

  // Every evicted root recomputes to the same bits — eviction can change
  // latency, never answers.
  for (std::size_t q = 0; q < preds.size(); ++q) {
    const AnswerEngine::Answer again = engine.AnswerPredicate(preds[q]);
    EXPECT_EQ(again.value, first[q].value) << kTexts[q];
    EXPECT_EQ(again.stddev, first[q].stddev) << kTexts[q];
  }
  EXPECT_GT(engine.root_cache_evictions(), 2u);

  // A back-to-back repeat is a pure hit.
  const std::uint64_t hits = engine.root_cache_hits();
  const AnswerEngine::Answer repeat = engine.AnswerPredicate(preds.back());
  EXPECT_EQ(repeat.value, first.back().value);
  EXPECT_EQ(repeat.stddev, first.back().stddev);
  EXPECT_EQ(engine.root_cache_hits(), hits + 1);
}

}  // namespace
}  // namespace dpmm
