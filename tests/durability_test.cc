// Crash-safety tests for the durability layer: the WAL's framing and
// recovery contract, the fault-injection filesystem double, the budget
// ledger's crash matrix (a simulated power cut at *every* filesystem-
// operation boundary of a charge, with and without a torn tail), and the
// multi-process arbitration protocol driven by real fork(2)ed writers.
//
// This binary deliberately never touches the thread pool (no ParallelFor,
// no AnswerEngine): the fork-based tests must run single-threaded so they
// are exact under TSan, whose runtime aborts a multithreaded fork.
#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serialize/artifact.h"
#include "serve/budget_ledger.h"
#include "serve/file_lock.h"
#include "serve/fs_ops.h"
#include "serve/store.h"
#include "serve/store_layout.h"
#include "serve/wal.h"
#include "strategy/strategy.h"

namespace dpmm {
namespace {

using serve::BudgetLedger;
using serve::FaultInjectionFsOps;
using serve::FileLock;
using serve::FileLockOptions;
using serve::LedgerEntry;
using serve::LedgerOptions;
using serve::ReadWal;
using serve::SystemFsOps;
using serve::TruncateWal;
using serve::WalReplay;
using serve::WalWriter;

std::string FreshRoot() {
  std::string tmpl = ::testing::TempDir() + "/dpmm_durability_XXXXXX";
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

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---- WAL framing and recovery

TEST(Wal, Crc32MatchesTheIeeeCheckValue) {
  // The standard check vector for CRC-32/IEEE (the zlib crc32).
  EXPECT_EQ(serve::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(serve::Crc32("", 0), 0u);
}

TEST(Wal, RoundTripsRecordsInOrder) {
  const std::string path = FreshRoot() + "/log.wal";
  std::uint64_t size = 0;
  {
    auto writer = WalWriter::Open(path, 0);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalWriter w = std::move(writer).ValueOrDie();
    ASSERT_TRUE(w.Append("first record").ok());
    ASSERT_TRUE(w.Append("").ok());  // empty payloads are legal
    ASSERT_TRUE(w.Append("third record, with spaces").ok());
    size = w.size();
  }
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  const WalReplay& r = replay.ValueOrDie();
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0], "first record");
  EXPECT_EQ(r.records[1], "");
  EXPECT_EQ(r.records[2], "third record, with spaces");
  EXPECT_EQ(r.valid_size, size);
  EXPECT_FALSE(r.torn_tail);

  // Reopening at the replayed size appends cleanly.
  auto reopened = WalWriter::Open(path, r.valid_size);
  ASSERT_TRUE(reopened.ok());
  WalWriter w2 = std::move(reopened).ValueOrDie();
  ASSERT_TRUE(w2.Append("fourth").ok());
  auto replay2 = ReadWal(path);
  ASSERT_TRUE(replay2.ok());
  EXPECT_EQ(replay2.ValueOrDie().records.size(), 4u);
}

TEST(Wal, MissingAndEmptyLogs) {
  const std::string root = FreshRoot();
  EXPECT_EQ(ReadWal(root + "/absent.wal").status().code(),
            StatusCode::kNotFound);
  // An empty file (crash right after create) is a valid empty log.
  WriteFileBytes(root + "/empty.wal", "");
  auto replay = ReadWal(root + "/empty.wal");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.ValueOrDie().records.empty());
  EXPECT_FALSE(replay.ValueOrDie().torn_tail);
}

TEST(Wal, TornTailEndsReplayAndTruncatesAway) {
  const std::string path = FreshRoot() + "/log.wal";
  {
    auto writer = WalWriter::Open(path, 0);
    ASSERT_TRUE(writer.ok());
    WalWriter w = std::move(writer).ValueOrDie();
    ASSERT_TRUE(w.Append("one").ok());
    ASSERT_TRUE(w.Append("two").ok());
  }
  const std::string intact = ReadFileBytes(path);
  // A crash mid-append leaves a partial frame: a length prefix promising
  // more bytes than exist.
  WriteFileBytes(path, intact + std::string("\x40\x00\x00\x00junk", 8));
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.ValueOrDie().records.size(), 2u);
  EXPECT_EQ(replay.ValueOrDie().valid_size, intact.size());
  EXPECT_TRUE(replay.ValueOrDie().torn_tail);

  // The writer refuses to append past damage...
  EXPECT_FALSE(WalWriter::Open(path, intact.size()).ok());
  // ...until the tail is truncated off.
  ASSERT_TRUE(TruncateWal(path, intact.size()).ok());
  auto reopened = WalWriter::Open(path, intact.size());
  ASSERT_TRUE(reopened.ok());
  WalWriter w = std::move(reopened).ValueOrDie();
  ASSERT_TRUE(w.Append("three").ok());
  auto healed = ReadWal(path);
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed.ValueOrDie().records.size(), 3u);
  EXPECT_EQ(healed.ValueOrDie().records[2], "three");
  EXPECT_FALSE(healed.ValueOrDie().torn_tail);
}

TEST(Wal, CorruptPayloadFailsItsCrcAndEndsTheLog) {
  const std::string path = FreshRoot() + "/log.wal";
  {
    auto writer = WalWriter::Open(path, 0);
    ASSERT_TRUE(writer.ok());
    WalWriter w = std::move(writer).ValueOrDie();
    ASSERT_TRUE(w.Append("good record").ok());
    ASSERT_TRUE(w.Append("soon corrupt").ok());
  }
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 3] ^= 0x01;  // flip one bit inside the last payload
  WriteFileBytes(path, bytes);
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.ValueOrDie().records.size(), 1u);
  EXPECT_EQ(replay.ValueOrDie().records[0], "good record");
  EXPECT_TRUE(replay.ValueOrDie().torn_tail);
}

// ---- The fault-injection double itself

TEST(FaultInjection, ShortWriteLeavesATornFrameReplayIgnores) {
  const std::string path = FreshRoot() + "/log.wal";
  FaultInjectionFsOps fault(SystemFsOps());
  auto writer = WalWriter::Open(path, 0, &fault);
  ASSERT_TRUE(writer.ok());
  WalWriter w = std::move(writer).ValueOrDie();
  ASSERT_TRUE(w.Append("durable").ok());
  const std::uint64_t durable_size = w.size();
  fault.set_short_next_write(true);
  EXPECT_FALSE(w.Append("torn away").ok());
  auto replay = ReadWal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.ValueOrDie().records.size(), 1u);
  EXPECT_EQ(replay.ValueOrDie().records[0], "durable");
  EXPECT_EQ(replay.ValueOrDie().valid_size, durable_size);
  EXPECT_TRUE(replay.ValueOrDie().torn_tail);
}

TEST(FaultInjection, FailedFsyncFailsTheAppend) {
  const std::string path = FreshRoot() + "/log.wal";
  FaultInjectionFsOps fault(SystemFsOps());
  auto writer = WalWriter::Open(path, 0, &fault);
  ASSERT_TRUE(writer.ok());
  WalWriter w = std::move(writer).ValueOrDie();
  fault.set_fail_next_fsync(true);
  Status st = w.Append("never acknowledged");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fsync"), std::string::npos);
}

TEST(FaultInjection, CrashRollsBackUnsyncedCreatesAndTails) {
  const std::string root = FreshRoot();
  FaultInjectionFsOps fault(SystemFsOps());
  // A file created and written through the seam but never FsyncDir'd: the
  // crash removes its name entirely.
  auto fd = fault.OpenForAppend(root + "/unsynced");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fault.WriteAll(fd.ValueOrDie(), "abc", 3).ok());
  ASSERT_TRUE(fault.Fsync(fd.ValueOrDie()).ok());
  ASSERT_TRUE(fault.Close(fd.ValueOrDie()).ok());
  // A pre-existing file with an unsynced tail: the tail truncates away.
  WriteFileBytes(root + "/tailed", "durable-");
  auto fd2 = fault.OpenForAppend(root + "/tailed");
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(fault.WriteAll(fd2.ValueOrDie(), "lost", 4).ok());
  ASSERT_TRUE(fault.Close(fd2.ValueOrDie()).ok());
  fault.set_crash_after(0);
  EXPECT_FALSE(fault.Remove(root + "/anything").ok());
  EXPECT_TRUE(fault.crashed());
  ASSERT_TRUE(fault.SimulateCrashEffects(/*torn_tail=*/false).ok());
  struct stat st;
  EXPECT_NE(::stat((root + "/unsynced").c_str(), &st), 0)
      << "unsynced dirent must not survive the crash";
  EXPECT_EQ(ReadFileBytes(root + "/tailed"), "durable-");
}

// ---- Crash matrix: the ledger at every syscall boundary

PrivacyParams Eps(double epsilon) { return {epsilon, 0.0}; }

/// Pre-charges `pre` times eps 0.05 with the real filesystem, then runs one
/// more charge of eps 0.05 with a fault injected after `crash_after` fs
/// operations and a simulated power cut. Returns true when the run crashed
/// (false = `crash_after` exceeded the charge's total op count and the
/// matrix is exhausted). After the cut, recovery with the real filesystem
/// must observe exactly the pre- or the post-charge state.
bool CrashMatrixTrial(std::size_t pre, std::size_t checkpoint_interval,
                      long crash_after, bool torn_tail) {
  const std::string root = FreshRoot();
  const PrivacyParams total = Eps(1.0);
  LedgerOptions setup_options;
  setup_options.checkpoint_interval = checkpoint_interval;
  {
    BudgetLedger setup(root, setup_options);
    for (std::size_t i = 0; i < pre; ++i) {
      auto charged = setup.Charge("matrix", total, Eps(0.05));
      EXPECT_TRUE(charged.ok()) << charged.status().ToString();
    }
  }

  FaultInjectionFsOps fault(SystemFsOps());
  fault.set_crash_after(crash_after);
  LedgerOptions options = setup_options;
  options.fs = &fault;
  bool acknowledged = false;
  {
    BudgetLedger victim(root, options);
    acknowledged = victim.Charge("matrix", total, Eps(0.05)).ok();
  }
  if (!fault.crashed()) {
    EXPECT_TRUE(acknowledged);
    return false;
  }
  EXPECT_TRUE(fault.SimulateCrashEffects(torn_tail).ok());

  SCOPED_TRACE("pre=" + std::to_string(pre) + " interval=" +
               std::to_string(checkpoint_interval) + " crash_after=" +
               std::to_string(crash_after) + " torn=" +
               std::to_string(torn_tail));
  BudgetLedger recovered(root, setup_options);
  auto read = recovered.Read("matrix");
  if (pre == 0 && !read.ok()) {
    // With no prior history the pre-state is "never charged".
    EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  } else {
    EXPECT_TRUE(read.ok()) << read.status().ToString();
    if (read.ok()) {
      const LedgerEntry& entry = read.ValueOrDie();
      EXPECT_TRUE(entry.charges == pre || entry.charges == pre + 1)
          << "recovered " << entry.charges << " charges";
      if (acknowledged) {
        // An acknowledged charge (possible when only the post-append
        // checkpoint crashed) must never be lost.
        EXPECT_EQ(entry.charges, pre + 1);
      }
      EXPECT_DOUBLE_EQ(entry.spent.epsilon, 0.05 * entry.charges);
    }
  }
  // The survivor must be chargeable: recovery left no wedged state.
  BudgetLedger after(root, setup_options);
  auto next = after.Charge("matrix", total, Eps(0.05));
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  return true;
}

TEST(CrashMatrix, EveryBoundaryOfAPlainCharge) {
  for (const bool torn : {false, true}) {
    for (long k = 0; k < 64; ++k) {
      if (!CrashMatrixTrial(/*pre=*/2, /*checkpoint_interval=*/64, k, torn)) {
        ASSERT_GT(k, 0) << "the charge performed no fs operations?";
        break;
      }
    }
  }
}

TEST(CrashMatrix, EveryBoundaryOfTheFirstChargeOfADataset) {
  for (const bool torn : {false, true}) {
    for (long k = 0; k < 64; ++k) {
      if (!CrashMatrixTrial(/*pre=*/0, /*checkpoint_interval=*/64, k, torn)) {
        break;
      }
    }
  }
}

TEST(CrashMatrix, EveryBoundaryOfACheckpointingCharge) {
  // checkpoint_interval 3 makes the third charge compact the WAL into the
  // snapshot: the matrix now crosses WriteViaRename (temp write, fsync,
  // rename, dir fsync) and the WAL truncation, and the acknowledged-charge
  // invariant is load-bearing (the checkpoint crash is swallowed).
  for (const bool torn : {false, true}) {
    for (long k = 0; k < 64; ++k) {
      if (!CrashMatrixTrial(/*pre=*/2, /*checkpoint_interval=*/3, k, torn)) {
        break;
      }
    }
  }
}

// ---- Idempotent charge ids

TEST(BudgetLedgerDurability, RetryingAChargeIdAppliesExactlyOnce) {
  const std::string root = FreshRoot();
  BudgetLedger ledger(root);
  const PrivacyParams total = Eps(1.0);
  ASSERT_TRUE(ledger.Charge("d", total, Eps(0.25), "run-1").ok());
  auto retry = ledger.Charge("d", total, Eps(0.25), "run-1");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.ValueOrDie().charges, 1u);
  EXPECT_DOUBLE_EQ(retry.ValueOrDie().spent.epsilon, 0.25);
}

TEST(BudgetLedgerDurability, IdempotencySurvivesCheckpointCompaction) {
  // With checkpoint_interval 1 every charge is immediately compacted out of
  // the WAL; the dedup window must persist through the snapshot's `recent`
  // list, or a post-checkpoint retry would double-charge.
  const std::string root = FreshRoot();
  LedgerOptions options;
  options.checkpoint_interval = 1;
  BudgetLedger ledger(root, options);
  const PrivacyParams total = Eps(1.0);
  ASSERT_TRUE(ledger.Charge("d", total, Eps(0.25), "run-1").ok());
  // A new instance (a new process) reads the window back from disk.
  BudgetLedger other(root, options);
  auto retry = other.Charge("d", total, Eps(0.25), "run-1");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.ValueOrDie().charges, 1u);
  EXPECT_DOUBLE_EQ(retry.ValueOrDie().spent.epsilon, 0.25);
}

// ---- File locks

TEST(FileLockTest, ExclusiveExcludesAndSharedShares) {
  // flock ownership is per open file description, so a second Acquire in
  // this same process genuinely contends.
  const std::string path = FreshRoot() + "/d.lock";
  FileLockOptions fast;
  fast.timeout_ms = 50;
  auto first = FileLock::Acquire(path, fast);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  FileLock writer_lock = std::move(first).ValueOrDie();
  EXPECT_TRUE(writer_lock.held());

  auto contender = FileLock::Acquire(path, fast);
  ASSERT_FALSE(contender.ok());
  EXPECT_EQ(contender.status().code(), StatusCode::kUnavailable);

  FileLockOptions shared = fast;
  shared.shared = true;
  auto reader = FileLock::Acquire(path, shared);
  ASSERT_FALSE(reader.ok()) << "shared must wait out an exclusive holder";

  writer_lock.Release();
  EXPECT_FALSE(writer_lock.held());
  auto reader1 = FileLock::Acquire(path, shared);
  auto reader2 = FileLock::Acquire(path, shared);
  EXPECT_TRUE(reader1.ok());
  EXPECT_TRUE(reader2.ok()) << "two shared holders must coexist";
  auto writer = FileLock::Acquire(path, fast);
  EXPECT_FALSE(writer.ok()) << "exclusive must wait out shared holders";
}

// ---- Multi-process arbitration (real fork(2)ed writers)

/// Forks a child that performs `attempts` charges of eps `step` against
/// `total` and exits with the number of *accepted* charges; any failure
/// other than a clean ResourceExhausted refusal exits 99. Charges go
/// through a small checkpoint interval so the race also crosses WAL
/// compaction. Returns the child's pid.
pid_t StartCharger(const std::string& root, const PrivacyParams& total,
                   double step, int attempts) {
  fflush(nullptr);  // no duplicated stdio buffers in the child
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  LedgerOptions options;
  options.checkpoint_interval = 4;
  BudgetLedger ledger(root, options);
  int accepted = 0;
  for (int i = 0; i < attempts; ++i) {
    auto charged = ledger.Charge("race", total, Eps(step));
    if (charged.ok()) {
      ++accepted;
    } else if (charged.status().code() != StatusCode::kResourceExhausted) {
      ::_exit(99);
    }
  }
  ::_exit(accepted);
}

/// Waits for a StartCharger child; returns its accepted-charge count.
int JoinCharger(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 99;
  EXPECT_NE(code, 99) << "charger hit a non-refusal failure";
  return code;
}

/// Races two forked writer processes, `attempts` charges of eps `step`
/// each, and cross-checks their combined acceptance count against the
/// recovered on-disk state.
void RaceTwoChargers(double total_eps, double step, int attempts,
                     int expect_accepted) {
  const std::string root = FreshRoot();
  const PrivacyParams total = Eps(total_eps);
  const pid_t a = StartCharger(root, total, step, attempts);
  ASSERT_GT(a, 0);
  const pid_t b = StartCharger(root, total, step, attempts);
  ASSERT_GT(b, 0);
  const int accepted = JoinCharger(a) + JoinCharger(b);
  EXPECT_EQ(accepted, expect_accepted);

  BudgetLedger ledger(root);
  auto read = ledger.Read("race");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const LedgerEntry& entry = read.ValueOrDie();
  EXPECT_EQ(entry.charges, static_cast<std::size_t>(accepted))
      << "an accepted charge is missing from (or duplicated in) the ledger";
  EXPECT_NEAR(entry.spent.epsilon, step * accepted, 1e-12);
  EXPECT_FALSE(entry.Overdrawn());
}

TEST(MultiProcess, RacingChargersNeverUnderCount) {
  // Two concurrent writer processes, 25 charges each, all of which fit:
  // every accepted charge must be visible in the recovered sum — a lost
  // update here is a silent privacy violation.
  RaceTwoChargers(/*total_eps=*/0.5, /*step=*/0.01, /*attempts=*/25,
                  /*expect_accepted=*/50);
}

TEST(MultiProcess, RacingChargersSplitACapAndRefuseTheRest) {
  // The budget only fits 30 of the 50 racing charges: the processes must
  // between them land exactly 30, refusing the rest cleanly — never an
  // overdraft, never a refusal while budget remained.
  RaceTwoChargers(/*total_eps=*/0.3, /*step=*/0.01, /*attempts=*/25,
                  /*expect_accepted=*/30);
}

// ---- Crash matrix: the sharded artifact store

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// The release filename the store uses (store.cc IdName).
std::string ReleaseName(std::size_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06zu.release", id);
  return buf;
}

serialize::StrategyArtifact StoreStrategy(const std::string& spec,
                                          const Domain& domain) {
  serialize::StrategyArtifact artifact;
  artifact.signature = serve::CanonicalSignature(spec, domain);
  artifact.domain_sizes = domain.sizes();
  artifact.strategy =
      std::make_shared<Strategy>(IdentityStrategy(domain.NumCells()));
  artifact.rank = domain.NumCells();
  return artifact;
}

serialize::ReleaseArtifact StoreRelease(const std::string& signature,
                                        const Domain& domain,
                                        std::uint64_t batch_index,
                                        double fill) {
  serialize::ReleaseArtifact rel;
  rel.signature = signature;
  rel.domain_sizes = domain.sizes();
  rel.budget = {0.1, 1e-5};
  rel.dataset = "d";
  rel.seed = 1;
  rel.batch_index = batch_index;
  rel.x_hat.assign(domain.NumCells(), fill);
  return rel;
}

/// A flat v1 root awaiting the upgrade, written directly with the current
/// encoders (the retired layout has no production writer): one strategy;
/// releases d#0, d#1, d#2, d#3 as ids 0-3, plus a second generation of
/// slot d#2 as id 4 — which makes id 2 provably dead at compaction's
/// adoption step. Captures the bytes compaction must preserve.
struct FlatV1Store {
  std::string root;
  std::string sig;
  std::string key;
  std::string strategy_bytes;
  std::map<std::size_t, std::string> live;  // id -> encoded release bytes
};

FlatV1Store SeedFlatV1Store() {
  FlatV1Store s;
  s.root = FreshRoot();
  const Domain domain({2, 2});
  const serialize::StrategyArtifact strategy = StoreStrategy("mig", domain);
  s.sig = strategy.signature;
  s.key = serve::StoreKey(s.sig);
  const std::string flat_dir = s.root + "/releases/" + s.key;
  EXPECT_EQ(::mkdir((s.root + "/strategies").c_str(), 0755), 0);
  EXPECT_EQ(::mkdir((s.root + "/releases").c_str(), 0755), 0);
  EXPECT_EQ(::mkdir(flat_dir.c_str(), 0755), 0);
  s.strategy_bytes = serialize::EncodeStrategyArtifact(strategy);
  WriteFileBytes(s.root + "/strategies/" + s.key + ".strategy",
                 s.strategy_bytes);
  const std::pair<std::uint64_t, double> slots[] = {
      {0, 0.0}, {1, 10.0}, {2, 20.0}, {3, 30.0}, {2, 42.0}};
  for (std::size_t id = 0; id < 5; ++id) {
    const std::string bytes = serialize::EncodeReleaseArtifact(
        StoreRelease(s.sig, domain, slots[id].first, slots[id].second));
    WriteFileBytes(flat_dir + "/" + ReleaseName(id), bytes);
    if (id != 2) s.live[id] = bytes;
  }
  return s;
}

/// Runs one compaction with a crash injected after `crash_after` fs
/// operations and a simulated power cut, then recovers with the real
/// filesystem. Returns false when `crash_after` exceeded the compaction's
/// op count (matrix exhausted). Whatever the boundary: recovery must
/// converge to the fully compacted store with every live artifact byte-
/// identical — a crash may repeat work, never lose a paid-for release.
bool CompactionCrashTrial(long crash_after, bool torn_tail) {
  const FlatV1Store s = SeedFlatV1Store();

  FaultInjectionFsOps fault(SystemFsOps());
  fault.set_crash_after(crash_after);
  serve::StoreOptions options;
  options.fs = &fault;
  auto crashed_run = serve::CompactStore(s.root, options);
  if (!fault.crashed()) {
    EXPECT_TRUE(crashed_run.ok()) << crashed_run.status().ToString();
    return false;
  }
  EXPECT_TRUE(fault.SimulateCrashEffects(torn_tail).ok());

  SCOPED_TRACE("crash_after=" + std::to_string(crash_after) + " torn=" +
               std::to_string(torn_tail));
  auto recovered = serve::CompactStore(s.root);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  if (!recovered.ok()) return true;
  EXPECT_EQ(recovered.ValueOrDie().live_kept, s.live.size());

  auto layout = serve::StoreLayout::Resolve(s.root, 0);
  EXPECT_TRUE(layout.ok());
  if (layout.ok()) {
    const serve::StoreLayout& l = layout.ValueOrDie();
    EXPECT_EQ(ReadFileBytes(l.StrategyPath(s.key)), s.strategy_bytes);
    for (const auto& [id, bytes] : s.live) {
      EXPECT_EQ(ReadFileBytes(l.ReleaseDir(s.key) + "/" + ReleaseName(id)),
                bytes)
          << "live release " << id << " lost or altered";
    }
    // The superseded generation and the flat originals are gone.
    EXPECT_FALSE(FileExists(l.ReleaseDir(s.key) + "/" + ReleaseName(2)));
    EXPECT_FALSE(FileExists(s.root + "/strategies/" + s.key + ".strategy"));
    EXPECT_FALSE(
        FileExists(s.root + "/releases/" + s.key + "/" + ReleaseName(0)));
  }

  // The recovered store serves, and only the live set.
  serve::ReleaseStore after(s.root);
  for (const auto& [id, bytes] : s.live) {
    (void)bytes;
    EXPECT_TRUE(after.Get(s.sig, id).ok()) << "id " << id;
  }
  EXPECT_EQ(after.Get(s.sig, 2).status().code(), StatusCode::kNotFound);
  return true;
}

TEST(CrashMatrix, EveryBoundaryOfAMigratingCompaction) {
  for (const bool torn : {false, true}) {
    for (long k = 0; k < 512; ++k) {
      if (!CompactionCrashTrial(k, torn)) {
        ASSERT_GT(k, 0) << "the compaction performed no fs operations?";
        break;
      }
      ASSERT_LT(k, 511) << "compaction op count exceeded the matrix bound";
    }
  }
}

/// One sharded ReleaseStore::Put with a crash at every fs boundary. The
/// prior release must always survive; the interrupted put is either fully
/// absent or — when its artifact file reached the disk before the cut —
/// adopted by the next compaction and served. Either way the store stays
/// writable.
bool ShardedPutCrashTrial(long crash_after, bool torn_tail) {
  const std::string root = FreshRoot();
  const Domain domain({2, 2});
  const serialize::StrategyArtifact strategy = StoreStrategy("put", domain);
  serve::StoreOptions sharded;
  sharded.shards = 2;
  {
    serve::StrategyStore sstore(root, sharded);
    EXPECT_TRUE(sstore.Put(strategy).ok());
    serve::ReleaseStore seed(root, sharded);
    auto id = seed.Put(StoreRelease(strategy.signature, domain, 0, 1.0));
    EXPECT_TRUE(id.ok() && id.ValueOrDie() == 0u);
  }
  auto layout = serve::StoreLayout::Resolve(root, 0);
  EXPECT_TRUE(layout.ok());
  const std::string key = serve::StoreKey(strategy.signature);
  const std::string prior_path =
      layout.ValueOrDie().ReleaseDir(key) + "/" + ReleaseName(0);
  const std::string prior_bytes = ReadFileBytes(prior_path);
  EXPECT_FALSE(prior_bytes.empty());

  FaultInjectionFsOps fault(SystemFsOps());
  fault.set_crash_after(crash_after);
  serve::StoreOptions options = sharded;
  options.fs = &fault;
  bool acknowledged = false;
  {
    serve::ReleaseStore victim(root, options);
    acknowledged =
        victim.Put(StoreRelease(strategy.signature, domain, 1, 7.0)).ok();
  }
  if (!fault.crashed()) {
    EXPECT_TRUE(acknowledged);
    return false;
  }
  EXPECT_FALSE(acknowledged) << "a put that crashed mid-flight acked";
  EXPECT_TRUE(fault.SimulateCrashEffects(torn_tail).ok());

  SCOPED_TRACE("crash_after=" + std::to_string(crash_after) + " torn=" +
               std::to_string(torn_tail));
  // Compaction is the recovery pass: it must succeed over whatever the cut
  // left (a torn manifest tail, an unmanifested artifact file, nothing).
  auto recovered = serve::CompactStore(root);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();

  serve::ReleaseStore after(root);
  auto prior = after.Get(strategy.signature, 0);
  EXPECT_TRUE(prior.ok()) << prior.status().ToString();
  if (prior.ok()) {
    EXPECT_EQ(serialize::EncodeReleaseArtifact(*prior.ValueOrDie()),
              prior_bytes);
  }
  auto interrupted = after.Get(strategy.signature, 1);
  if (interrupted.ok()) {
    EXPECT_EQ(interrupted.ValueOrDie()->x_hat[0], 7.0);
  } else {
    EXPECT_EQ(interrupted.status().code(), StatusCode::kNotFound);
  }

  // Still writable: the next put lands on a fresh id past everything seen.
  auto next = after.Put(StoreRelease(strategy.signature, domain, 2, 9.0));
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  if (next.ok()) {
    EXPECT_TRUE(after.Get(strategy.signature, next.ValueOrDie()).ok());
  }
  return true;
}

TEST(CrashMatrix, EveryBoundaryOfAShardedPut) {
  for (const bool torn : {false, true}) {
    for (long k = 0; k < 128; ++k) {
      if (!ShardedPutCrashTrial(k, torn)) {
        ASSERT_GT(k, 0) << "the put performed no fs operations?";
        break;
      }
      ASSERT_LT(k, 127) << "put op count exceeded the matrix bound";
    }
  }
}

// ---- Directory creation is durable

/// Names of the subdirectories of `dir` (empty when it cannot be read).
std::vector<std::string> Subdirs(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    struct stat st;
    if (name != "." && name != ".." &&
        ::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  return names;
}

/// Every directory below `root`, as root-prefixed paths.
std::set<std::string> DirsUnder(const std::string& root) {
  std::set<std::string> dirs;
  for (const std::string& name : Subdirs(root)) {
    const std::string path = root + "/" + name;
    dirs.insert(path);
    for (const std::string& below : DirsUnder(path)) dirs.insert(below);
  }
  return dirs;
}

/// Records, at every FsyncDir, which subdirectories the synced directory
/// held at that moment: a directory whose path is recorded had its entry
/// made durable after it was created.
class DirSyncRecorder : public FaultInjectionFsOps {
 public:
  DirSyncRecorder() : FaultInjectionFsOps(SystemFsOps()) {}

  Status FsyncDir(const std::string& dir) override {
    for (const std::string& name : Subdirs(dir)) {
      synced_.insert(dir + "/" + name);
    }
    return FaultInjectionFsOps::FsyncDir(dir);
  }

  bool EntrySynced(const std::string& path) const {
    return synced_.count(path) > 0;
  }

 private:
  std::set<std::string> synced_;
};

TEST(DirectoryDurability, EveryCreatedDirectoryIsFsyncedIntoItsParent) {
  const std::string root = FreshRoot();
  const Domain domain({2, 2});
  const serialize::StrategyArtifact strategy = StoreStrategy("dirs", domain);
  DirSyncRecorder recorder;
  serve::StoreOptions store_options;
  store_options.fs = &recorder;
  LedgerOptions ledger_options;
  ledger_options.fs = &recorder;

  // Runs one acknowledged operation and checks that every directory it
  // created was in its parent's listing at some FsyncDir of that parent.
  const auto expect_durable_dirs = [&](const std::string& what,
                                       const std::function<Status()>& op) {
    const std::set<std::string> before = DirsUnder(root);
    const Status st = op();
    ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
    std::size_t created = 0;
    for (const std::string& dir : DirsUnder(root)) {
      if (before.count(dir) > 0) continue;
      ++created;
      EXPECT_TRUE(recorder.EntrySynced(dir))
          << what << " created " << dir
          << " and acknowledged without fsyncing its parent";
    }
    EXPECT_GT(created, 0u) << what << " created no directory";
  };

  expect_durable_dirs("first strategy put on a fresh root", [&] {
    return serve::StrategyStore(root, store_options).Put(strategy);
  });
  expect_durable_dirs("first release put of a fresh key", [&] {
    return serve::ReleaseStore(root, store_options)
        .Put(StoreRelease(strategy.signature, domain, 0, 1.0))
        .status();
  });
  expect_durable_dirs("first charge of a fresh dataset", [&] {
    return BudgetLedger(root, ledger_options)
        .Charge("fresh", Eps(1.0), Eps(0.1))
        .status();
  });
  expect_durable_dirs("first put under a not-yet-existing store root", [&] {
    return serve::StrategyStore(root + "/nested/store", store_options)
        .Put(strategy);
  });
}

}  // namespace
}  // namespace dpmm
