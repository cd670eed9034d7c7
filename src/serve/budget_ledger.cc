#include "serve/budget_ledger.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "serve/store.h"
#include "serve/wal.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/text.h"
#include "util/trace.h"

namespace dpmm {
namespace serve {

namespace {

// Rounding slack for the over-budget test: an exact split of one budget
// into B parts must re-sum to "fits" despite floating accumulation, while
// any real overdraft (the smallest meaningful request is far above 1e-9 of
// a budget) is still refused.
constexpr double kSlack = 1e-9;

/// spent + request > total, beyond rounding slack, in one component.
bool Exceeds(double spent, double request, double total) {
  return spent + request > total * (1 + kSlack);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// A process-unique charge id for callers that did not pick their own:
/// random 64 bits + pid + an in-process counter. Uniqueness, not secrecy,
/// is the requirement (ids only dedup retries).
std::string GenerateChargeId() {
  // All process entropy flows through util/rng so it stays auditable (the
  // invariant linter's unseeded-rng rule keeps ad-hoc entropy out of here).
  static const std::uint64_t kProcessTag = EntropySeed();
  static std::atomic<std::uint64_t> counter{0};
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx-%llu",
                static_cast<unsigned long long>(kProcessTag),
                static_cast<unsigned long long>(counter++));
  return buf;
}

/// One WAL record = one charge, a single line:
///   charge <seq> <id> <req_eps> <req_delta> <total_eps> <total_delta> <dataset>
/// The dataset label comes last because it may contain spaces.
struct ChargeRecord {
  std::size_t seq = 0;
  std::string id;
  PrivacyParams request;
  PrivacyParams total;
  std::string dataset;
};

std::string FormatRecord(const ChargeRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "charge %zu %s %.17g %.17g %.17g %.17g ",
                r.seq, r.id.c_str(), r.request.epsilon, r.request.delta,
                r.total.epsilon, r.total.delta);
  return std::string(buf) + r.dataset;
}

bool ParseRecord(const std::string& payload, ChargeRecord* r) {
  std::istringstream fields(payload);
  std::string tag, seq, id, re, rd, te, td;
  if (!(fields >> tag >> seq >> id >> re >> rd >> te >> td) ||
      tag != "charge") {
    return false;
  }
  if (!util::ParseSizeT(seq, &r->seq) || r->seq == 0) return false;
  r->id = id;
  if (!util::ParseFiniteDouble(re, &r->request.epsilon) ||
      !util::ParseFiniteDouble(rd, &r->request.delta) ||
      !util::ParseFiniteDouble(te, &r->total.epsilon) ||
      !util::ParseFiniteDouble(td, &r->total.delta)) {
    return false;
  }
  std::string rest;
  std::getline(fields, rest);
  if (rest.empty() || rest[0] != ' ') return false;
  r->dataset = rest.substr(1);
  return !r->dataset.empty();
}

enum class SnapshotParse { kOk, kMissing, kMalformed, kUnreadable };

/// Parses a snapshot file, either format version. v2 appends zero or more
/// "recent <charge-id>" lines — the idempotency window compacted out of
/// the WAL at the last checkpoint.
SnapshotParse ParseSnapshot(const std::string& path,
                            const std::string& dataset, LedgerEntry* entry,
                            std::vector<std::string>* recent) {
  std::ifstream in(path);
  if (!in) {
    return FileExists(path) ? SnapshotParse::kUnreadable
                            : SnapshotParse::kMissing;
  }
  std::string line;
  if (!std::getline(in, line) ||
      (line != "# dpmm-ledger 1" && line != "# dpmm-ledger 2")) {
    return SnapshotParse::kMalformed;
  }
  bool have_dataset = false, have_total = false, have_spent = false,
       have_charges = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "dataset") {
      // The label is the rest of the line past "dataset " (labels — file
      // paths — may contain spaces).
      entry->dataset = line.size() > 8 ? line.substr(8) : "";
      have_dataset = true;
    } else if (tag == "total" || tag == "spent") {
      std::string eps, delta;
      if (!(fields >> eps >> delta)) return SnapshotParse::kMalformed;
      PrivacyParams* p = tag == "total" ? &entry->total : &entry->spent;
      if (!util::ParseFiniteDouble(eps, &p->epsilon) ||
          !util::ParseFiniteDouble(delta, &p->delta) || p->epsilon < 0 ||
          p->delta < 0) {
        return SnapshotParse::kMalformed;
      }
      (tag == "total" ? have_total : have_spent) = true;
    } else if (tag == "charges") {
      std::string n;
      if (!(fields >> n) || !util::ParseSizeT(n, &entry->charges)) {
        return SnapshotParse::kMalformed;
      }
      have_charges = true;
    } else if (tag == "recent") {
      std::string id;
      if (!(fields >> id)) return SnapshotParse::kMalformed;
      recent->push_back(id);
    } else {
      return SnapshotParse::kMalformed;
    }
  }
  if (!have_dataset || !have_total || !have_spent || !have_charges ||
      entry->dataset != dataset) {
    return SnapshotParse::kMalformed;
  }
  return SnapshotParse::kOk;
}

std::string EncodeSnapshot(const LedgerEntry& entry,
                           const std::vector<std::string>& recent) {
  char buf[512];
  std::string text = "# dpmm-ledger 2\n";
  text += "dataset " + entry.dataset + "\n";
  std::snprintf(buf, sizeof(buf), "total %.17g %.17g\n", entry.total.epsilon,
                entry.total.delta);
  text += buf;
  std::snprintf(buf, sizeof(buf), "spent %.17g %.17g\n", entry.spent.epsilon,
                entry.spent.delta);
  text += buf;
  std::snprintf(buf, sizeof(buf), "charges %zu\n", entry.charges);
  text += buf;
  for (const auto& id : recent) text += "recent " + id + "\n";
  return text;
}

}  // namespace

PrivacyParams LedgerEntry::Remaining() const {
  return {std::max(0.0, total.epsilon - spent.epsilon),
          std::max(0.0, total.delta - spent.delta)};
}

bool LedgerEntry::Overdrawn() const {
  return Exceeds(spent.epsilon, 0.0, total.epsilon) ||
         Exceeds(spent.delta, 0.0, total.delta);
}

BudgetLedger::BudgetLedger(std::string root, LedgerOptions options)
    : root_(std::move(root)), options_(options) {}

FsOps* BudgetLedger::fs() const {
  return options_.fs != nullptr ? options_.fs : SystemFsOps();
}

std::string BudgetLedger::SnapshotPath(const std::string& dataset) const {
  return root_ + "/ledger/" + StoreKey(dataset) + ".ledger";
}

std::string BudgetLedger::WalPath(const std::string& dataset) const {
  return root_ + "/ledger/" + StoreKey(dataset) + ".wal";
}

std::string BudgetLedger::LockPath(const std::string& dataset) const {
  return root_ + "/ledger/" + StoreKey(dataset) + ".lock";
}

/// Everything recovery learns about one dataset: the folded entry, the
/// idempotency window, and what is physically in the WAL right now.
struct BudgetLedger::LoadedState {
  LedgerEntry entry;
  bool exists = false;
  /// Dedup window: ids in the snapshot's `recent` list + ids in the WAL.
  std::set<std::string> applied_ids;
  /// Ids of the records currently in the WAL (what the next checkpoint
  /// writes as `recent`).
  std::vector<std::string> wal_ids;
  std::size_t wal_records = 0;
  std::uint64_t wal_valid_size = 0;
  bool wal_torn = false;
};

/// True when any quarantined snapshot exists for this dataset key — the
/// fail-closed sentinel that keeps a damaged entry from being silently
/// recreated as "never charged".
static bool QuarantineExists(const std::string& snapshot_path) {
  const std::size_t slash = snapshot_path.find_last_of('/');
  const std::string dir = snapshot_path.substr(0, slash);
  const std::string base = snapshot_path.substr(slash + 1) + ".corrupt-";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  bool found = false;
  while (struct dirent* e = ::readdir(d)) {
    if (std::string(e->d_name).rfind(base, 0) == 0) {
      found = true;
      break;
    }
  }
  ::closedir(d);
  return found;
}

Status BudgetLedger::LoadState(const std::string& dataset,
                               bool quarantine_on_damage,
                               LoadedState* state) const {
  const std::string snapshot_path = SnapshotPath(dataset);
  std::vector<std::string> recent;
  switch (ParseSnapshot(snapshot_path, dataset, &state->entry, &recent)) {
    case SnapshotParse::kOk:
      state->exists = true;
      for (auto& id : recent) state->applied_ids.insert(std::move(id));
      break;
    case SnapshotParse::kMissing:
      break;
    case SnapshotParse::kUnreadable:
      return Status::IoError("cannot read ledger file: " + snapshot_path);
    case SnapshotParse::kMalformed: {
      std::string quarantined = snapshot_path + ".corrupt-?";
      if (quarantine_on_damage) {
        for (int n = 0;; ++n) {
          const std::string candidate =
              snapshot_path + ".corrupt-" + std::to_string(n);
          if (FileExists(candidate)) continue;
          // A racing quarantiner may win the rename; ENOENT on the source
          // then just means the file is already out of the way.
          if (fs()->Rename(snapshot_path, candidate).ok() ||
              !FileExists(snapshot_path)) {
            quarantined = candidate;
          }
          break;
        }
      }
      return Status::DataLoss(
          "ledger snapshot for dataset '" + dataset +
          "' is damaged and has been quarantined as " + quarantined +
          "; serving fails closed — run `dpmm_cli ledger recover` (the WAL "
          "may hold the full history) or restore from backup");
    }
  }
  if (!state->exists && QuarantineExists(snapshot_path)) {
    return Status::DataLoss(
        "ledger for dataset '" + dataset +
        "' has a quarantined snapshot and no valid replacement; refusing "
        "to treat it as never-charged — run `dpmm_cli ledger recover` or "
        "restore from backup");
  }

  auto replayed = ReadWal(WalPath(dataset), fs());
  if (!replayed.ok()) {
    if (replayed.status().code() == StatusCode::kNotFound) {
      return Status::OK();  // no WAL: the snapshot is the whole state
    }
    return replayed.status();
  }
  const WalReplay& replay = replayed.ValueOrDie();
  state->wal_valid_size = replay.valid_size;
  state->wal_torn = replay.torn_tail;
  state->wal_records = replay.records.size();
  for (const auto& payload : replay.records) {
    ChargeRecord record;
    if (!ParseRecord(payload, &record) || record.dataset != dataset) {
      // The frame's CRC was valid, so this is not a torn write — it is a
      // software bug, tampering, or a key collision. Fail closed.
      return Status::DataLoss("WAL for dataset '" + dataset +
                              "' holds an unparseable or foreign record");
    }
    state->applied_ids.insert(record.id);
    state->wal_ids.push_back(record.id);
    if (record.seq <= state->entry.charges) continue;  // checkpointed already
    if (!state->exists) {
      if (record.seq != 1) {
        return Status::DataLoss(
            "ledger snapshot for dataset '" + dataset +
            "' is missing but its WAL starts at charge #" +
            std::to_string(record.seq) +
            " (compacted history); refusing to rebuild a partial spent sum");
      }
      state->entry.dataset = dataset;
      state->entry.total = record.total;
      state->exists = true;
    } else if (record.seq != state->entry.charges + 1) {
      return Status::DataLoss("WAL for dataset '" + dataset +
                              "' skips from charge #" +
                              std::to_string(state->entry.charges) + " to #" +
                              std::to_string(record.seq));
    }
    if (record.total.epsilon != state->entry.total.epsilon ||
        record.total.delta != state->entry.total.delta) {
      return Status::DataLoss("WAL record for dataset '" + dataset +
                              "' disagrees with the recorded lifetime budget");
    }
    state->entry.spent.epsilon += record.request.epsilon;
    state->entry.spent.delta += record.request.delta;
    state->entry.charges = record.seq;
  }
  return Status::OK();
}

Status BudgetLedger::CheckpointLocked(const LoadedState& state) const {
  static Counter* checkpoints = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.budget_ledger.checkpoints");
  // Order is the crash-safety invariant: the snapshot must be durable
  // (WriteViaRename fsyncs the file and its directory) *before* the WAL
  // records it subsumes are dropped. A crash between the two steps merely
  // leaves records the next replay skips by sequence number.
  Status st = internal::WriteViaRename(SnapshotPath(state.entry.dataset),
                                       EncodeSnapshot(state.entry, state.wal_ids),
                                       fs());
  if (!st.ok()) return st;
  const std::string wal_path = WalPath(state.entry.dataset);
  if (FileExists(wal_path)) {
    st = TruncateWal(wal_path, 0, fs());
  }
  if (st.ok()) checkpoints->Add(1);
  return st;
}

Result<LedgerEntry> BudgetLedger::Read(const std::string& dataset) const {
  const std::string snapshot_path = SnapshotPath(dataset);
  if (!FileExists(snapshot_path) && !FileExists(WalPath(dataset)) &&
      !QuarantineExists(snapshot_path)) {
    // Nothing on disk at all: report NotFound without creating lock files
    // under a store that may never be charged.
    return Status::NotFound("no ledger entry for dataset '" + dataset + "'");
  }
  // A shared lock: concurrent readers proceed together, but a point-in-time
  // read never interleaves with a writer's append-then-checkpoint sequence
  // (which could transiently double- or under-count across the two files).
  FileLockOptions lock_options = options_.lock;
  lock_options.shared = true;
  auto lock = FileLock::Acquire(LockPath(dataset), lock_options);
  if (!lock.ok()) return lock.status();
  LoadedState state;
  Status st = LoadState(dataset, /*quarantine_on_damage=*/true, &state);
  if (!st.ok()) return st;
  if (!state.exists) {
    return Status::NotFound("no ledger entry for dataset '" + dataset + "'");
  }
  return state.entry;
}

Result<LedgerEntry> BudgetLedger::Charge(const std::string& dataset,
                                         const PrivacyParams& total,
                                         const PrivacyParams& request,
                                         const std::string& charge_id) {
  static Counter* charges = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.budget_ledger.charges");
  static Counter* refusals = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.budget_ledger.refusals");
  static Histogram* charge_ns = MetricsRegistry::Global().GetHistogram(
      "dpmm.serve.budget_ledger.charge_ns");
  TraceSpan span("BudgetLedger::Charge", "serve");
  const std::uint64_t t0 = MonotonicNanos();
  if (dataset.empty() || dataset.find('\n') != std::string::npos) {
    return Status::InvalidArgument(
        "ledger dataset label must be nonempty and single-line");
  }
  if (!(total.epsilon > 0) || total.delta < 0 || !(request.epsilon > 0) ||
      request.delta < 0 || !std::isfinite(total.epsilon) ||
      !std::isfinite(total.delta) || !std::isfinite(request.epsilon) ||
      !std::isfinite(request.delta)) {
    return Status::InvalidArgument(
        "ledger budgets must be positive and finite");
  }
  if (charge_id.find_first_of(" \t\n") != std::string::npos) {
    return Status::InvalidArgument("charge id must not contain whitespace");
  }

  Status st = internal::EnsureDir(root_ + "/ledger", fs());
  if (!st.ok()) return st;
  auto lock = FileLock::Acquire(LockPath(dataset), options_.lock);
  if (!lock.ok()) return lock.status();

  LoadedState state;
  st = LoadState(dataset, /*quarantine_on_damage=*/true, &state);
  if (!st.ok()) return st;

  if (state.exists) {
    if (state.entry.total.epsilon != total.epsilon ||
        state.entry.total.delta != total.delta) {
      char msg[256];
      std::snprintf(msg, sizeof(msg),
                    "dataset '%s' has a recorded lifetime budget of "
                    "(eps=%g, delta=%g); a total of (eps=%g, delta=%g) "
                    "cannot be renegotiated",
                    dataset.c_str(), state.entry.total.epsilon,
                    state.entry.total.delta, total.epsilon, total.delta);
      return Status::InvalidArgument(msg);
    }
  } else {
    state.entry.dataset = dataset;
    state.entry.total = total;
  }

  // Exactly-once under retry: a charge id that is already recorded (its
  // WAL append survived a crash the caller saw as a failure) applies
  // nothing and reports the state that charge produced.
  if (!charge_id.empty() && state.applied_ids.count(charge_id) > 0) {
    return state.entry;
  }

  if (Exceeds(state.entry.spent.epsilon, request.epsilon,
              state.entry.total.epsilon) ||
      Exceeds(state.entry.spent.delta, request.delta,
              state.entry.total.delta)) {
    const PrivacyParams rem = state.entry.Remaining();
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "release of (eps=%g, delta=%g) for dataset '%s' exceeds "
                  "the remaining budget (eps=%g, delta=%g of a lifetime "
                  "eps=%g, delta=%g)",
                  request.epsilon, request.delta, dataset.c_str(), rem.epsilon,
                  rem.delta, state.entry.total.epsilon,
                  state.entry.total.delta);
    refusals->Add(1);
    return Status::ResourceExhausted(msg);
  }

  // Damage from an earlier crash ends here, under the exclusive lock:
  // appending after a torn frame would bury the new record behind garbage.
  const std::string wal_path = WalPath(dataset);
  if (state.wal_torn) {
    st = TruncateWal(wal_path, state.wal_valid_size, fs());
    if (!st.ok()) return st;
  }

  ChargeRecord record;
  record.seq = state.entry.charges + 1;
  record.id = charge_id.empty() ? GenerateChargeId() : charge_id;
  record.request = request;
  record.total = state.entry.total;
  record.dataset = dataset;

  auto opened = WalWriter::Open(wal_path, state.wal_valid_size, fs());
  if (!opened.ok()) return opened.status();
  WalWriter writer = std::move(opened).ValueOrDie();
  // WAL-append → fsync → apply: the charge exists once (and only once)
  // this Append returns, which is the only point the caller may treat it
  // as spent.
  st = writer.Append(FormatRecord(record));
  if (!st.ok()) return st;

  state.entry.spent.epsilon += request.epsilon;
  state.entry.spent.delta += request.delta;
  state.entry.charges = record.seq;
  state.applied_ids.insert(record.id);
  state.wal_ids.push_back(record.id);
  state.wal_records += 1;

  if (state.wal_records >= options_.checkpoint_interval) {
    // Compaction is an optimization, never a correctness step: the charge
    // above is already durable in the WAL, so a checkpoint failure must
    // not fail the acknowledged charge — the next successful charge or an
    // explicit Recover() retries it.
    (void)CheckpointLocked(state);
  }
  charges->Add(1);
  charge_ns->Record(MonotonicNanos() - t0);
  return state.entry;
}

Result<LedgerEntry> BudgetLedger::Recover(const std::string& dataset) {
  if (dataset.empty() || dataset.find('\n') != std::string::npos) {
    return Status::InvalidArgument(
        "ledger dataset label must be nonempty and single-line");
  }
  const std::string snapshot_path = SnapshotPath(dataset);
  const std::string wal_path = WalPath(dataset);
  if (!FileExists(snapshot_path) && !FileExists(wal_path) &&
      !QuarantineExists(snapshot_path)) {
    return Status::NotFound("no ledger entry for dataset '" + dataset + "'");
  }
  auto lock = FileLock::Acquire(LockPath(dataset), options_.lock);
  if (!lock.ok()) return lock.status();

  LoadedState state;
  Status st = LoadState(dataset, /*quarantine_on_damage=*/true, &state);
  if (st.ok()) {
    if (!state.exists) {
      return Status::NotFound("no ledger entry for dataset '" + dataset +
                              "'");
    }
    if (state.wal_torn) {
      Status trunc = TruncateWal(wal_path, state.wal_valid_size, fs());
      if (!trunc.ok()) return trunc;
    }
    Status checkpoint = CheckpointLocked(state);
    if (!checkpoint.ok()) return checkpoint;
    return state.entry;
  }
  if (st.code() != StatusCode::kDataLoss) return st;

  // The snapshot is quarantined (now or previously). The WAL alone can
  // still prove the full state — but only when it holds the dataset's
  // entire history, i.e. its first record is charge #1: a compacted WAL
  // would rebuild an under-counted spent sum, which is exactly the failure
  // mode this ledger exists to rule out.
  auto replayed = ReadWal(wal_path, fs());
  if (!replayed.ok()) return st;  // no WAL either: the original DataLoss stands
  const WalReplay& replay = replayed.ValueOrDie();
  LoadedState rebuilt;
  for (const auto& payload : replay.records) {
    ChargeRecord record;
    if (!ParseRecord(payload, &record) || record.dataset != dataset) {
      return st;
    }
    if (record.seq != rebuilt.entry.charges + 1) return st;
    if (!rebuilt.exists) {
      rebuilt.entry.dataset = dataset;
      rebuilt.entry.total = record.total;
      rebuilt.exists = true;
    } else if (record.total.epsilon != rebuilt.entry.total.epsilon ||
               record.total.delta != rebuilt.entry.total.delta) {
      return st;
    }
    rebuilt.entry.spent.epsilon += record.request.epsilon;
    rebuilt.entry.spent.delta += record.request.delta;
    rebuilt.entry.charges = record.seq;
    rebuilt.applied_ids.insert(record.id);
    rebuilt.wal_ids.push_back(record.id);
  }
  if (!rebuilt.exists) return st;
  if (replay.torn_tail) {
    Status trunc = TruncateWal(wal_path, replay.valid_size, fs());
    if (!trunc.ok()) return trunc;
  }
  Status checkpoint = CheckpointLocked(rebuilt);
  if (!checkpoint.ok()) return checkpoint;
  return rebuilt.entry;
}

}  // namespace serve
}  // namespace dpmm
