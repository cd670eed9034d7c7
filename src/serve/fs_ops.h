// The filesystem-operation seam under the durability layer. Everything the
// WAL, the budget ledger and the store's atomic-write helper do to disk —
// open/write/fsync/close/rename/remove/truncate/mkdir, plus the directory
// fsyncs that make renames and creates durable — goes through this virtual
// interface, so crash-recovery code paths can be tested against a fault-
// injecting double (short writes, failed fsyncs, a simulated crash at every
// syscall boundary) instead of being trusted to handle power loss correctly
// by inspection. The discipline mirrors RocksDB's FaultInjectionTestEnv.
//
// The real implementation (SystemFsOps) is a stateless singleton over the
// POSIX calls. FaultInjectionFsOps wraps any FsOps; it lives here rather
// than in test code because the CLI exposes it behind the
// DPMM_FS_CRASH_AFTER environment variable, which is what lets shell-level
// tests (tools/cli_api_test.sh) drive a mid-charge crash through the real
// binary.
#ifndef DPMM_SERVE_FS_OPS_H_
#define DPMM_SERVE_FS_OPS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace dpmm {
namespace serve {

/// Virtual filesystem operations. All paths are as the caller would pass to
/// the POSIX call; fds are real OS descriptors (the double passes them
/// through, so mixing FsOps and direct reads of the same files is safe).
class FsOps {
 public:
  virtual ~FsOps() = default;

  /// Opens (creating if absent) for appending. The fd's offset is at EOF.
  [[nodiscard]] virtual Result<int> OpenForAppend(const std::string& path) = 0;
  /// Opens for writing, truncating any existing content.
  [[nodiscard]] virtual Result<int> OpenForWrite(const std::string& path) = 0;
  /// Writes all n bytes (retrying short writes); error if that fails.
  [[nodiscard]] virtual Status WriteAll(int fd, const void* data, std::size_t n) = 0;
  /// Flushes file data + metadata to stable storage.
  [[nodiscard]] virtual Status Fsync(int fd) = 0;
  [[nodiscard]] virtual Status Close(int fd) = 0;
  [[nodiscard]] virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// mkdir(2), mode 0755. True when this call created the directory, false
  /// when the name already existed; NotFound when the parent is missing.
  /// The new entry is not durable until its parent is FsyncDir'd.
  [[nodiscard]] virtual Result<bool> MakeDir(const std::string& path) = 0;
  [[nodiscard]] virtual Status Remove(const std::string& path) = 0;
  [[nodiscard]] virtual Status Truncate(const std::string& path, std::uint64_t size) = 0;
  /// Fsyncs the directory itself, making created/renamed/removed entries
  /// durable. POSIX requires this for the *name* to survive a crash even
  /// when the file's own data was fsynced.
  [[nodiscard]] virtual Status FsyncDir(const std::string& dir) = 0;

  // Read-side probes. The stores route these through the seam too, so a
  // crash schedule covers an entire operation (a compaction's listing and
  // copying, not just its writes) — an op that dies mid-read must fail like
  // one that dies mid-write.

  /// True when `path` names an existing regular file.
  [[nodiscard]] virtual Result<bool> FileExists(const std::string& path) = 0;
  /// Entry names (not paths, "."/".." excluded) of a directory, sorted.
  /// NotFound when the directory does not exist.
  [[nodiscard]] virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) = 0;
  /// The file's full contents. NotFound when it does not exist.
  [[nodiscard]] virtual Result<std::string> ReadFile(const std::string& path) = 0;
};

/// The real POSIX implementation; stateless, shared, never deleted.
FsOps* SystemFsOps();

/// A fault-injecting FsOps for crash-recovery testing. Operations pass
/// through to the base until the configured crash point, after which every
/// operation fails (the process has "died": nothing it does reaches the
/// disk). The double additionally tracks which bytes and directory entries
/// had been made durable (fsync'd) at crash time, so SimulateCrashEffects()
/// can roll the real filesystem back to what a machine power-cut at that
/// boundary could have preserved: unsynced file tails truncated (optionally
/// leaving a torn half-record), unsynced creates/renames undone.
///
/// Thread-compatible, not thread-safe: drive it from one thread.
class FaultInjectionFsOps : public FsOps {
 public:
  explicit FaultInjectionFsOps(FsOps* base) : base_(base) {}

  /// Crash at the (n+1)-th operation from now: that operation and every
  /// later one fail with IoError("injected crash"). Negative n disables.
  void set_crash_after(long n) { crash_after_ = n; }
  /// Fail the next fsync (file or dir) with IoError, without crashing —
  /// models a disk that reports a write-back failure once.
  void set_fail_next_fsync(bool fail) { fail_next_fsync_ = fail; }
  /// Write only the first half of the next WriteAll, then fail — a torn
  /// write without a full crash.
  void set_short_next_write(bool short_write) { short_next_write_ = short_write; }

  long op_count() const { return op_count_; }
  bool crashed() const { return crashed_; }

  /// Applies the crash's data-loss effects to the real filesystem: every
  /// file with bytes written since its last Fsync is truncated back to the
  /// synced size (plus half of the unsynced tail when `torn_tail`, modeling
  /// a record torn mid-sector); files whose directory entry was never made
  /// durable by FsyncDir are removed (or, for renames over an existing
  /// file, the old content is restored). Call after the injected crash,
  /// before reopening state with the real FsOps.
  [[nodiscard]] Status SimulateCrashEffects(bool torn_tail);

  [[nodiscard]] Result<int> OpenForAppend(const std::string& path) override;
  [[nodiscard]] Result<int> OpenForWrite(const std::string& path) override;
  [[nodiscard]] Status WriteAll(int fd, const void* data, std::size_t n) override;
  [[nodiscard]] Status Fsync(int fd) override;
  [[nodiscard]] Status Close(int fd) override;
  [[nodiscard]] Status Rename(const std::string& from, const std::string& to) override;
  [[nodiscard]] Result<bool> MakeDir(const std::string& path) override;
  [[nodiscard]] Status Remove(const std::string& path) override;
  [[nodiscard]] Status Truncate(const std::string& path, std::uint64_t size) override;
  [[nodiscard]] Status FsyncDir(const std::string& dir) override;
  [[nodiscard]] Result<bool> FileExists(const std::string& path) override;
  [[nodiscard]] Result<std::vector<std::string>> ListDir(
      const std::string& path) override;
  [[nodiscard]] Result<std::string> ReadFile(const std::string& path) override;

 private:
  struct FileState {
    std::uint64_t synced_size = 0;   // bytes durable as of the last Fsync
    std::uint64_t current_size = 0;  // bytes written through this seam
    bool dirent_synced = true;       // name durable (FsyncDir'd or pre-existing)
    bool replaced_old = false;       // Rename clobbered an existing file...
    std::string old_bytes;           // ...whose durable content was this
  };

  /// Charges one operation against the crash schedule; false = crashed.
  bool Begin();
  FileState& Track(const std::string& path);

  FsOps* base_;
  long crash_after_ = -1;
  long op_count_ = 0;
  bool crashed_ = false;
  bool fail_next_fsync_ = false;
  bool short_next_write_ = false;
  std::map<std::string, FileState> files_;
  std::map<int, std::string> fd_paths_;
};

}  // namespace serve
}  // namespace dpmm

#endif  // DPMM_SERVE_FS_OPS_H_
