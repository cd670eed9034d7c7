#include "serve/fs_ops.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace dpmm {
namespace serve {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// stat size, or 0 when the file does not exist (distinguished by *exists).
std::uint64_t FileSize(const std::string& path, bool* exists) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    *exists = false;
    return 0;
  }
  *exists = true;
  return static_cast<std::uint64_t>(st.st_size);
}

class SystemFsOpsImpl : public FsOps {
 public:
  Result<int> OpenForAppend(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return Errno("cannot open for append", path);
    return fd;
  }

  Result<int> OpenForWrite(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return Errno("cannot open for write", path);
    return fd;
  }

  Status WriteAll(int fd, const void* data, std::size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      const ssize_t w = ::write(fd, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("write failed: ") +
                               std::strerror(errno));
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return Status::OK();
  }

  Status Fsync(int fd) override {
    if (::fsync(fd) != 0) {
      return Status::IoError(std::string("fsync failed: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  Status Close(int fd) override {
    if (::close(fd) != 0) {
      return Status::IoError(std::string("close failed: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Errno("cannot rename " + from + " to", to);
    }
    return Status::OK();
  }

  Result<bool> MakeDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) == 0) return true;
    if (errno == EEXIST) return false;
    if (errno == ENOENT) {
      return Status::NotFound("no parent directory for " + path);
    }
    return Errno("cannot create directory", path);
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Errno("cannot remove", path);
    }
    return Status::OK();
  }

  Status Truncate(const std::string& path, std::uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Errno("cannot truncate", path);
    }
    return Status::OK();
  }

  Status FsyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Errno("cannot open directory", dir);
    const int rc = ::fsync(fd);
    const int saved = errno;
    ::close(fd);
    if (rc != 0) {
      return Status::IoError("fsync of directory " + dir + " failed: " +
                             std::strerror(saved));
    }
    return Status::OK();
  }

  Result<bool> FileExists(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT || errno == ENOTDIR) return false;
      return Errno("cannot stat", path);
    }
    return S_ISREG(st.st_mode);
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) {
      if (errno == ENOENT || errno == ENOTDIR) {
        return Status::NotFound("no directory at " + path);
      }
      return Errno("cannot open directory", path);
    }
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
  }

  Result<std::string> ReadFile(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no file at " + path);
      return Errno("cannot open", path);
    }
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        const std::string err = std::strerror(errno);
        ::close(fd);
        return Status::IoError("read of " + path + " failed: " + err);
      }
      if (r == 0) break;
      bytes.append(buf, static_cast<std::size_t>(r));
    }
    ::close(fd);
    return bytes;
  }
};

}  // namespace

FsOps* SystemFsOps() {
  static SystemFsOpsImpl* ops = new SystemFsOpsImpl();
  return ops;
}

// ---- FaultInjectionFsOps

bool FaultInjectionFsOps::Begin() {
  if (crashed_) return false;
  ++op_count_;
  if (crash_after_ >= 0 && op_count_ > crash_after_) {
    crashed_ = true;
    return false;
  }
  return true;
}

FaultInjectionFsOps::FileState& FaultInjectionFsOps::Track(
    const std::string& path) {
  auto it = files_.find(path);
  if (it != files_.end()) return it->second;
  FileState state;
  bool exists = false;
  const std::uint64_t size = FileSize(path, &exists);
  // Pre-existing bytes and dirents are assumed durable: the fault window
  // under test starts when this double starts observing the file.
  state.synced_size = state.current_size = size;
  state.dirent_synced = exists;
  return files_.emplace(path, std::move(state)).first->second;
}

static Status InjectedCrash() {
  return Status::IoError("injected crash: filesystem operation refused");
}

Result<int> FaultInjectionFsOps::OpenForAppend(const std::string& path) {
  if (!Begin()) return InjectedCrash();
  // Existence must be probed *before* the open: O_CREAT creating the file
  // means its directory entry is not durable until a FsyncDir, which Track
  // could not tell from a genuinely pre-existing (durable) file afterward.
  bool existed = false;
  FileSize(path, &existed);
  auto fd = base_->OpenForAppend(path);
  if (!fd.ok()) return fd;
  FileState& state = Track(path);
  if (!existed) state.dirent_synced = false;
  fd_paths_[fd.ValueOrDie()] = path;
  return fd;
}

Result<int> FaultInjectionFsOps::OpenForWrite(const std::string& path) {
  if (!Begin()) return InjectedCrash();
  bool existed = false;
  FileSize(path, &existed);
  auto fd = base_->OpenForWrite(path);
  if (!fd.ok()) return fd;
  FileState& state = Track(path);
  // O_TRUNC: from the crash model's view nothing of this file is durable
  // any more (we only ever OpenForWrite fresh temp files).
  state.synced_size = state.current_size = 0;
  if (!existed) state.dirent_synced = false;
  fd_paths_[fd.ValueOrDie()] = path;
  return fd;
}

Status FaultInjectionFsOps::WriteAll(int fd, const void* data, std::size_t n) {
  if (!Begin()) return InjectedCrash();
  auto it = fd_paths_.find(fd);
  if (short_next_write_) {
    short_next_write_ = false;
    const std::size_t half = n / 2;
    Status st = base_->WriteAll(fd, data, half);
    if (st.ok() && it != fd_paths_.end()) {
      files_[it->second].current_size += half;
    }
    return Status::IoError("injected short write (" + std::to_string(half) +
                           " of " + std::to_string(n) + " bytes)");
  }
  Status st = base_->WriteAll(fd, data, n);
  if (st.ok() && it != fd_paths_.end()) files_[it->second].current_size += n;
  return st;
}

Status FaultInjectionFsOps::Fsync(int fd) {
  if (!Begin()) return InjectedCrash();
  if (fail_next_fsync_) {
    fail_next_fsync_ = false;
    return Status::IoError("injected fsync failure");
  }
  Status st = base_->Fsync(fd);
  if (st.ok()) {
    auto it = fd_paths_.find(fd);
    if (it != fd_paths_.end()) {
      FileState& state = files_[it->second];
      state.synced_size = state.current_size;
    }
  }
  return st;
}

Status FaultInjectionFsOps::Close(int fd) {
  // Close the real fd even past the crash point — a dead process's fds
  // close too; what is lost is unsynced data, which SimulateCrashEffects
  // models. The operation still *reports* the crash to the caller.
  const bool alive = Begin();
  DPMM_IGNORE_STATUS(base_->Close(fd),
                     "the crash (if any) is what the caller must see; the "
                     "real close is bookkeeping for the fault double");
  fd_paths_.erase(fd);
  return alive ? Status::OK() : InjectedCrash();
}

Status FaultInjectionFsOps::Rename(const std::string& from,
                                   const std::string& to) {
  if (!Begin()) return InjectedCrash();
  FileState& source = Track(from);
  FileState target;
  target.synced_size = source.synced_size;
  target.current_size = source.current_size;
  target.dirent_synced = false;  // the new name needs a FsyncDir to survive
  bool to_exists = false;
  FileSize(to, &to_exists);
  if (to_exists) {
    // Remember the clobbered durable content so an unsynced rename can be
    // rolled back to it.
    std::ifstream in(to, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    target.replaced_old = true;
    target.old_bytes = bytes.str();
  }
  Status st = base_->Rename(from, to);
  if (!st.ok()) return st;
  files_.erase(from);
  files_[to] = std::move(target);
  return Status::OK();
}

Result<bool> FaultInjectionFsOps::MakeDir(const std::string& path) {
  if (!Begin()) return InjectedCrash();
  return base_->MakeDir(path);
}

Status FaultInjectionFsOps::Remove(const std::string& path) {
  if (!Begin()) return InjectedCrash();
  Status st = base_->Remove(path);
  if (st.ok()) files_.erase(path);
  return st;
}

Status FaultInjectionFsOps::Truncate(const std::string& path,
                                     std::uint64_t size) {
  if (!Begin()) return InjectedCrash();
  Status st = base_->Truncate(path, size);
  if (st.ok()) {
    FileState& state = Track(path);
    state.current_size = size;
    // An un-fsync'd truncate may or may not be durable; be pessimistic for
    // under-count detection: keep synced_size as the smaller of the two.
    if (state.synced_size > size) state.synced_size = size;
  }
  return st;
}

Status FaultInjectionFsOps::FsyncDir(const std::string& dir) {
  if (!Begin()) return InjectedCrash();
  if (fail_next_fsync_) {
    fail_next_fsync_ = false;
    return Status::IoError("injected fsync failure");
  }
  Status st = base_->FsyncDir(dir);
  if (!st.ok()) return st;
  const std::string prefix = dir.back() == '/' ? dir : dir + "/";
  for (auto& [path, state] : files_) {
    if (path.rfind(prefix, 0) == 0 &&
        path.find('/', prefix.size()) == std::string::npos) {
      state.dirent_synced = true;
      state.replaced_old = false;
      state.old_bytes.clear();
    }
  }
  return Status::OK();
}

Result<bool> FaultInjectionFsOps::FileExists(const std::string& path) {
  if (!Begin()) return InjectedCrash();
  return base_->FileExists(path);
}

Result<std::vector<std::string>> FaultInjectionFsOps::ListDir(
    const std::string& path) {
  if (!Begin()) return InjectedCrash();
  return base_->ListDir(path);
}

Result<std::string> FaultInjectionFsOps::ReadFile(const std::string& path) {
  if (!Begin()) return InjectedCrash();
  return base_->ReadFile(path);
}

Status FaultInjectionFsOps::SimulateCrashEffects(bool torn_tail) {
  for (auto& [path, state] : files_) {
    bool exists = false;
    const std::uint64_t on_disk = FileSize(path, &exists);
    if (!exists) continue;
    if (!state.dirent_synced) {
      if (state.replaced_old) {
        // The rename's new dirent was not durable: the old durable file
        // comes back.
        std::FILE* f = std::fopen(path.c_str(), "wb");
        if (f == nullptr) return Status::IoError("crash-sim: reopen " + path);
        if (!state.old_bytes.empty() &&
            std::fwrite(state.old_bytes.data(), 1, state.old_bytes.size(),
                        f) != state.old_bytes.size()) {
          std::fclose(f);
          return Status::IoError("crash-sim: rewrite " + path);
        }
        std::fclose(f);
      } else if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
        return Status::IoError("crash-sim: unlink " + path);
      }
      continue;
    }
    if (on_disk > state.synced_size) {
      std::uint64_t keep = state.synced_size;
      if (torn_tail) keep += (on_disk - state.synced_size) / 2;
      if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0) {
        return Status::IoError("crash-sim: truncate " + path);
      }
    }
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace dpmm
