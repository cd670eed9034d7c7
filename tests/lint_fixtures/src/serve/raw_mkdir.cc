// Fixture: mutates the directory tree with raw syscalls instead of the
// fs_ops seam, once actively and once with a justification.
#include <sys/stat.h>
#include <unistd.h>

namespace dpmm {
namespace serve {

int MakeRaw(const char* path) {
  return ::mkdir(path, 0755);  // raw-fs-call finding
}

int RemoveRaw(const char* path) {
  // lint:allow(raw-fs-call): fixture demonstrating the suppression syntax
  return ::unlink(path);
}

}  // namespace serve
}  // namespace dpmm
