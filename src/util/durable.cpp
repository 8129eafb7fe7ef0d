#include "util/durable.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace solsched::util {
namespace {

/// Writes all of `bytes`, retrying short writes and EINTR.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// fsyncs the directory holding `path`, so a rename or a file creation in
/// it survives a power failure; returns 0 or the errno. A filesystem that
/// cannot sync directories (EINVAL) has nothing to flush.
int fsync_parent(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return errno;
  const int error = ::fsync(fd) == 0 || errno == EINVAL ? 0 : errno;
  ::close(fd);
  return error;
}

}  // namespace

IoError::IoError(std::string path, std::string step, int error_number)
    : std::runtime_error(path + ": " + step + " failed: " +
                         std::strerror(error_number)),
      path_(std::move(path)),
      step_(std::move(step)),
      errno_(error_number) {}

ReplayError::ReplayError(const std::string& label, std::size_t line_no)
    : std::runtime_error(label + ": malformed line " + std::to_string(line_no) +
                         " is not the last line (corruption, not a torn "
                         "tail)"),
      line_no_(line_no) {}

void write_atomic(const std::string& path, std::string_view bytes) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode) &&
      !S_ISDIR(st.st_mode)) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_TRUNC | O_CLOEXEC);
    if (fd < 0) throw IoError(path, "open", errno);
    const bool ok = write_all(fd, bytes);
    const int error = errno;
    ::close(fd);
    if (!ok) throw IoError(path, "write", error);
    return;
  }
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw IoError(path, "open tmp", errno);
  const char* step = !write_all(fd, bytes) ? "write"
                     : ::fsync(fd) != 0    ? "fsync"
                                           : nullptr;
  int error = errno;
  if (::close(fd) != 0 && step == nullptr) {
    step = "close";
    error = errno;
  }
  if (step == nullptr && std::rename(tmp.c_str(), path.c_str()) != 0) {
    step = "rename";
    error = errno;
  }
  if (step != nullptr) {
    ::unlink(tmp.c_str());
    throw IoError(path, step, error);
  }
  if (const int e = fsync_parent(path)) throw IoError(path, "fsync dir", e);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError(path, "open", errno);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

AppendLog::AppendLog(const std::string& path, std::string_view header)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) throw IoError(path, "open", errno);
  const auto fail = [&](const char* step, int error = errno) {
    ::close(fd_);  // The destructor does not run for a throwing ctor.
    throw IoError(path_, step, error);
  };
  // Heal a crash-torn tail: every complete line ends in '\n', and a line
  // appended to a partial one would glue into mid-file garbage.
  struct stat st {};
  if (::fstat(fd_, &st) != 0) fail("stat");
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  if (::pread(fd_, bytes.data(), bytes.size(), 0) != st.st_size) fail("read");
  const off_t keep = static_cast<off_t>(bytes.rfind('\n') + 1);  // npos → 0
  if (keep != st.st_size && ::ftruncate(fd_, keep) != 0) fail("truncate");
  if (keep == 0) {
    if (!write_all(fd_, header)) fail("write header");
    if (::fsync(fd_) != 0) fail("fsync");
    if (const int e = fsync_parent(path_)) fail("fsync dir", e);
  }
}

AppendLog::~AppendLog() { ::close(fd_); }

void AppendLog::append(std::string_view line, bool sync) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ssize_t n = ::write(fd_, line.data(), line.size());
  if (n != static_cast<ssize_t>(line.size()))
    throw IoError(path_, "write", n < 0 ? errno : EIO);
  if (sync && ::fsync(fd_) != 0) throw IoError(path_, "fsync", errno);
}

std::size_t replay_lines(
    std::string_view text, const std::string& label,
    const std::function<bool(std::string_view line, std::size_t line_no)>&
        parse) {
  const std::size_t end = text.rfind('\n') + 1;  // npos → 0: no full line.
  const bool torn_fragment = end < text.size();
  std::size_t line_no = 0;
  std::size_t failed_line = 0;
  for (std::size_t pos = 0; pos < end;) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    if (failed_line != 0) throw ReplayError(label, failed_line);
    if (!parse(line, line_no)) failed_line = line_no;
  }
  if (failed_line != 0 && torn_fragment) throw ReplayError(label, failed_line);
  return failed_line != 0 || torn_fragment ? 1 : 0;
}

}  // namespace solsched::util
