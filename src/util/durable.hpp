// Durable files: the one place that decides how a file survives a crash
// (DESIGN.md §3 "Durable files"). Snapshots go through write_atomic,
// append-only logs through AppendLog, and logs are read back with
// replay_lines. A torn file heals to a prefix of its complete lines or
// fails with a typed error. Depends on nothing else in solsched.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace solsched::util {

/// A failed file step: the path, the step ("open tmp", "write", "fsync",
/// "rename", "fsync dir", ...) and its errno.
class IoError : public std::runtime_error {
 public:
  IoError(std::string path, std::string step, int error_number);
  const std::string& path() const noexcept { return path_; }
  const std::string& step() const noexcept { return step_; }
  int error_number() const noexcept { return errno_; }

 private:
  std::string path_, step_;
  int errno_;
};

/// A malformed line with another line after it: corruption, not a crash.
class ReplayError : public std::runtime_error {
 public:
  ReplayError(const std::string& label, std::size_t line_no);
  std::size_t line_no() const noexcept { return line_no_; }

 private:
  std::size_t line_no_;
};

/// Replaces `path` with `bytes`: <path>.tmp → write → fsync → close →
/// rename → fsync parent dir. On failure the tmp is removed, the old
/// target is untouched and IoError is thrown. One writer per path at a
/// time. An existing target that is neither a regular file nor a directory
/// (a pipe, /dev/stdout) cannot be replaced and is written in place.
void write_atomic(const std::string& path, std::string_view bytes);

/// The whole file; IoError when it cannot be opened.
std::string read_file(const std::string& path);

/// Append-only line log. Thread-safe.
class AppendLog {
 public:
  /// Opens or creates `path` and truncates a crash-torn tail (the bytes
  /// after the last '\n'). When the file is then empty, writes `header`
  /// ('\n' included) and fsyncs the file and its parent dir.
  AppendLog(const std::string& path, std::string_view header);
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// One write() of `line` ('\n' included), plus one fsync when `sync`.
  /// A failed append may leave a torn tail, which the next open heals.
  void append(std::string_view line, bool sync);

 private:
  std::string path_;
  std::mutex mutex_;  ///< Orders each write with its fsync.
  int fd_ = -1;
};

/// Calls `parse(line, line_no)` on each non-empty line of `text` (line
/// numbers 1-based); `parse` returns false when the line does not parse.
/// Only the last line may fail: that is the torn tail. An unterminated
/// final fragment is torn too and is dropped unparsed. Returns the number
/// of dropped lines (0 or 1); throws ReplayError, labelled `label`, for a
/// bad line before the last. Exceptions from `parse` propagate.
std::size_t replay_lines(
    std::string_view text, const std::string& label,
    const std::function<bool(std::string_view line, std::size_t line_no)>&
        parse);

}  // namespace solsched::util
