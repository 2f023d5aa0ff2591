#pragma once
// poll(2)-based event loop for the network serving front-end.
//
// Single-threaded by design: every fd callback runs on the thread inside
// run()/poll_once(), so connection state needs no locking. The only
// cross-thread entry points are wake() and stop(), which write one byte
// to a self-pipe — the idiom that lets another thread (or a completion
// elsewhere in the process) interrupt a blocking poll() without races.
//
// The loop is deliberately thin: it owns fd -> callback registration and
// the poll() dispatch; timers, accept logic, and per-connection protocol
// state live in the caller (net/server.cpp), which chooses the poll
// timeout per iteration based on what it is waiting for (in-flight
// service completions: the rest of a sub-millisecond tick; idle: a long
// one). Callbacks may add or remove fds — including their own — during
// dispatch; removal is checked again per ready fd before its callback is
// invoked.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>

namespace dynasparse {

/// RAII file descriptor: closes on destruction, move-only.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }
  ScopedFd(ScopedFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  ScopedFd& operator=(ScopedFd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Set O_NONBLOCK; throws std::runtime_error (with errno text) on failure.
void set_nonblocking(int fd);

class EventLoop {
 public:
  /// Interest/event bits. kError is delivered (never requested): the fd
  /// hit POLLERR/POLLHUP/POLLNVAL and should be torn down.
  static constexpr std::uint32_t kRead = 1u << 0;
  static constexpr std::uint32_t kWrite = 1u << 1;
  static constexpr std::uint32_t kError = 1u << 2;

  using Callback = std::function<void(std::uint32_t events)>;

  /// Throws std::runtime_error if the self-pipe cannot be created.
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` with an interest mask. The callback receives the
  /// ready-event mask. Throws std::invalid_argument on a duplicate fd.
  void add(int fd, std::uint32_t interest, Callback cb);
  /// Change the interest mask of a registered fd (no-op mask allowed —
  /// the fd stays registered but is never polled ready).
  void set_interest(int fd, std::uint32_t interest);
  void remove(int fd);
  bool contains(int fd) const { return fds_.count(fd) != 0; }
  std::size_t size() const { return fds_.size(); }

  /// One poll + dispatch round. A negative timeout blocks until an event
  /// (or a wake()); 0 polls without blocking. Returns the number of fds
  /// that had events dispatched (0 on timeout or bare wake). Not
  /// re-entrant.
  int poll_once(std::chrono::nanoseconds timeout);

  /// Interrupt a blocking poll_once from any thread. Coalesces: many
  /// wakes cost one pipe byte until the loop drains it.
  void wake();

 private:
  struct Entry {
    std::uint32_t interest = 0;
    Callback cb;
  };
  ScopedFd wake_rd_, wake_wr_;
  std::map<int, Entry> fds_;  // ordered: deterministic dispatch order
};

}  // namespace dynasparse
