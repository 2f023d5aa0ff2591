#include "net/event_loop.hpp"

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/errors.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

namespace dynasparse {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetSetupError(what + ": " + std::strerror(errno));
}

}  // namespace

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

EventLoop::EventLoop() {
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw_errno("pipe(wake)");
  wake_rd_.reset(pipefd[0]);
  wake_wr_.reset(pipefd[1]);
  set_nonblocking(wake_rd_.get());
  set_nonblocking(wake_wr_.get());
}

EventLoop::~EventLoop() = default;

void EventLoop::add(int fd, std::uint32_t interest, Callback cb) {
  if (fd < 0) throw std::invalid_argument("EventLoop::add: negative fd");
  auto [it, inserted] = fds_.emplace(fd, Entry{interest, std::move(cb)});
  (void)it;
  if (!inserted)
    throw std::invalid_argument("EventLoop::add: fd " + std::to_string(fd) +
                                " already registered");
}

void EventLoop::set_interest(int fd, std::uint32_t interest) {
  auto it = fds_.find(fd);
  if (it == fds_.end())
    throw std::invalid_argument("EventLoop::set_interest: unknown fd " +
                                std::to_string(fd));
  it->second.interest = interest;
}

void EventLoop::remove(int fd) { fds_.erase(fd); }

int EventLoop::poll_once(std::chrono::nanoseconds timeout) {
  std::vector<pollfd> pfds;
  pfds.reserve(fds_.size() + 1);
  pfds.push_back(pollfd{wake_rd_.get(), POLLIN, 0});
  for (const auto& [fd, entry] : fds_) {
    short events = 0;
    if (entry.interest & kRead) events |= POLLIN;
    if (entry.interest & kWrite) events |= POLLOUT;
    // Registered-but-idle fds still ride along with events == 0 so
    // POLLERR/POLLHUP (always reported) reaches their callback.
    pfds.push_back(pollfd{fd, events, 0});
  }
  // ppoll: poll(2) counts whole milliseconds, too coarse for the
  // server's completion tick.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout.count() / 1000000000);
  ts.tv_nsec = static_cast<long>(timeout.count() % 1000000000);
  int n = ::ppoll(pfds.data(), pfds.size(), timeout.count() < 0 ? nullptr : &ts,
                  nullptr);
  if (n < 0) {
    if (errno == EINTR) return 0;  // signal; caller re-evaluates and retries
    throw_errno("poll");
  }
  if (n == 0) return 0;
  // Drain the wake pipe (coalesced: any number of wake() calls -> one
  // drain).
  if (pfds[0].revents & POLLIN) {
    char buf[64];
    while (::read(wake_rd_.get(), buf, sizeof buf) > 0) {
    }
  }
  int dispatched = 0;
  for (std::size_t i = 1; i < pfds.size(); ++i) {
    if (pfds[i].revents == 0) continue;
    // A prior callback this round may have removed (or replaced) the fd;
    // look it up again rather than trusting the snapshot.
    auto it = fds_.find(pfds[i].fd);
    if (it == fds_.end()) continue;
    std::uint32_t ev = 0;
    if (pfds[i].revents & POLLIN) ev |= kRead;
    if (pfds[i].revents & POLLOUT) ev |= kWrite;
    if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) ev |= kError;
    if (ev == 0) continue;
    ++dispatched;
    // Copy the callback: it may remove its own registration (invalidating
    // `it`) while running.
    Callback cb = it->second.cb;
    cb(ev);
  }
  return dispatched;
}

void EventLoop::wake() {
  char one = 1;
  // Full pipe = a wake is already pending; either way the loop wakes.
  (void)!::write(wake_wr_.get(), &one, 1);
}

}  // namespace dynasparse
