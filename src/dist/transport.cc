#include "dist/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace fairsched::dist {

namespace {

// A worker dying mid-request must surface as a write error on its stdin
// pipe, not kill the dispatcher with SIGPIPE.
void ignore_sigpipe_once() {
  static const int ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return 0;
  }();
  (void)ignored;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string exit_description(int status) {
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "signal " + std::to_string(WTERMSIG(status));
  }
  return "unknown wait status " + std::to_string(status);
}

std::string argv_description(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& arg : argv) {
    if (!out.empty()) out += ' ';
    out += arg;
  }
  return out;
}

// The child's end of a pipe becomes its stdin or stdout. dup2 clears
// O_CLOEXEC on the copy; an end that already sits on its target (fd 0 or
// 1 was free in the parent) keeps the flag unless cleared here.
void become_stdio(int fd, int target) {
  if (fd == target) {
    ::fcntl(fd, F_SETFD, 0);
  } else {
    ::dup2(fd, target);
  }
}

// fork/exec with stdin/stdout pipes (stderr inherited). Returns the pid
// and the dispatcher-side fds (both nonblocking), or -1 on fork failure.
// Every pipe end is O_CLOEXEC from birth: workers fork concurrently from
// the dispatcher's threads, and a child must not inherit the pipes of
// another worker's session, or that worker's death would never read as
// EOF.
pid_t spawn_worker(const std::vector<std::string>& argv, int* in_fd,
                   int* out_fd) {
  int in_pipe[2];   // dispatcher -> worker stdin
  int out_pipe[2];  // worker stdout -> dispatcher
  if (::pipe2(in_pipe, O_CLOEXEC) < 0) {
    throw std::runtime_error("spawn_worker: pipe2() failed");
  }
  if (::pipe2(out_pipe, O_CLOEXEC) < 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("spawn_worker: pipe2() failed");
  }
  std::vector<std::string> args = argv;
  std::vector<char*> exec_argv;
  exec_argv.reserve(args.size() + 1);
  for (std::string& arg : args) exec_argv.push_back(arg.data());
  exec_argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return -1;
  }
  if (pid == 0) {
    // in_pipe was created first, so out_pipe[1] is never fd 0 and the
    // first call cannot clobber it.
    become_stdio(in_pipe[0], STDIN_FILENO);
    become_stdio(out_pipe[1], STDOUT_FILENO);
    ::execvp(exec_argv[0], exec_argv.data());
    std::perror("execvp");
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  *in_fd = in_pipe[1];
  *out_fd = out_pipe[0];
  set_nonblocking(*in_fd);
  set_nonblocking(*out_fd);
  return pid;
}

// Offset of the first session frame in `buffer`: the earliest position
// (start of buffer or of a line) where a known frame magic begins. npos
// when none is visible yet — ssh banner noise may still be streaming in.
std::size_t first_frame_offset(const std::string& buffer) {
  static const char* kMagics[] = {"fairsched-session-hello ",
                                  "fairsched-shard-artifact "};
  std::size_t best = std::string::npos;
  for (const char* magic : kMagics) {
    if (buffer.rfind(magic, 0) == 0) return 0;
    const std::size_t found = buffer.find(std::string("\n") + magic);
    if (found != std::string::npos) best = std::min(best, found + 1);
  }
  return best;
}

}  // namespace

WorkerTransport::Outcome run_worker_process(
    const std::vector<std::string>& argv, const DispatchRequest& request,
    std::chrono::milliseconds timeout) {
  using Outcome = WorkerTransport::Outcome;
  if (argv.empty()) {
    throw std::invalid_argument("run_worker_process: empty argv");
  }
  ignore_sigpipe_once();

  std::ostringstream request_stream;
  write_dispatch_request(request_stream, request);
  const std::string request_bytes = request_stream.str();

  int write_fd = -1;
  int read_fd = -1;
  const pid_t pid = spawn_worker(argv, &write_fd, &read_fd);
  if (pid < 0) {
    throw std::runtime_error("run_worker_process: fork() failed");
  }

  const auto started = std::chrono::steady_clock::now();
  const bool bounded = timeout.count() > 0;
  const auto deadline = started + timeout;

  // One poll loop drives both directions so a worker that starts writing
  // before it has drained its stdin cannot deadlock against us.
  std::string output;
  std::size_t written = 0;
  bool write_open = true;
  bool read_open = true;
  bool timed_out = false;
  char buffer[65536];
  while (read_open) {
    if (write_open && written == request_bytes.size()) {
      ::close(write_fd);
      write_open = false;
    }
    struct pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds].fd = read_fd;
    fds[nfds].events = POLLIN;
    ++nfds;
    if (write_open) {
      fds[nfds].fd = write_fd;
      fds[nfds].events = POLLOUT;
      ++nfds;
    }
    int wait_ms = -1;
    if (bounded) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      wait_ms = static_cast<int>(std::max<std::int64_t>(0,
                                                        remaining.count()));
    }
    const int ready = ::poll(fds, nfds, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {  // deadline expired
      timed_out = true;
      break;
    }
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      const ssize_t n = ::read(read_fd, buffer, sizeof(buffer));
      if (n > 0) {
        output.append(buffer, static_cast<std::size_t>(n));
      } else if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        read_open = false;
      }
    }
    if (write_open && nfds > 1 &&
        (fds[1].revents & (POLLOUT | POLLHUP | POLLERR))) {
      const ssize_t n = ::write(write_fd, request_bytes.data() + written,
                                request_bytes.size() - written);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        // Worker closed stdin early (possibly dying); its exit status or
        // missing frame reports the failure.
        ::close(write_fd);
        write_open = false;
      }
    }
  }
  if (write_open) ::close(write_fd);
  ::close(read_fd);

  const std::string source =
      "worker process `" + argv_description(argv) + "`";
  if (timed_out) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return Outcome{Outcome::Status::kTimeout, "",
                   source + " exceeded the " +
                       std::to_string(timeout.count()) +
                       "ms shard timeout and was killed"};
  }

  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    return Outcome{Outcome::Status::kFailed, "",
                   source + ": waitpid failed"};
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Outcome{Outcome::Status::kFailed, "",
                   source + " failed (" + exit_description(status) + ")"};
  }

  try {
    ArtifactFrame frame = parse_artifact_frame(output, source);
    if (frame.shard != request.shard ||
        frame.shard_count != request.shard_count) {
      return Outcome{Outcome::Status::kFailed, "",
                     source + " returned shard " +
                         std::to_string(frame.shard) + "/" +
                         std::to_string(frame.shard_count) +
                         " but was asked for " +
                         std::to_string(request.shard) + "/" +
                         std::to_string(request.shard_count)};
    }
    return Outcome{Outcome::Status::kArtifact, std::move(frame.payload),
                   ""};
  } catch (const std::exception& e) {
    return Outcome{Outcome::Status::kFailed, "", e.what()};
  }
}

PersistentTransport::PersistentTransport(
    std::string name, std::vector<std::string> session_argv,
    std::vector<std::string> fallback_argv, DispatchLog* log)
    : name_(std::move(name)),
      session_argv_(std::move(session_argv)),
      fallback_argv_(std::move(fallback_argv)),
      log_(log) {
  if (session_argv_.empty() || fallback_argv_.empty()) {
    throw std::invalid_argument("PersistentTransport: empty argv");
  }
}

PersistentTransport::~PersistentTransport() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ < 0) return;
  if (in_fd_ >= 0) {
    // Polite shutdown: ask the worker to exit on its own before reaping.
    std::ostringstream bye;
    write_session_goodbye(bye);
    const std::string bytes = bye.str();
    const ssize_t ignored = ::write(in_fd_, bytes.data(), bytes.size());
    (void)ignored;
    ::close(in_fd_);
    in_fd_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      break;
    }
    ::usleep(10 * 1000);
  }
  pid_ = -1;
}

bool PersistentTransport::open_session_locked(std::string* error) {
  int in_fd = -1;
  int out_fd = -1;
  const pid_t pid = spawn_worker(session_argv_, &in_fd, &out_fd);
  if (pid < 0) {
    *error = "fork() failed spawning session worker `" +
             argv_description(session_argv_) + "`";
    return false;
  }
  pid_ = pid;
  in_fd_ = in_fd;
  out_fd_ = out_fd;
  buffer_.clear();
  hello_seen_ = false;
  ++stats_.opens;
  if (log_) {
    log_->event("session-open",
                {DispatchLog::str("worker", name_),
                 DispatchLog::num("pid", static_cast<std::uint64_t>(pid)),
                 DispatchLog::num("opens", stats_.opens)});
  }
  return true;
}

void PersistentTransport::teardown_locked(const char* reason,
                                          bool kill_child) {
  if (pid_ < 0) return;
  if (in_fd_ >= 0) ::close(in_fd_);
  if (out_fd_ >= 0) ::close(out_fd_);
  in_fd_ = -1;
  out_fd_ = -1;
  if (kill_child) ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  if (log_) {
    log_->event("session-close", {DispatchLog::str("worker", name_),
                                  DispatchLog::str("reason", reason)});
  }
  pid_ = -1;
  buffer_.clear();
  hello_seen_ = false;
}

WorkerTransport::Outcome PersistentTransport::run_shard(
    const DispatchRequest& request, std::chrono::milliseconds timeout) {
  using Outcome = WorkerTransport::Outcome;
  ignore_sigpipe_once();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (v1_peer_) {
      ++stats_.fallback;
    }
  }
  if (session_stats().v1_peer) {
    return run_worker_process(fallback_argv_, request, timeout);
  }

  const auto started = std::chrono::steady_clock::now();
  const bool bounded = timeout.count() > 0;
  const auto deadline = started + timeout;
  const std::string source = "session worker `" +
                             argv_description(session_argv_) + "` (" +
                             name_ + ")";

  int in_fd = -1;
  int out_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_requested_ = false;
    if (pid_ < 0) {
      std::string error;
      if (!open_session_locked(&error)) {
        return Outcome{Outcome::Status::kFailed, "", error};
      }
    } else if (log_) {
      log_->event("session-reuse",
                  {DispatchLog::str("worker", name_),
                   DispatchLog::num("served", stats_.served)});
    }
    inflight_ = true;
    in_fd = in_fd_;
    out_fd = out_fd_;
  }
  // Clears inflight_ on every return path so cancel_inflight never kills
  // an idle session.
  auto finish = [this](Outcome outcome) {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ = false;
    return outcome;
  };

  std::ostringstream request_stream;
  write_dispatch_request(request_stream, request);
  const std::string request_bytes = request_stream.str();
  std::size_t written = 0;
  bool write_failed = false;
  bool eof = false;
  char chunk[65536];

  while (true) {
    // Consume every complete frame already buffered before blocking again.
    for (;;) {
      bool hello_pending;
      {
        std::lock_guard<std::mutex> lock(mu_);
        hello_pending = !hello_seen_;
      }
      if (hello_pending) {
        // Tolerate ssh banner noise before the first frame of a session:
        // drop bytes up to the first recognizable frame magic.
        const std::size_t start = first_frame_offset(buffer_);
        if (start == std::string::npos) break;
        if (start > 0) buffer_.erase(0, start);
      }
      std::size_t extent = 0;
      bool complete = false;
      try {
        complete = scan_session_frame(buffer_, 0, &extent);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        teardown_locked("malformed frame", true);
        inflight_ = false;
        return Outcome{Outcome::Status::kFailed, "",
                       source + ": " + e.what()};
      }
      if (!complete) break;
      const std::string frame_text = buffer_.substr(0, extent);
      buffer_.erase(0, extent);

      if (frame_text.rfind("fairsched-session-hello ", 0) == 0) {
        try {
          std::istringstream frame_in(frame_text);
          const SessionHello hello = read_session_hello(frame_in);
          std::size_t opens = 0;
          {
            std::lock_guard<std::mutex> lock(mu_);
            hello_seen_ = true;
            stats_.hello_threads = hello.threads;
            opens = stats_.opens;
          }
          if (log_) {
            log_->event("session-hello",
                        {DispatchLog::str("worker", name_),
                         DispatchLog::num("threads", hello.threads),
                         DispatchLog::num("opens", opens)});
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu_);
          teardown_locked("bad hello", true);
          inflight_ = false;
          return Outcome{Outcome::Status::kFailed, "",
                         source + ": " + e.what()};
        }
        continue;
      }

      try {
        ArtifactFrame frame = parse_artifact_frame(frame_text, source);
        bool v1_detected = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!hello_seen_) {
            // Binary skew: a v1 worker parses the request but never sends
            // a session hello, answers one artifact, and exits. Use the
            // artifact; later attempts spawn per attempt.
            v1_peer_ = true;
            stats_.v1_peer = true;
            ++stats_.fallback;
            v1_detected = true;
          } else {
            ++stats_.served;
            for (const auto& [stat_name, value] : frame.stats) {
              if (stat_name == "cache_hits") stats_.cache_hits += value;
              if (stat_name == "cache_misses") stats_.cache_misses += value;
              if (stat_name == "replayed") stats_.replayed += value;
            }
          }
        }
        if (v1_detected) {
          if (log_) {
            log_->event("session-v1-fallback",
                        {DispatchLog::str("worker", name_)});
          }
          std::lock_guard<std::mutex> lock(mu_);
          teardown_locked("v1 peer (no session hello)", false);
        }
        if (frame.shard != request.shard ||
            frame.shard_count != request.shard_count) {
          std::lock_guard<std::mutex> lock(mu_);
          teardown_locked("shard echo mismatch", true);
          inflight_ = false;
          return Outcome{Outcome::Status::kFailed, "",
                         source + " returned shard " +
                             std::to_string(frame.shard) + "/" +
                             std::to_string(frame.shard_count) +
                             " but was asked for " +
                             std::to_string(request.shard) + "/" +
                             std::to_string(request.shard_count)};
        }
        return finish(Outcome{Outcome::Status::kArtifact,
                              std::move(frame.payload), ""});
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        teardown_locked("bad artifact frame", true);
        inflight_ = false;
        return Outcome{Outcome::Status::kFailed, "",
                       source + ": " + e.what()};
      }
    }

    if (eof) {
      std::lock_guard<std::mutex> lock(mu_);
      const bool canceled = cancel_requested_;
      teardown_locked(canceled ? "canceled" : "eof", true);
      inflight_ = false;
      if (canceled) {
        return Outcome{Outcome::Status::kFailed, "",
                       source + " canceled (losing speculative duplicate)"};
      }
      return Outcome{Outcome::Status::kFailed, "",
                     source + " session ended before an artifact frame"};
    }

    struct pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds].fd = out_fd;
    fds[nfds].events = POLLIN;
    ++nfds;
    const bool want_write = !write_failed && written < request_bytes.size();
    if (want_write) {
      fds[nfds].fd = in_fd;
      fds[nfds].events = POLLOUT;
      ++nfds;
    }
    int wait_ms = -1;
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      wait_ms =
          static_cast<int>(std::max<std::int64_t>(0, remaining.count()));
    }
    const int ready = ::poll(fds, nfds, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::lock_guard<std::mutex> lock(mu_);
      teardown_locked("poll failed", true);
      inflight_ = false;
      return Outcome{Outcome::Status::kFailed, "",
                     source + ": poll failed (" +
                         std::string(std::strerror(errno)) + ")"};
    }
    if (ready == 0) {  // deadline expired
      std::lock_guard<std::mutex> lock(mu_);
      teardown_locked("shard timeout", true);
      inflight_ = false;
      return Outcome{Outcome::Status::kTimeout, "",
                     source + " exceeded the " +
                         std::to_string(timeout.count()) +
                         "ms shard timeout; session killed (respawns on "
                         "the next attempt)"};
    }
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      const ssize_t n = ::read(out_fd, chunk, sizeof(chunk));
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        // The frame-extraction pass at the top of the loop still gets one
        // look at whatever is buffered before the eof branch fires.
        eof = true;
      }
    }
    if (want_write && nfds > 1 &&
        (fds[1].revents & (POLLOUT | POLLHUP | POLLERR))) {
      const ssize_t n = ::write(in_fd, request_bytes.data() + written,
                                request_bytes.size() - written);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        // Worker closed its stdin (dying); the read side reports the
        // failure.
        write_failed = true;
      }
    }
  }
}

void PersistentTransport::cancel_inflight() {
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ && pid_ > 0) {
    cancel_requested_ = true;
    ::kill(pid_, SIGKILL);
  }
}

std::string PersistentTransport::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  if (stats_.v1_peer) {
    out << "v1 peer (no session support): " << stats_.fallback
        << " shard(s) spawn-per-attempt";
    return out.str();
  }
  out << stats_.served << " shard(s) over " << stats_.opens
      << " session(s), cache " << stats_.cache_hits << " hit(s) / "
      << stats_.cache_misses << " miss(es)";
  if (stats_.replayed > 0) {
    out << ", " << stats_.replayed << " replayed run(s)";
  }
  if (stats_.hello_threads > 0) {
    out << ", hw threads " << stats_.hello_threads;
  }
  return out.str();
}

PersistentTransport::SessionStats PersistentTransport::session_stats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PersistentTransport::hello_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.hello_threads;
}

}  // namespace fairsched::dist
