#pragma once

// The worker-transport seam of the distributed dispatcher.
//
// A WorkerTransport runs one attempt of one shard somewhere and reports
// what happened as an Outcome instead of throwing: per-attempt failures
// are routine events the Dispatcher retries, not exceptions. Besides test
// doubles that inject failures in memory, there is one implementation.
//
// PersistentTransport is the protocol-v2 session path, and the only way a
// shard leaves the process: `dispatch` (local and ssh workers alike) and
// `--processes=N` both run one long-lived `shard-worker --session` child
// per worker, which serves every run_shard call over a single connection,
// keeping its in-memory WorkloadCache and parsed plan warm across shards.
// A timeout or protocol error tears the session down (SIGKILL) and the
// next run_shard respawns it. A peer that answers the first request with
// a v1 artifact instead of a session hello is a skewed binary (or the
// one-shot `shard-worker` the dispatch bench points its spawn baseline
// at); the transport then serves every later attempt spawn-per-attempt
// through run_worker_process, which speaks the dist/protocol.h framing
// over the child's stdin/stdout and enforces the deadline with SIGKILL.
// Children inherit stderr, so worker breadcrumbs land in the dispatcher's
// own stderr stream, and nothing else of the dispatcher: every pipe end is
// close-on-exec.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/dispatch_log.h"
#include "dist/protocol.h"

namespace fairsched::dist {

class WorkerTransport {
 public:
  struct Outcome {
    enum class Status {
      kArtifact,  // payload holds the (unvalidated) artifact JSON
      kFailed,    // the attempt failed; detail says how
      kTimeout,   // the deadline expired; the worker process was killed
    };
    Status status = Status::kFailed;
    std::string payload;
    std::string detail;  // diagnostic for the dispatch log
  };

  // Sentinel for thread_override(): keep the dispatcher's request value.
  static constexpr std::size_t kNoThreadOverride =
      static_cast<std::size_t>(-1);

  virtual ~WorkerTransport() = default;

  // Stable display name ("local#0", "ssh:hostb"), used in the dispatch
  // log and the dry-run assignment plan.
  virtual const std::string& name() const = 0;

  // Runs one attempt of request.shard, blocking until it completes, fails
  // or times out (timeout 0 = unbounded). Routine failures come back as
  // Outcomes; a thrown exception means the transport itself is broken and
  // retires this worker.
  virtual Outcome run_shard(const DispatchRequest& request,
                            std::chrono::milliseconds timeout) = 0;

  // Best-effort cancellation of a run_shard in flight on another thread —
  // the dispatcher cancels losing speculative duplicates so their workers
  // free up immediately. Default: no-op (the attempt runs to completion
  // and its outcome is ignored). Must be thread-safe.
  virtual void cancel_inflight() {}

  // One human summary line for the end-of-dispatch per-worker report
  // ("4 shard(s) over 1 session(s), cache 30 hit(s)..."); "" = nothing
  // to report.
  virtual std::string summary() const { return ""; }

  // Per-worker request.threads override applied to every attempt this
  // transport runs. 0 = the worker's own hardware concurrency (the remote
  // default — dist/protocol.h); kNoThreadOverride = keep the dispatcher's
  // value. Set for remote workers dispatched without --worker-threads,
  // whose budget must not be derived from the *local* host's cores.
  void set_thread_override(std::size_t threads) {
    thread_override_ = threads;
  }
  std::size_t thread_override() const { return thread_override_; }

 private:
  std::size_t thread_override_ = kNoThreadOverride;
};

// Spawns `argv`, writes `request` to its stdin, captures stdout until EOF
// or deadline (SIGKILL on expiry), and parses the artifact frame — also
// checking the frame echoes the requested shard. The spawn-per-attempt
// path of a PersistentTransport whose peer turned out to be v1; exposed
// for direct testing against plain commands.
WorkerTransport::Outcome run_worker_process(
    const std::vector<std::string>& argv, const DispatchRequest& request,
    std::chrono::milliseconds timeout);

// One long-lived session worker (protocol v2). `session_argv` spawns the
// resident peer (`program shard-worker --session`, possibly ssh-wrapped);
// `fallback_argv` is the spawn-per-attempt command used after a v1 peer
// is detected. Lifecycle:
//
//   * the session is opened lazily by the first run_shard and reused by
//     every later one; each request is written to the live child and one
//     hello/artifact stream is read back incrementally;
//   * timeout, EOF, or a protocol error tears the session down (SIGKILL)
//     and the attempt reports kTimeout/kFailed — the dispatcher requeues
//     the shard, and the next run_shard (any shard) respawns a fresh
//     session. Remaining shards are never lost with the session;
//   * a first response with no session hello marks the peer v1
//     (binary skew): that artifact is still used, and every later attempt
//     runs through run_worker_process(fallback_argv) instead;
//   * cancel_inflight kills the live child, so a losing speculative
//     duplicate frees its worker immediately (cost: the next shard on
//     this worker starts a cold session);
//   * the destructor sends a goodbye frame and closes the child's stdin,
//     escalating to SIGKILL when the child does not exit promptly.
//
// run_shard must stay single-callered (the dispatcher's one worker thread
// per transport); cancel_inflight is the only concurrent entry point.
class PersistentTransport final : public WorkerTransport {
 public:
  struct SessionStats {
    std::size_t opens = 0;     // sessions spawned, respawns included
    std::size_t served = 0;    // artifacts received over sessions
    std::size_t fallback = 0;  // spawn-per-attempt runs after v1 fallback
    std::size_t hello_threads = 0;  // worker-reported hardware concurrency
    bool v1_peer = false;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t replayed = 0;
  };

  // `log` is optional (session-open/close events) and must outlive the
  // transport when given.
  PersistentTransport(std::string name, std::vector<std::string> session_argv,
                      std::vector<std::string> fallback_argv,
                      DispatchLog* log = nullptr);
  ~PersistentTransport() override;

  const std::string& name() const override { return name_; }
  Outcome run_shard(const DispatchRequest& request,
                    std::chrono::milliseconds timeout) override;
  void cancel_inflight() override;
  std::string summary() const override;

  SessionStats session_stats() const;
  // 0 until the first session hello arrives.
  std::size_t hello_threads() const;

 private:
  // All require mu_ held.
  bool open_session_locked(std::string* error);
  void teardown_locked(const char* reason, bool kill_child);

  std::string name_;
  std::vector<std::string> session_argv_;
  std::vector<std::string> fallback_argv_;
  DispatchLog* log_;

  mutable std::mutex mu_;  // guards everything below (vs cancel_inflight)
  pid_t pid_ = -1;
  int in_fd_ = -1;   // dispatcher -> worker stdin
  int out_fd_ = -1;  // worker stdout -> dispatcher
  std::string buffer_;      // unconsumed session bytes
  bool hello_seen_ = false;  // this session produced its hello frame
  bool inflight_ = false;
  bool cancel_requested_ = false;
  bool v1_peer_ = false;
  SessionStats stats_;
};

}  // namespace fairsched::dist
