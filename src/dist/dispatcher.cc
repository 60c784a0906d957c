#include "dist/dispatcher.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "util/rng.h"

namespace fairsched::dist {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::string shard_label(std::size_t shard, std::size_t count) {
  return std::to_string(shard) + "/" + std::to_string(count);
}

}  // namespace

std::string shard_artifact_filename(std::size_t shard,
                                    std::size_t shard_count) {
  return "shard-" + std::to_string(shard) + "-of-" +
         std::to_string(shard_count) + ".json";
}

Dispatcher::Dispatcher(std::vector<std::unique_ptr<WorkerTransport>> workers,
                       DispatchOptions options, DispatchLog* log)
    : workers_(std::move(workers)), options_(std::move(options)), log_(log) {
  if (workers_.empty()) {
    throw std::invalid_argument("Dispatcher: need at least one worker");
  }
  for (const auto& worker : workers_) {
    if (!worker) {
      throw std::invalid_argument("Dispatcher: null worker transport");
    }
  }
  if (options_.artifact_dir.empty()) {
    throw std::invalid_argument(
        "Dispatcher: artifact_dir is required (artifacts are how a killed "
        "dispatch resumes)");
  }
  if (options_.max_attempts == 0) {
    throw std::invalid_argument("Dispatcher: max_attempts must be >= 1");
  }
  if (options_.speculate && options_.speculate_factor <= 0.0) {
    throw std::invalid_argument(
        "Dispatcher: speculate_factor must be > 0");
  }
}

std::string Dispatcher::artifact_path(std::size_t shard) const {
  return options_.artifact_dir + "/" +
         shard_artifact_filename(shard, shard_count_);
}

double Dispatcher::p50_ms_locked() const {
  if (completed_ms_.empty()) return 0.0;
  std::vector<double> sorted = completed_ms_;
  const std::size_t mid = sorted.size() / 2;
  std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
  return sorted[mid];
}

std::size_t Dispatcher::claimable_shard_locked(
    std::chrono::steady_clock::time_point now, bool* speculative) const {
  *speculative = false;
  bool any_pending = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].state == ShardState::kPending) {
      any_pending = true;
      if (shards_[s].not_before <= now) return s;
    }
  }
  // Speculation only fires with the queue fully drained: a shard sitting
  // out a backoff is still queued work, not a straggler.
  if (!options_.speculate || any_pending) return kNone;
  const double p50 = p50_ms_locked();
  if (p50 <= 0.0) return kNone;  // nothing completed yet: no baseline
  const double threshold = p50 * options_.speculate_factor;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    if (shard.state != ShardState::kRunning || shard.running != 1 ||
        shard.speculated) {
      continue;
    }
    const double elapsed =
        std::chrono::duration<double, std::milli>(now - shard.started)
            .count();
    if (elapsed > threshold) {
      *speculative = true;
      return s;
    }
  }
  return kNone;
}

std::string Dispatcher::validate_artifact(const exp::SweepPlan& plan,
                                          std::size_t shard,
                                          const std::string& payload,
                                          const std::string& worker,
                                          std::size_t attempt,
                                          std::uint64_t* digest) {
  const std::string path = artifact_path(shard);
  std::string problem;
  *digest = 0;
  try {
    const exp::ShardArtifact artifact = exp::parse_shard_artifact(
        payload,
        "artifact for shard " + shard_label(shard, shard_count_) +
            " from " + worker);
    if (artifact.fingerprint != plan.fingerprint) {
      problem = "artifact from " + worker +
                " was produced by a different sweep plan (fingerprint " +
                fingerprint_hex(artifact.fingerprint) + " != plan " +
                fingerprint_hex(plan.fingerprint) + ")";
    } else if (artifact.shard.index != shard ||
               artifact.shard.count != shard_count_) {
      problem = "artifact from " + worker + " covers shard " +
                shard_label(artifact.shard.index, artifact.shard.count) +
                ", expected " + shard_label(shard, shard_count_);
    } else {
      *digest = exp::artifact_determinism_digest(artifact);
    }
  } catch (const std::exception& e) {
    problem = e.what();
  }

  if (!problem.empty()) {
    // Quarantine, never fold: the corrupt bytes are kept next to the
    // artifact slot they failed to fill, for post-mortems.
    const std::string quarantine =
        path + ".quarantined-a" + std::to_string(attempt);
    std::ofstream out(quarantine, std::ios::binary);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.close();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.quarantined;
    }
    if (log_) {
      log_->event("quarantine",
                  {DispatchLog::num("shard", shard),
                   DispatchLog::str("worker", worker),
                   DispatchLog::num("attempt", attempt),
                   DispatchLog::str("file", quarantine),
                   DispatchLog::str("reason", problem)});
    }
  }
  return problem;
}

std::string Dispatcher::write_artifact(std::size_t shard,
                                       const std::string& payload) {
  // Write-then-rename so a dispatch killed mid-write never leaves a
  // half-written file where --resume would find it. A losing duplicate
  // racing this rename is harmless: duplicates are digest-verified
  // identical before either file matters.
  const std::string path = artifact_path(shard);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return "cannot open artifact file for writing: " + tmp;
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out.good()) return "failed writing artifact file: " + tmp;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return "cannot rename artifact into place: " + path + ": " +
           ec.message();
  }
  return "";
}

void Dispatcher::fail_shard_locked(std::size_t shard,
                                   const std::string& worker,
                                   const std::string& detail) {
  ++stats_.failed_attempts;
  Shard& state = shards_[shard];
  if (state.running > 0) {
    // A duplicate of this shard is still in flight: record the failure
    // but do not requeue — the survivor may still win, and a later
    // failure with nothing in flight requeues normally.
    state.state = ShardState::kRunning;
    if (log_) {
      log_->event("fail",
                  {DispatchLog::num("shard", shard),
                   DispatchLog::str("worker", worker),
                   DispatchLog::num("attempt", state.attempts),
                   DispatchLog::str("reason", detail),
                   DispatchLog::str("note", "duplicate still in flight")});
    }
    return;
  }
  state.state = ShardState::kPending;
  state.speculated = false;  // a fresh attempt cycle may speculate again
  if (state.attempts >= options_.max_attempts) {
    if (!fatal_) {
      fatal_ = true;
      fatal_reason_ = "shard " + shard_label(shard, shard_count_) +
                      " failed after " + std::to_string(state.attempts) +
                      " attempt(s); last error: " + detail;
    }
    if (log_) {
      log_->event("give-up", {DispatchLog::num("shard", shard),
                              DispatchLog::str("worker", worker),
                              DispatchLog::num("attempts", state.attempts),
                              DispatchLog::str("reason", detail)});
    }
    return;
  }
  std::size_t exponent = state.attempts > 0 ? state.attempts - 1 : 0;
  if (exponent > 20) exponent = 20;  // the cap clamps anyway; avoid UB
  std::chrono::milliseconds delay = options_.backoff * (std::size_t{1}
                                                        << exponent);
  if (delay > options_.backoff_cap) delay = options_.backoff_cap;
  state.not_before = std::chrono::steady_clock::now() + delay;
  if (log_) {
    log_->event(
        "fail",
        {DispatchLog::num("shard", shard),
         DispatchLog::str("worker", worker),
         DispatchLog::num("attempt", state.attempts),
         DispatchLog::str("reason", detail),
         DispatchLog::num("retry_in_ms",
                          static_cast<std::uint64_t>(delay.count()))});
  }
}

void Dispatcher::worker_loop(std::size_t worker_index,
                             const exp::SweepPlan& plan,
                             const DispatchRequest& request,
                             const Progress& progress) {
  WorkerTransport& transport = *workers_[worker_index];
  std::size_t consecutive_failures = 0;
  bool retired = false;
  while (true) {
    std::size_t shard = kNone;
    std::size_t attempt = 0;
    bool speculative = false;
    double spec_elapsed_ms = 0.0;
    double spec_threshold_ms = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (fatal_ || done_count_ == shard_count_) break;
        const auto now = std::chrono::steady_clock::now();
        shard = claimable_shard_locked(now, &speculative);
        if (shard != kNone) break;
        // Nothing claimable: wake at the earliest backoff gate or
        // speculation threshold, or on a completion / requeue / abort
        // notification (this wait is the "work-stealing" idle state — the
        // first woken worker claims the next shard, whoever ran its
        // previous attempt).
        auto wake = std::chrono::steady_clock::time_point::max();
        bool any_pending = false;
        for (const Shard& s : shards_) {
          if (s.state == ShardState::kPending) {
            any_pending = true;
            wake = std::min(wake, s.not_before);
          }
        }
        if (options_.speculate && !any_pending) {
          const double p50 = p50_ms_locked();
          if (p50 > 0.0) {
            const auto threshold =
                std::chrono::milliseconds(static_cast<std::int64_t>(
                    p50 * options_.speculate_factor) +
                    1);
            for (const Shard& s : shards_) {
              if (s.state == ShardState::kRunning && s.running == 1 &&
                  !s.speculated) {
                wake = std::min(wake, s.started + threshold);
              }
            }
          }
        }
        if (wake == std::chrono::steady_clock::time_point::max()) {
          cv_.wait(lock);
        } else {
          cv_.wait_until(lock, wake);
        }
      }
      if (shard == kNone) break;
      Shard& claimed = shards_[shard];
      claimed.state = ShardState::kRunning;
      if (speculative) {
        // Duplicate of the attempt already in flight: never counts
        // toward max_attempts.
        claimed.speculated = true;
        attempt = claimed.attempts;
        ++stats_.speculative;
        spec_elapsed_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() -
                              claimed.started)
                              .count();
        spec_threshold_ms = p50_ms_locked() * options_.speculate_factor;
      } else {
        attempt = ++claimed.attempts;
      }
      if (claimed.running == 0) {
        claimed.started = std::chrono::steady_clock::now();
      }
      ++claimed.running;
      claimed.running_workers.push_back(worker_index);
      ++stats_.attempts;
    }

    if (log_) {
      if (speculative) {
        log_->event(
            "speculate",
            {DispatchLog::num("shard", shard),
             DispatchLog::str("worker", transport.name()),
             DispatchLog::num("attempt", attempt),
             DispatchLog::num("elapsed_ms", static_cast<std::uint64_t>(
                                                spec_elapsed_ms)),
             DispatchLog::num("threshold_ms", static_cast<std::uint64_t>(
                                                  spec_threshold_ms))});
      } else {
        log_->event("assign", {DispatchLog::num("shard", shard),
                               DispatchLog::str("worker", transport.name()),
                               DispatchLog::num("attempt", attempt)});
      }
    }
    DispatchRequest attempt_request = request;
    attempt_request.shard = shard;
    attempt_request.shard_count = shard_count_;
    if (transport.thread_override() !=
        WorkerTransport::kNoThreadOverride) {
      attempt_request.threads = transport.thread_override();
    }

    const auto attempt_started = std::chrono::steady_clock::now();
    WorkerTransport::Outcome outcome;
    bool transport_broken = false;
    try {
      outcome = transport.run_shard(attempt_request, options_.shard_timeout);
    } catch (const std::exception& e) {
      outcome.status = WorkerTransport::Outcome::Status::kFailed;
      outcome.detail = std::string("transport error: ") + e.what();
      transport_broken = true;
    }
    const double attempt_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - attempt_started)
            .count();

    std::string failure;
    std::uint64_t digest = 0;
    if (outcome.status == WorkerTransport::Outcome::Status::kArtifact) {
      failure = validate_artifact(plan, shard, outcome.payload,
                                  transport.name(), attempt, &digest);
    } else if (outcome.detail.empty()) {
      failure = outcome.status == WorkerTransport::Outcome::Status::kTimeout
                    ? "attempt timed out"
                    : "attempt failed";
    } else {
      failure = outcome.detail;
    }

    // Leave the shard's in-flight set exactly once, then classify what
    // this attempt's ending means for the shard.
    enum class Result { kWin, kLoss, kMismatch, kAbandoned, kFail };
    Result result;
    std::uint64_t expected_digest = 0;
    std::vector<std::size_t> to_cancel;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Shard& state = shards_[shard];
      auto self = std::find(state.running_workers.begin(),
                            state.running_workers.end(), worker_index);
      if (self != state.running_workers.end()) {
        state.running_workers.erase(self);
      }
      if (state.running > 0) --state.running;
      if (failure.empty()) {
        if (state.state != ShardState::kDone) {
          // First valid artifact wins, duplicate or not.
          state.state = ShardState::kDone;
          state.digest = digest;
          to_cancel = state.running_workers;
          result = Result::kWin;
        } else if (state.digest != digest) {
          expected_digest = state.digest;
          result = Result::kMismatch;
        } else {
          result = Result::kLoss;
        }
      } else {
        result = state.state == ShardState::kDone ? Result::kAbandoned
                                                  : Result::kFail;
      }
    }

    if (result == Result::kWin) {
      failure = write_artifact(shard, outcome.payload);
      if (failure.empty()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++done_count_;
          completed_ms_.push_back(attempt_ms);
        }
        if (log_) {
          log_->event(
              "complete",
              {DispatchLog::num("shard", shard),
               DispatchLog::str("worker", transport.name()),
               DispatchLog::num("attempt", attempt),
               DispatchLog::str("file", shard_artifact_filename(
                                            shard, shard_count_)),
               DispatchLog::str("speculative",
                                speculative ? "true" : "false")});
        }
        if (progress) {
          progress("shard " + shard_label(shard, shard_count_) + " via " +
                   transport.name());
        }
        consecutive_failures = 0;
        cv_.notify_all();
        // Losing duplicates are canceled outside the lock: their workers
        // free up immediately instead of running a dead attempt out.
        for (const std::size_t loser : to_cancel) {
          workers_[loser]->cancel_inflight();
        }
        continue;
      }
      // The artifact could not be persisted: surrender the win and fall
      // through to the failure path.
      std::lock_guard<std::mutex> lock(mu_);
      shards_[shard].state = ShardState::kRunning;
      result = Result::kFail;
    }

    if (result == Result::kLoss) {
      // The duplicate finished anyway and its artifact is digest-identical
      // to the winner's: the determinism contract held. Not a failure.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.duplicate_losses;
      }
      if (log_) {
        log_->event("duplicate-loss",
                    {DispatchLog::num("shard", shard),
                     DispatchLog::str("worker", transport.name()),
                     DispatchLog::num("attempt", attempt)});
      }
      consecutive_failures = 0;
      cv_.notify_all();
      continue;
    }

    if (result == Result::kMismatch) {
      // Nondeterministic worker output: the duplicate diverged from the
      // accepted artifact. Quarantine both and abort loudly — folding
      // either would silently break the byte-identical contract.
      const std::string path = artifact_path(shard);
      const std::string duplicate_quarantine =
          path + ".quarantined-duplicate";
      {
        std::ofstream out(duplicate_quarantine, std::ios::binary);
        out.write(outcome.payload.data(),
                  static_cast<std::streamsize>(outcome.payload.size()));
      }
      const std::string winner_quarantine = path + ".quarantined-divergent";
      std::error_code ec;
      std::filesystem::rename(path, winner_quarantine, ec);
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.quarantined += 2;
        if (!fatal_) {
          fatal_ = true;
          fatal_reason_ =
              "speculative duplicate of shard " +
              shard_label(shard, shard_count_) + " from " +
              transport.name() + " diverged from the accepted artifact "
              "(determinism digest " + fingerprint_hex(digest) + " != " +
              fingerprint_hex(expected_digest) +
              "): worker output is nondeterministic; both artifacts "
              "quarantined";
        }
      }
      if (log_) {
        log_->event("duplicate-mismatch",
                    {DispatchLog::num("shard", shard),
                     DispatchLog::str("worker", transport.name()),
                     DispatchLog::str("digest", fingerprint_hex(digest)),
                     DispatchLog::str("expected",
                                      fingerprint_hex(expected_digest)),
                     DispatchLog::str("duplicate_file",
                                      duplicate_quarantine),
                     DispatchLog::str("winner_file", winner_quarantine)});
      }
      cv_.notify_all();
      continue;  // the loop observes fatal_ and exits
    }

    if (result == Result::kAbandoned) {
      // This attempt lost a speculation race and was canceled (or died on
      // its own) after the shard completed elsewhere. Routine, not a
      // worker failure.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.duplicate_canceled;
      }
      if (log_) {
        log_->event("duplicate-abandoned",
                    {DispatchLog::num("shard", shard),
                     DispatchLog::str("worker", transport.name()),
                     DispatchLog::str("reason", failure)});
      }
      cv_.notify_all();
      if (transport_broken) {
        retired = true;
        break;
      }
      continue;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      fail_shard_locked(shard, transport.name(), failure);
    }
    cv_.notify_all();
    ++consecutive_failures;
    if (transport_broken ||
        consecutive_failures >= options_.max_worker_failures) {
      retired = true;
      break;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (retired) {
    ++stats_.retired_workers;
    if (log_) {
      log_->event("worker-retired",
                  {DispatchLog::str("worker", transport.name()),
                   DispatchLog::num("consecutive_failures",
                                    consecutive_failures)});
    }
  }
  --active_workers_;
  if (active_workers_ == 0 && done_count_ < shard_count_ && !fatal_) {
    fatal_ = true;
    fatal_reason_ = "every worker retired with " +
                    std::to_string(shard_count_ - done_count_) +
                    " shard(s) outstanding";
  }
  cv_.notify_all();
}

exp::MergedSweep Dispatcher::run(const exp::SweepPlan& plan,
                                 const DispatchRequest& request,
                                 const Progress& progress) {
  if (!plan.shard.whole()) {
    throw std::invalid_argument(
        "Dispatcher: the plan must be a whole-run plan; the dispatcher "
        "does its own sharding");
  }
  if (request.fingerprint != plan.fingerprint) {
    throw std::invalid_argument(
        "Dispatcher: the request's fingerprint does not match the plan — "
        "the request args would not reproduce this sweep");
  }
  shard_count_ =
      options_.shard_count ? options_.shard_count : workers_.size();
  shards_.assign(shard_count_, Shard{});
  const auto now = std::chrono::steady_clock::now();
  for (Shard& shard : shards_) shard.not_before = now;
  completed_ms_.clear();
  done_count_ = 0;
  fatal_ = false;
  fatal_reason_.clear();
  stats_ = DispatchStats{};
  stats_.shard_count = shard_count_;

  std::filesystem::create_directories(options_.artifact_dir);
  if (log_) {
    log_->event(
        "dispatch",
        {DispatchLog::str("fingerprint", fingerprint_hex(plan.fingerprint)),
         DispatchLog::num("shards", shard_count_),
         DispatchLog::num("workers", workers_.size()),
         DispatchLog::str("resume", options_.resume ? "true" : "false"),
         DispatchLog::str("speculate",
                          options_.speculate ? "true" : "false"),
         DispatchLog::str("artifact_dir", options_.artifact_dir)});
  }

  if (options_.resume) {
    // Resume pre-pass: whatever the artifact directory already holds is
    // re-validated against *this* plan; valid shards are reused, invalid
    // files are quarantined and their shards re-run.
    for (std::size_t s = 0; s < shard_count_; ++s) {
      const std::string path = artifact_path(s);
      if (!std::filesystem::exists(path)) continue;
      std::string problem;
      try {
        const exp::ShardArtifact artifact = exp::load_shard_artifact(path);
        if (artifact.fingerprint != plan.fingerprint) {
          problem = "fingerprint " + fingerprint_hex(artifact.fingerprint) +
                    " does not match plan " +
                    fingerprint_hex(plan.fingerprint);
        } else if (artifact.shard.index != s ||
                   artifact.shard.count != shard_count_) {
          problem =
              "covers shard " +
              shard_label(artifact.shard.index, artifact.shard.count) +
              ", expected " + shard_label(s, shard_count_);
        }
      } catch (const std::exception& e) {
        problem = e.what();
      }
      if (problem.empty()) {
        shards_[s].state = ShardState::kDone;
        ++done_count_;
        ++stats_.resumed;
        if (log_) {
          log_->event("resume-reuse",
                      {DispatchLog::num("shard", s),
                       DispatchLog::str(
                           "file",
                           shard_artifact_filename(s, shard_count_))});
        }
      } else {
        const std::string quarantine = path + ".quarantined-resume";
        std::error_code ec;
        std::filesystem::rename(path, quarantine, ec);
        ++stats_.quarantined;
        if (log_) {
          log_->event("quarantine",
                      {DispatchLog::num("shard", s),
                       DispatchLog::str("worker", "resume-scan"),
                       DispatchLog::str("file", quarantine),
                       DispatchLog::str("reason", problem)});
        }
      }
    }
  }

  if (done_count_ < shard_count_) {
    active_workers_ = workers_.size();
    std::vector<std::thread> threads;
    threads.reserve(workers_.size());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      threads.emplace_back([this, w, &plan, &request, &progress] {
        worker_loop(w, plan, request, progress);
      });
    }
    for (std::thread& thread : threads) thread.join();
    if (fatal_) {
      if (log_) {
        log_->event("abort", {DispatchLog::str("reason", fatal_reason_)});
      }
      throw std::runtime_error("dispatch failed: " + fatal_reason_);
    }
  }

  std::vector<exp::ShardArtifact> artifacts;
  artifacts.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    artifacts.push_back(exp::load_shard_artifact(artifact_path(s)));
  }
  exp::MergedSweep merged = exp::merge_shard_artifacts(std::move(artifacts));
  if (log_) {
    log_->event(
        "done",
        {DispatchLog::num("shards", shard_count_),
         DispatchLog::num("resumed", stats_.resumed),
         DispatchLog::num("attempts", stats_.attempts),
         DispatchLog::num("failed_attempts", stats_.failed_attempts),
         DispatchLog::num("quarantined", stats_.quarantined),
         DispatchLog::num("speculative", stats_.speculative),
         DispatchLog::num("duplicate_losses", stats_.duplicate_losses)});
  }
  return merged;
}

void write_dispatch_plan_json(std::ostream& out, const exp::SweepPlan& plan,
                              std::size_t shard_count,
                              const std::vector<std::string>& worker_names) {
  if (!plan.shard.whole()) {
    throw std::invalid_argument(
        "write_dispatch_plan_json: the plan must be a whole-run plan");
  }
  if (shard_count == 0) {
    throw std::invalid_argument(
        "write_dispatch_plan_json: shard_count must be >= 1");
  }
  if (worker_names.empty()) {
    throw std::invalid_argument(
        "write_dispatch_plan_json: need at least one worker");
  }
  const std::size_t num_families = plan.num_groups * plan.num_workloads;

  out << "{\n";
  out << "  \"format\": \"fairsched-dispatch-plan\",\n";
  out << "  \"version\": " << kDispatchProtocolVersion << ",\n";
  out << "  \"sweep\": \"" << plan.spec.name << "\",\n";
  out << "  \"fingerprint\": \"" << fingerprint_hex(plan.fingerprint)
      << "\",\n";
  out << "  \"shard_count\": " << shard_count << ",\n";
  out << "  \"workers\": [";
  for (std::size_t w = 0; w < worker_names.size(); ++w) {
    if (w) out << ", ";
    out << '"' << worker_names[w] << '"';
  }
  out << "],\n";
  out << "  \"note\": \"workers are the round-robin seeding only; the "
         "live queue reassigns shards to whichever worker idles first\",\n";
  out << "  \"shards\": [\n";
  for (std::size_t s = 0; s < shard_count; ++s) {
    std::vector<std::size_t> families;
    for (std::size_t f = 0; f < num_families; ++f) {
      if (f % shard_count == s) families.push_back(f);
    }
    std::size_t tasks = 0;
    for (std::size_t t = 0; t < plan.num_tasks; ++t) {
      if (plan.family_of_task(t) % shard_count == s) ++tasks;
    }
    std::size_t cells = 0;
    for (std::size_t c = 0; c < plan.num_cells(); ++c) {
      const std::size_t point = c / (plan.num_workloads * plan.num_policies);
      const std::size_t workload =
          (c / plan.num_policies) % plan.num_workloads;
      const std::size_t family =
          plan.group_of[point] * plan.num_workloads + workload;
      if (family % shard_count == s) ++cells;
    }
    std::string family_key;
    for (const std::size_t f : families) {
      family_key += std::to_string(f) + ",";
    }
    // The plan fingerprint's hash (util/rng.h) folding the whole-plan
    // fingerprint with this shard's family set: a stable per-shard
    // identity for humans diffing two dispatch plans.
    const std::uint64_t shard_fingerprint =
        hash_fnv1a64(fingerprint_hex(plan.fingerprint) + " " +
              shard_label(s, shard_count) + " families=" + family_key);
    out << "    {\"shard\": " << s << ", \"worker\": \""
        << worker_names[s % worker_names.size()] << "\", \"artifact\": \""
        << shard_artifact_filename(s, shard_count)
        << "\", \"shard_fingerprint\": \""
        << fingerprint_hex(shard_fingerprint) << "\", \"families\": [";
    for (std::size_t i = 0; i < families.size(); ++i) {
      if (i) out << ", ";
      out << families[i];
    }
    out << "], \"tasks\": " << tasks << ", \"cells\": " << cells << "}"
        << (s + 1 < shard_count ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace fairsched::dist
