// Tests for the distributed dispatch layer (src/dist): the wire
// protocol's round trips and version handshake (v1 one-shot and v2
// session frames, including truncation/skew fuzzing of the incremental
// frame scanner), run_worker_process against real subprocesses, and —
// through a seeded FlakyTransport that drops, delays and corrupts
// artifacts — the dispatcher's convergence guarantee: every failure
// schedule that leaves any worker alive folds to the byte-identical
// merged result of a single-host whole run, and a corrupt artifact is
// quarantined, never folded. Speculative straggler re-execution is
// driven through latched transports (benign duplicate-loss keeps the
// bytes; a divergent duplicate quarantines both artifacts and aborts),
// and PersistentTransport runs end-to-end against the real fairsched_exp
// binary (FAIRSCHED_EXP_BINARY), as do `--processes` and `dispatch`
// through the CLI. Hostile size headers in frames must end in protocol
// errors, and spawned workers must not inherit a live session's pipes.
// Also pins the `dispatch --dry-run`
// assignment plan to tests/golden/dispatch_dry_run.json (regenerate with
// FAIRSCHED_UPDATE_GOLDEN=1).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dist/dispatch_log.h"
#include "dist/dispatcher.h"
#include "dist/protocol.h"
#include "dist/transport.h"
#include "exp/executor.h"
#include "exp/policy_registry.h"
#include "exp/reporter.h"
#include "exp/scenarios.h"
#include "exp/sweep_artifact.h"
#include "exp/sweep_plan.h"
#include "util/cli.h"

namespace fairsched::dist {
namespace {

using exp::build_sweep_plan;
using exp::CsvReporter;
using exp::MergedSweep;
using exp::PolicyRegistry;
using exp::SweepPlan;
using exp::SweepResult;
using exp::SweepShard;
using exp::SweepSpec;
using exp::SweepWorkload;
using exp::ThreadPoolExecutor;

// --- protocol ---------------------------------------------------------------

DispatchRequest sample_request() {
  DispatchRequest request;
  request.fingerprint = 0x0123456789abcdefull;
  request.shard = 2;
  request.shard_count = 5;
  request.threads = 3;
  request.args = {"custom", "--policies=fairshare, roundrobin",
                  "--workload=unit-jobs", "--seed=7"};
  request.config_name = "sweep.config";
  request.config_content = "[sweep]\nname = x\n# with\nblank\n\nlines\n";
  return request;
}

TEST(DispatchProtocol, RequestRoundTripsArgsWithSpacesAndConfigBytes) {
  const DispatchRequest request = sample_request();
  std::stringstream wire;
  write_dispatch_request(wire, request);
  const DispatchRequest back = read_dispatch_request(wire);
  EXPECT_EQ(back.fingerprint, request.fingerprint);
  EXPECT_EQ(back.shard, request.shard);
  EXPECT_EQ(back.shard_count, request.shard_count);
  EXPECT_EQ(back.threads, request.threads);
  EXPECT_EQ(back.args, request.args);
  EXPECT_EQ(back.config_name, request.config_name);
  EXPECT_EQ(back.config_content, request.config_content);
}

TEST(DispatchProtocol, RequestWithoutConfigRoundTrips) {
  DispatchRequest request = sample_request();
  request.config_name.clear();
  request.config_content.clear();
  std::stringstream wire;
  write_dispatch_request(wire, request);
  const DispatchRequest back = read_dispatch_request(wire);
  EXPECT_EQ(back.args, request.args);
  EXPECT_TRUE(back.config_name.empty());
  EXPECT_TRUE(back.config_content.empty());
}

TEST(DispatchProtocol, RequestRejectsNewlinesInArgs) {
  DispatchRequest request = sample_request();
  request.args.push_back("evil\narg");
  std::stringstream wire;
  EXPECT_THROW(write_dispatch_request(wire, request),
               std::invalid_argument);
}

TEST(DispatchProtocol, VersionSkewNamesBothVersions) {
  const DispatchRequest request = sample_request();
  std::stringstream wire;
  write_dispatch_request(wire, request);
  std::string text = wire.str();
  // Rewrite the handshake's version number to a future one.
  const std::string handshake = "fairsched-dispatch-request " +
                                std::to_string(kDispatchProtocolVersion);
  ASSERT_EQ(text.find(handshake), 0u) << text;
  text.replace(0, handshake.size(), "fairsched-dispatch-request 999");
  std::istringstream skewed(text);
  try {
    read_dispatch_request(skewed);
    FAIL() << "expected a version-skew error";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v999"), std::string::npos) << what;
    EXPECT_NE(
        what.find("v" + std::to_string(kDispatchProtocolVersion)),
        std::string::npos)
        << what;
    EXPECT_NE(what.find("matching fairsched_exp builds"),
              std::string::npos)
        << what;
  }
}

TEST(DispatchProtocol, TruncatedRequestNamesWhatWasExpected) {
  const DispatchRequest request = sample_request();
  std::stringstream wire;
  write_dispatch_request(wire, request);
  const std::string text = wire.str();
  std::istringstream truncated(text.substr(0, text.size() / 2));
  try {
    read_dispatch_request(truncated);
    FAIL() << "expected a truncation error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stream ended"),
              std::string::npos)
        << e.what();
  }
}

TEST(DispatchProtocol, ArtifactFrameRoundTripsAnyBytes) {
  const std::string payload = "{\"cells\": [1, 2]}\nline two\n";
  std::ostringstream wire;
  write_artifact_frame(wire, 3, 7, payload);
  const ArtifactFrame frame = parse_artifact_frame(wire.str(), "test");
  EXPECT_EQ(frame.shard, 3u);
  EXPECT_EQ(frame.shard_count, 7u);
  EXPECT_EQ(frame.payload, payload);
}

TEST(DispatchProtocol, ArtifactParserSkipsBannerNoiseBeforeTheFrame) {
  // Real ssh configurations print MOTD banners on stdout; the frame
  // parser must find the magic line wherever it starts.
  std::ostringstream wire;
  wire << "Welcome to hostA!\nLast login: yesterday\n";
  write_artifact_frame(wire, 0, 2, "payload-bytes");
  const ArtifactFrame frame = parse_artifact_frame(wire.str(), "test");
  EXPECT_EQ(frame.shard, 0u);
  EXPECT_EQ(frame.payload, "payload-bytes");
}

TEST(DispatchProtocol, GarbageWithoutAFrameNamesTheSource) {
  try {
    parse_artifact_frame("no frame here at all\n", "worker `w3`");
    FAIL() << "expected a parse error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("worker `w3`"),
              std::string::npos)
        << e.what();
  }
}

// --- protocol v2: session frames --------------------------------------------

TEST(SessionProtocol, HelloRoundTripsTheWorkerThreadCount) {
  std::stringstream wire;
  write_session_hello(wire, SessionHello{7});
  EXPECT_EQ(read_session_hello(wire).threads, 7u);
}

TEST(SessionProtocol, HelloRejectsVersionSkewAndGarbage) {
  std::istringstream skewed("fairsched-session-hello 999\nthreads 4\nend\n");
  EXPECT_THROW(read_session_hello(skewed), std::invalid_argument);
  std::istringstream garbage("not a hello\n");
  EXPECT_THROW(read_session_hello(garbage), std::invalid_argument);
}

TEST(SessionProtocol, GoodbyeThenEofEndASessionCleanly) {
  std::stringstream wire;
  write_session_goodbye(wire);
  DispatchRequest request;
  EXPECT_EQ(read_session_command(wire, &request), SessionCommand::kGoodbye);
  EXPECT_EQ(read_session_command(wire, &request), SessionCommand::kEof);
}

TEST(SessionProtocol, RequestFramesKeepTheV1FormatOnSessions) {
  // The v1-fallback seam: session request frames are byte-for-byte v1
  // dispatch requests, so a skewed v1 worker still parses the first one.
  const DispatchRequest request = sample_request();
  std::stringstream wire;
  write_dispatch_request(wire, request);
  DispatchRequest back;
  EXPECT_EQ(read_session_command(wire, &back), SessionCommand::kRequest);
  EXPECT_EQ(back.fingerprint, request.fingerprint);
  EXPECT_EQ(back.shard, request.shard);
  EXPECT_EQ(back.args, request.args);
  EXPECT_EQ(back.config_content, request.config_content);
}

TEST(SessionProtocol, SessionArtifactFrameRoundTripsTheStatFooter) {
  const std::string payload = "{\"cells\": [1]}\nend\nnot a frame end\n";
  std::ostringstream wire;
  write_session_artifact_frame(wire, 1, 4, payload,
                               {{"cache_hits", 30}, {"replayed", 0}});
  const ArtifactFrame frame = parse_artifact_frame(wire.str(), "test");
  EXPECT_EQ(frame.version, kSessionProtocolVersion);
  EXPECT_EQ(frame.shard, 1u);
  EXPECT_EQ(frame.shard_count, 4u);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_EQ(frame.stats.size(), 2u);
  EXPECT_EQ(frame.stats[0].first, "cache_hits");
  EXPECT_EQ(frame.stats[0].second, 30u);
  EXPECT_EQ(frame.stats[1].first, "replayed");
  EXPECT_EQ(frame.stats[1].second, 0u);
}

TEST(SessionProtocol, V1ArtifactFramesParseWithEmptyStats) {
  std::ostringstream wire;
  write_artifact_frame(wire, 0, 2, "payload");
  const ArtifactFrame frame = parse_artifact_frame(wire.str(), "test");
  EXPECT_EQ(frame.version, kDispatchProtocolVersion);
  EXPECT_TRUE(frame.stats.empty());
}

TEST(SessionProtocol, StatNamesMustBeSingleTokens) {
  std::ostringstream wire;
  EXPECT_THROW(
      write_session_artifact_frame(wire, 0, 1, "p", {{"two words", 1}}),
      std::invalid_argument);
}

TEST(SessionProtocol, ScannerDelimitsFramesAtExactByteBoundaries) {
  // A hello followed by two artifact frames; the second payload embeds
  // `end` lines and a fake handshake, which the by-size payload skip
  // must never mistake for framing. Feeding every prefix length checks
  // the scanner never claims a frame early and completes it on exactly
  // the frame's last byte.
  std::ostringstream hello_s;
  write_session_hello(hello_s, SessionHello{3});
  std::ostringstream art1_s;
  write_session_artifact_frame(art1_s, 0, 2, "plain", {{"cache_hits", 1}});
  std::ostringstream art2_s;
  write_session_artifact_frame(
      art2_s, 1, 2, "end\nfairsched-session-hello 2\npayload 3\nend\n", {});
  const std::string hello = hello_s.str();
  const std::string all = hello + art1_s.str() + art2_s.str();
  const std::size_t b1 = hello.size();
  const std::size_t b2 = b1 + art1_s.str().size();
  const std::size_t b3 = b2 + art2_s.str().size();

  for (std::size_t len = 0; len <= all.size(); ++len) {
    const std::string buffer = all.substr(0, len);
    std::size_t extent = 0;
    EXPECT_EQ(scan_session_frame(buffer, 0, &extent), len >= b1)
        << "prefix " << len;
    if (len >= b1) {
      EXPECT_EQ(extent, b1);
      EXPECT_EQ(scan_session_frame(buffer, b1, &extent), len >= b2)
          << "prefix " << len;
    }
    if (len >= b2) {
      EXPECT_EQ(extent, b2);
      EXPECT_EQ(scan_session_frame(buffer, b2, &extent), len >= b3)
          << "prefix " << len;
    }
    if (len >= b3) {
      EXPECT_EQ(extent, b3);
    }
  }
}

TEST(SessionProtocol, TruncationFuzzNeverMisparsesAFrame) {
  std::ostringstream wire;
  write_session_artifact_frame(wire, 2, 5, "abc\nend\n", {{"replayed", 9}});
  const std::string text = wire.str();
  // Every strict prefix must fail loudly — never return a frame. The
  // newline after the `end` line is cosmetic (getline accepts an
  // unterminated final line), so the fuzz stops one byte short of it.
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    EXPECT_THROW(parse_artifact_frame(text.substr(0, len), "fuzz"),
                 std::invalid_argument)
        << "prefix length " << len;
  }
  EXPECT_EQ(parse_artifact_frame(text, "fuzz").payload, "abc\nend\n");
}

TEST(SessionProtocol, UnknownArtifactVersionFailsNamingIt) {
  std::ostringstream wire;
  write_artifact_frame(wire, 0, 1, "p");
  std::string text = wire.str();
  const std::string handshake = "fairsched-shard-artifact 1";
  ASSERT_EQ(text.find(handshake), 0u) << text;
  text.replace(0, handshake.size(), "fairsched-shard-artifact 3");
  try {
    parse_artifact_frame(text, "skew");
    FAIL() << "expected a version-skew error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("v3"), std::string::npos)
        << e.what();
  }
}

// Frame readers trust no size header: a count or byte size announced in
// a header allocates nothing until the matching lines or bytes arrive, so
// a hostile header ends in the protocol's own error.

TEST(HostileFrames, HugeArgCountThenEofIsAProtocolError) {
  std::istringstream wire(
      "fairsched-dispatch-request 1\nfingerprint 0123456789abcdef\n"
      "shard 0 1\nthreads 1\nargs 100000000000\ncustom\n");
  try {
    read_dispatch_request(wire);
    FAIL() << "expected a protocol error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "stream ended while expecting an arg line"),
              std::string::npos)
        << e.what();
  }
}

TEST(HostileFrames, ConfigTruncatedUnderAHugeSizeIsAProtocolError) {
  std::istringstream wire(
      "fairsched-dispatch-request 1\nfingerprint 0123456789abcdef\n"
      "shard 0 1\nthreads 1\nargs 1\ncustom\n"
      "config 300000000 sweep.cfg\nabcd");
  try {
    read_dispatch_request(wire);
    FAIL() << "expected a protocol error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "truncated config content: got 4 of 300000000 bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(HostileFrames, HugeArtifactPayloadHeaderIsAProtocolError) {
  const std::string text =
      "fairsched-shard-artifact 1\nshard 0 1\npayload 300000000000\nabc\n";
  try {
    parse_artifact_frame(text, "hostile");
    FAIL() << "expected a protocol error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "truncated artifact payload: got 4 of 300000000000 bytes"),
              std::string::npos)
        << e.what();
  }
  // The session scanner waits for the announced bytes instead.
  std::size_t extent = 0;
  EXPECT_FALSE(scan_session_frame(text, 0, &extent));
}

// --- run_worker_process -----------------------------------------------------

TEST(RunWorkerProcess, TimeoutKillsTheWorkerAndSaysSo) {
  const auto outcome =
      run_worker_process({"/bin/sh", "-c", "sleep 30"}, sample_request(),
                         std::chrono::milliseconds(200));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kTimeout);
  EXPECT_NE(outcome.detail.find("200ms shard timeout"),
            std::string::npos)
      << outcome.detail;
}

TEST(RunWorkerProcess, NonzeroExitIsAFailedAttemptWithTheExitCode) {
  const auto outcome = run_worker_process(
      {"/bin/sh", "-c", "cat > /dev/null; exit 3"}, sample_request(),
      std::chrono::milliseconds(0));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kFailed);
  EXPECT_NE(outcome.detail.find("exit code 3"), std::string::npos)
      << outcome.detail;
}

TEST(RunWorkerProcess, MissingBinaryFailsWithExitCode127) {
  const auto outcome =
      run_worker_process({"/no/such/fairsched-binary"}, sample_request(),
                         std::chrono::milliseconds(0));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kFailed);
  EXPECT_NE(outcome.detail.find("exit code 127"), std::string::npos)
      << outcome.detail;
}

TEST(RunWorkerProcess, WorkerClosingStdinEarlyStillDelivers) {
  // A worker may legitimately exit without draining its stdin; the
  // half-written request must not wedge or crash the dispatcher side.
  std::ostringstream frame;
  write_artifact_frame(frame, 2, 5, "ok");
  const auto outcome = run_worker_process(
      {"/bin/sh", "-c",
       "exec 0<&-; printf '" + frame.str() + "'"},
      sample_request(), std::chrono::milliseconds(0));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kArtifact)
      << outcome.detail;
  EXPECT_EQ(outcome.payload, "ok");
}

TEST(RunWorkerProcess, FrameForTheWrongShardIsRejected) {
  std::ostringstream frame;
  write_artifact_frame(frame, 1, 5, "ok");  // request asks for shard 2
  const auto outcome = run_worker_process(
      {"/bin/sh", "-c", "cat > /dev/null; printf '" + frame.str() + "'"},
      sample_request(), std::chrono::milliseconds(0));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kFailed);
  EXPECT_NE(outcome.detail.find("asked for 2/5"), std::string::npos)
      << outcome.detail;
}

// --- dispatcher with a seeded flaky transport -------------------------------

SweepSpec dist_sweep() {
  SweepSpec spec;
  spec.name = "dist-test";
  spec.policies = {"roundrobin", "fairshare"};
  SweepWorkload w;
  w.name = "unit-jobs";
  w.kind = SweepWorkload::Kind::kUnitJobs;
  w.orgs = 3;
  w.unit_jobs_per_org = 20;
  spec.workloads.push_back(w);
  spec.instances = 4;
  spec.seed = 42;
  spec.horizon = 60;
  spec.baseline = "ref";
  spec.threads = 1;
  return spec;
}

// The shard artifact a correct worker would return, computed in-process.
std::string compute_artifact(const SweepSpec& spec,
                             const DispatchRequest& request) {
  const SweepPlan plan =
      build_sweep_plan(spec, PolicyRegistry::global(),
                       SweepShard{request.shard, request.shard_count});
  ThreadPoolExecutor executor;
  const SweepResult result = executor.execute(plan);
  std::ostringstream out;
  exp::write_shard_artifact(out, plan, result);
  return out.str();
}

// What one scripted attempt does before (maybe) producing the artifact.
enum class Fault { kOk, kFail, kTimeout, kCorrupt, kThrow };

// A WorkerTransport that computes real artifacts in-process and injects
// faults from a fixed per-worker script (one entry per attempt, kOk once
// the script is exhausted). Deterministic by construction: no clocks, no
// randomness — the schedule IS the seed.
class FlakyTransport final : public WorkerTransport {
 public:
  FlakyTransport(std::string name, SweepSpec spec,
                 std::vector<Fault> script)
      : name_(std::move(name)),
        spec_(std::move(spec)),
        script_(std::move(script)) {}

  const std::string& name() const override { return name_; }

  std::size_t attempts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempt_;
  }

  Outcome run_shard(const DispatchRequest& request,
                    std::chrono::milliseconds timeout) override {
    Fault fault = Fault::kOk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (attempt_ < script_.size()) fault = script_[attempt_];
      ++attempt_;
    }
    switch (fault) {
      case Fault::kFail:
        return Outcome{Outcome::Status::kFailed, "",
                       name_ + ": injected failure"};
      case Fault::kTimeout:
        return Outcome{Outcome::Status::kTimeout, "",
                       name_ + ": injected timeout after " +
                           std::to_string(timeout.count()) + "ms"};
      case Fault::kCorrupt:
        // A truncated artifact: parses as neither JSON nor a frame.
        return Outcome{Outcome::Status::kArtifact,
                       compute_artifact(spec_, request).substr(0, 40),
                       ""};
      case Fault::kThrow:
        throw std::runtime_error(name_ + ": transport broke");
      case Fault::kOk:
        break;
    }
    return Outcome{Outcome::Status::kArtifact,
                   compute_artifact(spec_, request), ""};
  }

 private:
  std::string name_;
  SweepSpec spec_;
  std::vector<Fault> script_;
  mutable std::mutex mu_;
  std::size_t attempt_ = 0;
};

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("fairsched-dist-test-" + tag + "-" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string csv_of(const SweepSpec& spec, const SweepResult& result) {
  std::ostringstream out;
  CsvReporter csv(out);
  csv.report(spec, result);
  return out.str();
}

std::string whole_run_csv(const SweepSpec& spec) {
  const SweepPlan plan = build_sweep_plan(spec);
  ThreadPoolExecutor executor;
  return csv_of(spec, executor.execute(plan));
}

// Runs a dispatch over the given per-worker fault scripts and returns
// the merged result's CSV (asserting convergence on the way).
std::string dispatch_csv(const SweepSpec& spec, std::size_t shard_count,
                         std::vector<std::vector<Fault>> scripts,
                         const std::string& tag,
                         DispatchOptions* options_out = nullptr,
                         DispatchStats* stats_out = nullptr,
                         std::string* log_out = nullptr) {
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  for (std::size_t w = 0; w < scripts.size(); ++w) {
    workers.push_back(std::make_unique<FlakyTransport>(
        "flaky#" + std::to_string(w), spec, std::move(scripts[w])));
  }
  TempDir dir(tag);
  DispatchOptions options;
  options.shard_count = shard_count;
  options.max_attempts = 4;
  options.backoff = std::chrono::milliseconds(1);
  options.backoff_cap = std::chrono::milliseconds(2);
  options.artifact_dir = dir.path.string();
  if (options_out) options = *options_out;
  if (options_out) options.artifact_dir = dir.path.string();

  std::ostringstream log_stream;
  DispatchLog log(log_stream);
  const SweepPlan plan = build_sweep_plan(spec);
  DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  request.args = {"unused-by-flaky-transport"};
  Dispatcher dispatcher(std::move(workers), options, &log);
  const MergedSweep merged = dispatcher.run(plan, request);
  if (stats_out) *stats_out = dispatcher.stats();
  if (log_out) *log_out = log_stream.str();
  return csv_of(merged.spec, merged.result);
}

TEST(Dispatcher, CleanRunMatchesTheWholeRunByteForByte) {
  const SweepSpec spec = dist_sweep();
  const std::string whole = whole_run_csv(spec);
  EXPECT_EQ(dispatch_csv(spec, 4, {{}, {}, {}}, "clean"), whole);
  // Any shard count folds to the same bytes.
  EXPECT_EQ(dispatch_csv(spec, 1, {{}}, "clean1"), whole);
  EXPECT_EQ(dispatch_csv(spec, 6, {{}, {}}, "clean6"), whole);
}

TEST(Dispatcher, EveryFailureScheduleConvergesToIdenticalBytes) {
  const SweepSpec spec = dist_sweep();
  const std::string whole = whole_run_csv(spec);
  const std::vector<std::vector<std::vector<Fault>>> schedules = {
      // one flaky worker, one healthy
      {{Fault::kFail, Fault::kFail}, {}},
      // a timeout and a failure landing on different workers
      {{Fault::kTimeout}, {Fault::kFail, Fault::kTimeout}},
      // corrupt artifacts force quarantines before converging
      {{Fault::kCorrupt}, {Fault::kCorrupt, Fault::kFail}},
      // one worker's transport dies entirely; the other absorbs its work
      {{Fault::kThrow}, {Fault::kFail}},
      // everything bad once, everywhere
      {{Fault::kCorrupt, Fault::kTimeout},
       {Fault::kFail, Fault::kCorrupt},
       {Fault::kTimeout}},
  };
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    DispatchStats stats;
    EXPECT_EQ(dispatch_csv(spec, 5, schedules[i],
                           "schedule" + std::to_string(i), nullptr,
                           &stats),
              whole)
        << "failure schedule " << i;
    EXPECT_GT(stats.failed_attempts, 0u) << "failure schedule " << i;
  }
}

TEST(Dispatcher, CorruptArtifactsAreQuarantinedNeverFolded) {
  const SweepSpec spec = dist_sweep();
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  workers.push_back(std::make_unique<FlakyTransport>(
      "flaky#0", spec,
      std::vector<Fault>{Fault::kCorrupt, Fault::kCorrupt}));
  TempDir dir("quarantine");
  DispatchOptions options;
  options.shard_count = 2;
  options.max_attempts = 4;
  options.backoff = std::chrono::milliseconds(1);
  options.artifact_dir = dir.path.string();
  std::ostringstream log_stream;
  DispatchLog log(log_stream);
  const SweepPlan plan = build_sweep_plan(spec);
  DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  request.args = {"x"};
  Dispatcher dispatcher(std::move(workers), options, &log);
  const MergedSweep merged = dispatcher.run(plan, request);
  EXPECT_EQ(csv_of(merged.spec, merged.result), whole_run_csv(spec));
  EXPECT_EQ(dispatcher.stats().quarantined, 2u);
  // The corrupt payloads are preserved next to the artifacts for
  // post-mortems, under names the merge scan will never pick up.
  std::size_t quarantine_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".quarantined-") != std::string::npos) {
      ++quarantine_files;
    }
  }
  EXPECT_EQ(quarantine_files, 2u);
  EXPECT_NE(log_stream.str().find("\"event\":\"quarantine\""),
            std::string::npos)
      << log_stream.str();
}

TEST(Dispatcher, ExhaustedAttemptsGiveUpWithAClearError) {
  const SweepSpec spec = dist_sweep();
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  workers.push_back(std::make_unique<FlakyTransport>(
      "flaky#0", spec,
      std::vector<Fault>(10, Fault::kFail)));
  TempDir dir("giveup");
  DispatchOptions options;
  options.shard_count = 1;
  options.max_attempts = 3;
  options.backoff = std::chrono::milliseconds(1);
  options.max_worker_failures = 10;  // the shard gives up first
  options.artifact_dir = dir.path.string();
  std::ostringstream log_stream;
  DispatchLog log(log_stream);
  const SweepPlan plan = build_sweep_plan(spec);
  DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  request.args = {"x"};
  Dispatcher dispatcher(std::move(workers), options, &log);
  try {
    dispatcher.run(plan, request);
    FAIL() << "expected the dispatch to give up";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("dispatch failed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NE(log_stream.str().find("\"event\":\"give-up\""),
            std::string::npos)
      << log_stream.str();
}

TEST(Dispatcher, AllWorkersRetiringAbortsInsteadOfHanging) {
  const SweepSpec spec = dist_sweep();
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  workers.push_back(std::make_unique<FlakyTransport>(
      "flaky#0", spec, std::vector<Fault>{Fault::kThrow}));
  workers.push_back(std::make_unique<FlakyTransport>(
      "flaky#1", spec, std::vector<Fault>{Fault::kThrow}));
  TempDir dir("retire");
  DispatchOptions options;
  options.shard_count = 3;
  options.max_attempts = 10;
  options.backoff = std::chrono::milliseconds(1);
  options.artifact_dir = dir.path.string();
  const SweepPlan plan = build_sweep_plan(spec);
  DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  request.args = {"x"};
  Dispatcher dispatcher(std::move(workers), options);
  EXPECT_THROW(dispatcher.run(plan, request), std::runtime_error);
  EXPECT_EQ(dispatcher.stats().retired_workers, 2u);
}

TEST(Dispatcher, ResumeRerunsOnlyMissingOrCorruptShards) {
  const SweepSpec spec = dist_sweep();
  const SweepPlan plan = build_sweep_plan(spec);
  DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  request.args = {"x"};

  TempDir dir("resume");
  DispatchOptions options;
  options.shard_count = 4;
  options.backoff = std::chrono::milliseconds(1);
  options.artifact_dir = dir.path.string();

  {
    std::vector<std::unique_ptr<WorkerTransport>> workers;
    workers.push_back(
        std::make_unique<FlakyTransport>("first#0", spec,
                                         std::vector<Fault>{}));
    Dispatcher first(std::move(workers), options);
    first.run(plan, request);
    EXPECT_EQ(first.stats().attempts, 4u);
  }

  // Simulate a killed run: one artifact missing, one corrupted on disk.
  std::filesystem::remove(dir.path / shard_artifact_filename(1, 4));
  {
    std::ofstream corrupt(dir.path / shard_artifact_filename(2, 4),
                          std::ios::trunc);
    corrupt << "{ half-written";
  }

  auto second_transport =
      std::make_unique<FlakyTransport>("second#0", spec,
                                       std::vector<Fault>{});
  FlakyTransport* counter = second_transport.get();
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  workers.push_back(std::move(second_transport));
  options.resume = true;
  std::ostringstream log_stream;
  DispatchLog log(log_stream);
  Dispatcher second(std::move(workers), options, &log);
  const MergedSweep merged = second.run(plan, request);
  EXPECT_EQ(csv_of(merged.spec, merged.result), whole_run_csv(spec));
  EXPECT_EQ(counter->attempts(), 2u)
      << "resume must only re-run the missing and the corrupt shard";
  EXPECT_EQ(second.stats().resumed, 2u);
  EXPECT_EQ(second.stats().quarantined, 1u);  // the half-written file
  EXPECT_NE(log_stream.str().find("\"event\":\"resume-reuse\""),
            std::string::npos)
      << log_stream.str();
}

TEST(Dispatcher, ResumeRejectsArtifactsFromADifferentSweep) {
  const SweepSpec spec = dist_sweep();
  const SweepPlan plan = build_sweep_plan(spec);
  DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  request.args = {"x"};

  // A valid artifact — for a *different* sweep (other seed).
  SweepSpec other = spec;
  other.seed = 43;
  DispatchRequest other_request;
  other_request.shard = 0;
  other_request.shard_count = 2;
  const std::string alien = compute_artifact(other, other_request);

  TempDir dir("resume-alien");
  {
    std::ofstream out(dir.path / shard_artifact_filename(0, 2));
    out << alien;
  }
  DispatchOptions options;
  options.shard_count = 2;
  options.backoff = std::chrono::milliseconds(1);
  options.artifact_dir = dir.path.string();
  options.resume = true;
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  workers.push_back(std::make_unique<FlakyTransport>(
      "w#0", spec, std::vector<Fault>{}));
  Dispatcher dispatcher(std::move(workers), options);
  const MergedSweep merged = dispatcher.run(plan, request);
  EXPECT_EQ(csv_of(merged.spec, merged.result), whole_run_csv(spec));
  EXPECT_EQ(dispatcher.stats().resumed, 0u);
  EXPECT_EQ(dispatcher.stats().quarantined, 1u);
}

// --- speculative straggler re-execution -------------------------------------

// Coordination between the two transports of a speculation test: the
// paced worker's first attempt does not complete until the straggler
// holds a shard (so the queue drains with the straggler still running),
// and the straggler does not return until its duplicate's win cancels
// it. The 60s caps only keep a buggy dispatcher from wedging the suite.
struct SpeculationLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool straggler_claimed = false;
  bool straggler_released = false;
};

// Blocks its (single) attempt until cancel_inflight — the dispatcher
// canceling the losing duplicate — then returns its artifact: tampered,
// when asked, to break the determinism digest.
class StragglerTransport final : public WorkerTransport {
 public:
  StragglerTransport(std::string name, SweepSpec spec,
                     SpeculationLatch* latch, bool tamper)
      : name_(std::move(name)),
        spec_(std::move(spec)),
        latch_(latch),
        tamper_(tamper) {}

  const std::string& name() const override { return name_; }

  Outcome run_shard(const DispatchRequest& request,
                    std::chrono::milliseconds) override {
    std::string payload = compute_artifact(spec_, request);
    std::unique_lock<std::mutex> lock(latch_->mu);
    latch_->straggler_claimed = true;
    latch_->cv.notify_all();
    latch_->cv.wait_for(lock, std::chrono::seconds(60),
                        [&] { return latch_->straggler_released; });
    if (tamper_) {
      // Bump the first work_done value: still a valid artifact for the
      // right plan and shard, but a different determinism digest.
      const std::string key = "\"work_done\": ";
      const std::size_t pos = payload.find(key);
      EXPECT_NE(pos, std::string::npos) << payload.substr(0, 200);
      char& digit = payload[pos + key.size()];
      digit = digit == '9' ? '8' : digit + 1;
    }
    return Outcome{Outcome::Status::kArtifact, payload, ""};
  }

  void cancel_inflight() override {
    std::lock_guard<std::mutex> lock(latch_->mu);
    latch_->straggler_released = true;
    latch_->cv.notify_all();
  }

 private:
  std::string name_;
  SweepSpec spec_;
  SpeculationLatch* latch_;
  bool tamper_;
};

// Computes real artifacts, but its first return waits for the straggler
// to hold a shard — so the claim race can never leave the straggler
// without one.
class PacedTransport final : public WorkerTransport {
 public:
  PacedTransport(std::string name, SweepSpec spec, SpeculationLatch* latch)
      : name_(std::move(name)), spec_(std::move(spec)), latch_(latch) {}

  const std::string& name() const override { return name_; }

  Outcome run_shard(const DispatchRequest& request,
                    std::chrono::milliseconds) override {
    std::string payload = compute_artifact(spec_, request);
    std::unique_lock<std::mutex> lock(latch_->mu);
    latch_->cv.wait_for(lock, std::chrono::seconds(60),
                        [&] { return latch_->straggler_claimed; });
    return Outcome{Outcome::Status::kArtifact, std::move(payload), ""};
  }

 private:
  std::string name_;
  SweepSpec spec_;
  SpeculationLatch* latch_;
};

struct SpeculationRun {
  DispatchStats stats;
  std::string log;
  std::string csv;    // empty when the dispatch aborted
  std::string error;  // the abort reason when it did
  std::vector<std::string> quarantine_files;
};

SpeculationRun run_speculative_dispatch(bool tamper, const std::string& tag) {
  // The orgs axis spreads cells over several families, so *both* shards
  // own cells — whichever one the straggler ends up duplicating has
  // digest-covered payload bytes for the tamper to touch.
  SweepSpec spec = dist_sweep();
  spec.axes.push_back(exp::make_axis("orgs", {3, 4, 5}));
  SpeculationLatch latch;
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  workers.push_back(
      std::make_unique<PacedTransport>("paced#0", spec, &latch));
  workers.push_back(std::make_unique<StragglerTransport>(
      "straggler#1", spec, &latch, tamper));
  TempDir dir(tag);
  DispatchOptions options;
  options.shard_count = 2;
  options.max_attempts = 4;
  options.backoff = std::chrono::milliseconds(1);
  options.artifact_dir = dir.path.string();
  options.speculate = true;
  // A tiny factor fires the duplicate as soon as the queue drains.
  options.speculate_factor = 1e-3;
  std::ostringstream log_stream;
  DispatchLog log(log_stream);
  const SweepPlan plan = build_sweep_plan(spec);
  DispatchRequest request;
  request.fingerprint = plan.fingerprint;
  request.args = {"unused-by-latched-transports"};
  Dispatcher dispatcher(std::move(workers), options, &log);
  SpeculationRun run;
  try {
    const MergedSweep merged = dispatcher.run(plan, request);
    run.csv = csv_of(merged.spec, merged.result);
  } catch (const std::runtime_error& e) {
    run.error = e.what();
  }
  run.stats = dispatcher.stats();
  run.log = log_stream.str();
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".quarantined-") != std::string::npos) {
      run.quarantine_files.push_back(name);
    }
  }
  std::sort(run.quarantine_files.begin(), run.quarantine_files.end());
  return run;
}

TEST(Speculation, DuplicateLossKeepsBytesIdenticalToTheWholeRun) {
  const SpeculationRun run = run_speculative_dispatch(false, "spec-loss");
  SweepSpec spec = dist_sweep();
  spec.axes.push_back(exp::make_axis("orgs", {3, 4, 5}));
  EXPECT_EQ(run.error, "");
  EXPECT_EQ(run.csv, whole_run_csv(spec));
  EXPECT_EQ(run.stats.speculative, 1u);
  EXPECT_EQ(run.stats.duplicate_losses, 1u);
  EXPECT_EQ(run.stats.quarantined, 0u);
  EXPECT_TRUE(run.quarantine_files.empty());
  EXPECT_NE(run.log.find("\"event\":\"speculate\""), std::string::npos)
      << run.log;
  EXPECT_NE(run.log.find("\"event\":\"duplicate-loss\""), std::string::npos)
      << run.log;
}

TEST(Speculation, DivergentDuplicateQuarantinesBothArtifactsAndAborts) {
  const SpeculationRun run =
      run_speculative_dispatch(true, "spec-mismatch");
  EXPECT_NE(run.error.find("nondeterministic"), std::string::npos)
      << run.error;
  EXPECT_NE(run.error.find("determinism digest"), std::string::npos)
      << run.error;
  EXPECT_EQ(run.stats.speculative, 1u);
  EXPECT_EQ(run.stats.quarantined, 2u);
  ASSERT_EQ(run.quarantine_files.size(), 2u) << run.log;
  EXPECT_NE(run.quarantine_files[0].find(".quarantined-divergent"),
            std::string::npos)
      << run.quarantine_files[0];
  EXPECT_NE(run.quarantine_files[1].find(".quarantined-duplicate"),
            std::string::npos)
      << run.quarantine_files[1];
  EXPECT_NE(run.log.find("\"event\":\"duplicate-mismatch\""),
            std::string::npos)
      << run.log;
}

// --- PersistentTransport against the real binary -----------------------------

// The dispatch request whose args rebuild the sweep inside the worker
// binary, plus the matching locally built spec. Mirrors
// serve_dispatch_request's rebuild path (same Flags -> options -> spec
// pipeline), so the fingerprints agree by construction.
struct E2eSweep {
  SweepSpec spec;
  DispatchRequest request;
};

E2eSweep e2e_sweep() {
  const std::vector<std::string> args = {
      "custom",          "--policies=roundrobin,fairshare",
      "--workload=unit", "--orgs=3",
      "--jobs-per-org=20", "--instances=4",
      "--seed=42",         "--duration=60"};
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  const exp::ScenarioOptions options =
      exp::scenario_options_from_flags(flags);
  E2eSweep e2e;
  e2e.spec = exp::make_scenario_sweep("custom", options);
  e2e.spec.threads = 1;
  e2e.request.fingerprint = build_sweep_plan(e2e.spec).fingerprint;
  e2e.request.threads = 1;
  e2e.request.args = args;
  return e2e;
}

TEST(PersistentSession, ServesEveryShardOverOneWarmSession) {
  const E2eSweep e2e = e2e_sweep();
  const SweepPlan plan = build_sweep_plan(e2e.spec);
  std::ostringstream log_stream;
  DispatchLog log(log_stream);
  auto transport = std::make_unique<PersistentTransport>(
      "session#0",
      std::vector<std::string>{FAIRSCHED_EXP_BINARY, "shard-worker",
                               "--session"},
      std::vector<std::string>{FAIRSCHED_EXP_BINARY, "shard-worker"}, &log);
  const PersistentTransport* session = transport.get();
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  workers.push_back(std::move(transport));
  TempDir dir("session-e2e");
  DispatchOptions options;
  options.shard_count = 3;
  options.backoff = std::chrono::milliseconds(1);
  options.artifact_dir = dir.path.string();
  Dispatcher dispatcher(std::move(workers), options, &log);
  const MergedSweep merged = dispatcher.run(plan, e2e.request);
  EXPECT_EQ(csv_of(merged.spec, merged.result), whole_run_csv(e2e.spec));
  const PersistentTransport::SessionStats stats = session->session_stats();
  EXPECT_EQ(stats.opens, 1u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.fallback, 0u);
  EXPECT_FALSE(stats.v1_peer);
  EXPECT_GT(session->hello_threads(), 0u);
  EXPECT_NE(session->summary().find("3 shard(s) over 1 session(s)"),
            std::string::npos)
      << session->summary();
  EXPECT_NE(log_stream.str().find("\"event\":\"session-reuse\""),
            std::string::npos)
      << log_stream.str();
}

TEST(PersistentSession, V1PeerFallsBackToSpawnPerAttempt) {
  const E2eSweep e2e = e2e_sweep();
  const SweepPlan plan = build_sweep_plan(e2e.spec);
  // A "skewed" peer: the same binary in one-shot v1 mode answers the
  // first request with a v1 artifact and no hello.
  std::ostringstream log_stream;
  DispatchLog log(log_stream);
  auto transport = std::make_unique<PersistentTransport>(
      "skewed#0",
      std::vector<std::string>{FAIRSCHED_EXP_BINARY, "shard-worker"},
      std::vector<std::string>{FAIRSCHED_EXP_BINARY, "shard-worker"}, &log);
  const PersistentTransport* session = transport.get();
  std::vector<std::unique_ptr<WorkerTransport>> workers;
  workers.push_back(std::move(transport));
  TempDir dir("session-v1-fallback");
  DispatchOptions options;
  options.shard_count = 2;
  options.backoff = std::chrono::milliseconds(1);
  options.artifact_dir = dir.path.string();
  Dispatcher dispatcher(std::move(workers), options, &log);
  const MergedSweep merged = dispatcher.run(plan, e2e.request);
  EXPECT_EQ(csv_of(merged.spec, merged.result), whole_run_csv(e2e.spec));
  const PersistentTransport::SessionStats stats = session->session_stats();
  EXPECT_TRUE(stats.v1_peer);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.fallback, 2u);
  EXPECT_NE(session->summary().find("v1 peer"), std::string::npos)
      << session->summary();
  EXPECT_NE(log_stream.str().find("\"event\":\"session-v1-fallback\""),
            std::string::npos)
      << log_stream.str();
}

// The number of fds a run_worker_process child holds open: the child
// counts its own /proc entries and frames the count as its artifact.
std::string child_fd_count() {
  const auto outcome = run_worker_process(
      {"/bin/sh", "-c",
       "cat > /dev/null; n=0; for f in /proc/$$/fd/*; do n=$((n+1)); done; "
       "printf 'fairsched-shard-artifact 1\\nshard 2 5\\npayload "
       "%d\\n%s\\nend\\n' ${#n} $n"},
      sample_request(), std::chrono::milliseconds(0));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kArtifact)
      << outcome.detail;
  return outcome.payload;
}

TEST(PersistentSession, SpawnedChildrenInheritNoSessionPipes) {
  const std::string idle = child_fd_count();
  // Serve one shard so the session is live (and idle) while the next
  // child is spawned: its dispatcher-side pipe ends must not leak into it.
  const E2eSweep e2e = e2e_sweep();
  PersistentTransport session(
      "session#0",
      {FAIRSCHED_EXP_BINARY, "shard-worker", "--session"},
      {FAIRSCHED_EXP_BINARY, "shard-worker"});
  ASSERT_EQ(session.run_shard(e2e.request, std::chrono::milliseconds(0))
                .status,
            WorkerTransport::Outcome::Status::kArtifact);
  EXPECT_EQ(child_fd_count(), idle);
}

TEST(PersistentSession, TimeoutTearsDownAndRespawnsTheSession) {
  PersistentTransport transport("hang#0", {"/bin/sh", "-c", "sleep 30"},
                                {"/bin/true"});
  auto outcome =
      transport.run_shard(sample_request(), std::chrono::milliseconds(200));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kTimeout);
  EXPECT_NE(outcome.detail.find("session killed"), std::string::npos)
      << outcome.detail;
  EXPECT_EQ(transport.session_stats().opens, 1u);
  // The next attempt opens a fresh session instead of reusing the corpse.
  outcome =
      transport.run_shard(sample_request(), std::chrono::milliseconds(200));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kTimeout);
  EXPECT_EQ(transport.session_stats().opens, 2u);
}

TEST(PersistentSession, MidStreamDisconnectFailsTheAttemptOnly) {
  // The peer dies after a valid hello, mid-conversation: the attempt
  // fails with a session diagnostic; the hello was still recorded.
  PersistentTransport transport(
      "drop#0",
      {"/bin/sh", "-c",
       "printf 'fairsched-session-hello 2\\nthreads 4\\nend\\n'"},
      {"/bin/true"});
  const auto outcome =
      transport.run_shard(sample_request(), std::chrono::milliseconds(0));
  EXPECT_EQ(outcome.status, WorkerTransport::Outcome::Status::kFailed);
  EXPECT_NE(outcome.detail.find("session ended before an artifact frame"),
            std::string::npos)
      << outcome.detail;
  EXPECT_EQ(transport.hello_threads(), 4u);
  EXPECT_EQ(transport.session_stats().opens, 1u);
}

// --- the out-of-process CLI paths (--processes, dispatch) -------------------

// Runs `fairsched_exp <args>` inside `dir` (so --smoke's BENCH_*.json
// lands there) and returns its exit code.
int run_exp(const std::filesystem::path& dir, const std::string& args) {
  const std::string command = "cd '" + dir.string() + "' && '" +
                              FAIRSCHED_EXP_BINARY + "' " + args +
                              " > out.txt 2> err.txt";
  return std::system(command.c_str());
}

std::string file_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const std::string kPolicyConfig =
    std::string("--config=") + FAIRSCHED_SOURCE_DIR +
    "/bench/configs/custom_policy.cfg";

TEST(OutOfProcess, ConfigDefinedPoliciesOverProcessesMatchTheWholeRun) {
  TempDir dir("processes-config");
  ASSERT_EQ(run_exp(dir.path, "custom " + kPolicyConfig +
                                  " --smoke --threads=1 --csv=whole.csv"),
            0)
      << file_text(dir.path / "err.txt");
  ASSERT_EQ(run_exp(dir.path, "custom " + kPolicyConfig +
                                  " --smoke --processes=3 --csv=mp.csv"),
            0)
      << file_text(dir.path / "err.txt");
  const std::string whole = file_text(dir.path / "whole.csv");
  EXPECT_FALSE(whole.empty());
  EXPECT_EQ(file_text(dir.path / "mp.csv"), whole);
}

TEST(OutOfProcess, StrategyOverProcessesMatchesTheInProcessRun) {
  TempDir dir("processes-strategy");
  ASSERT_EQ(run_exp(dir.path, "strategy --smoke --csv=whole.csv"), 0)
      << file_text(dir.path / "err.txt");
  ASSERT_EQ(run_exp(dir.path, "strategy --smoke --processes=3 --csv=mp.csv"),
            0)
      << file_text(dir.path / "err.txt");
  const std::string whole = file_text(dir.path / "whole.csv");
  EXPECT_FALSE(whole.empty());
  EXPECT_EQ(file_text(dir.path / "mp.csv"), whole);
}

TEST(OutOfProcess, DispatchRunsLocalWorkersAsSessions) {
  TempDir dir("dispatch-sessions");
  ASSERT_EQ(run_exp(dir.path, "custom " + kPolicyConfig +
                                  " --smoke --threads=1 --csv=whole.csv"),
            0)
      << file_text(dir.path / "err.txt");
  ASSERT_EQ(run_exp(dir.path, "dispatch --sweep=custom " + kPolicyConfig +
                                  " --smoke --workers='local*2' "
                                  "--artifact-dir=arts --csv=dispatched.csv"),
            0)
      << file_text(dir.path / "err.txt");
  EXPECT_EQ(file_text(dir.path / "dispatched.csv"),
            file_text(dir.path / "whole.csv"));
  const std::string log = file_text(dir.path / "arts/dispatch.log.jsonl");
  EXPECT_NE(log.find("\"event\":\"session-open\""), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"event\":\"session-hello\""), std::string::npos)
      << log;
  EXPECT_EQ(log.find("session-v1-fallback"), std::string::npos) << log;
}

// --- dry-run golden ---------------------------------------------------------

TEST(DispatchDryRun, AssignmentPlanMatchesTheGoldenFile) {
  SweepSpec spec = dist_sweep();
  spec.axes.push_back(exp::make_axis("orgs", {3, 4, 5}));
  const SweepPlan plan = build_sweep_plan(spec);
  std::ostringstream out;
  write_dispatch_plan_json(out, plan, 4,
                           {"local#0", "local#1", "ssh:hostA#2"});

  const std::string path = std::string(FAIRSCHED_SOURCE_DIR) +
                           "/tests/golden/dispatch_dry_run.json";
  if (std::getenv("FAIRSCHED_UPDATE_GOLDEN")) {
    std::ofstream golden(path, std::ios::trunc | std::ios::binary);
    golden << out.str();
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream golden(path, std::ios::binary);
  ASSERT_TRUE(golden) << "missing golden file " << path
                      << " (regenerate with FAIRSCHED_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(out.str(), expected.str())
      << "dispatch --dry-run output drifted; regenerate with "
         "FAIRSCHED_UPDATE_GOLDEN=1 if the change is intentional";
}

}  // namespace
}  // namespace fairsched::dist
