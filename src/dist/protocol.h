#pragma once

// The dispatcher <-> shard-worker wire protocol (docs/DISTRIBUTED.md).
//
// A dispatch sends each worker one DispatchRequest on stdin and reads one
// framed shard artifact back on stdout. The request does NOT carry the
// plan JSON: a spec reconstructed from its summary is reporting-only
// (exp/sweep_plan.h) and cannot be re-executed. Instead the request
// carries the argv tokens that rebuild the sweep — the subcommand plus
// the original flags, minus orchestration/reporting flags — and, so
// remote hosts need no shared filesystem, the raw bytes of the --config
// file when one was given. The worker rebuilds the spec, builds its
// shard's plan, and refuses to run unless the rebuilt plan's fingerprint
// equals the request's: the merge contract's fingerprint check, moved
// before any compute is spent.
//
// Every frame opens with a `<magic> <version>` handshake line so a
// version skew between dispatcher and worker binaries fails with a
// message naming both versions instead of a parse error mid-stream.
// Framing is line-oriented except for the two length-prefixed byte
// payloads (config content in, artifact JSON out), which are copied
// verbatim.
//
// Protocol v2 adds *sessions* (docs/DISTRIBUTED.md): one long-lived
// `shard-worker --session` process serves many requests over a single
// stdin/stdout connection. The session worker opens with a hello frame
// (carrying its hardware concurrency), then loops request -> artifact;
// the dispatcher closes with a goodbye frame (or just EOF). Request
// frames keep the v1 format — that is the v1-fallback seam: a skewed v1
// worker parses the first request, answers with a v1 artifact frame and
// exits, and the dispatcher detects the missing hello and falls back to
// spawn-per-attempt for that worker. Session artifact frames use
// version 2 and may carry a `stat <name> <value>` footer (cache
// counters, task counts) between the payload and `end`.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace fairsched::dist {

inline constexpr int kDispatchProtocolVersion = 1;
// Session frames (hello/goodbye) and artifact frames with a stat footer.
inline constexpr int kSessionProtocolVersion = 2;

// Everything a shard-worker needs to reproduce one shard of a sweep.
struct DispatchRequest {
  // Whole-plan fingerprint (exp/sweep_plan.h) the worker must reproduce.
  std::uint64_t fingerprint = 0;
  // The shard this attempt executes; the dispatcher rewrites these per
  // assignment, the rest of the request is shared by every attempt.
  std::size_t shard = 0;
  std::size_t shard_count = 1;
  // Worker thread budget (0 = the worker's hardware concurrency).
  std::size_t threads = 0;
  // Subcommand + flags rebuilding the sweep (no newlines allowed; the
  // framing is line-oriented). args[0] is the scenario name ("custom",
  // "table1", ...), the rest are --flag tokens.
  std::vector<std::string> args;
  // Embedded sweep config file: when non-empty the worker writes
  // `config_content` to a scratch file and appends --config=<path> to
  // args. `config_name` is display-only (log/error messages).
  std::string config_name;
  std::string config_content;
};

// A 64-bit fingerprint as the 16 lowercase hex digits the framing, the
// dispatch log and the dry-run plan all print.
std::string fingerprint_hex(std::uint64_t fingerprint);

// Serializes `request`. Throws std::invalid_argument when an arg or the
// config name contains a newline (unrepresentable in the framing).
void write_dispatch_request(std::ostream& out, const DispatchRequest& request);

// Parses one request from `in`. Throws std::invalid_argument on a missing
// or mis-versioned handshake, truncated input, or malformed fields.
DispatchRequest read_dispatch_request(std::istream& in);

// The worker's reply: its shard identity plus the artifact JSON bytes
// (exp/sweep_artifact.h), length-prefixed so the payload is copied
// verbatim whatever it contains. Version 2 frames (sessions) may carry a
// footer of `stat <name> <value>` counters — per-request accounting the
// dispatcher surfaces in per-worker summaries without parsing the
// payload.
struct ArtifactFrame {
  int version = kDispatchProtocolVersion;
  std::size_t shard = 0;
  std::size_t shard_count = 1;
  std::string payload;  // shard artifact JSON
  std::vector<std::pair<std::string, std::uint64_t>> stats;  // v2 footer
};

void write_artifact_frame(std::ostream& out, std::size_t shard,
                          std::size_t shard_count, const std::string& payload);

// The v2 form: same frame plus the stat footer. Stat names must be
// single whitespace-free tokens.
void write_session_artifact_frame(
    std::ostream& out, std::size_t shard, std::size_t shard_count,
    const std::string& payload,
    const std::vector<std::pair<std::string, std::uint64_t>>& stats);

// Parses the artifact frame out of a worker's captured stdout. Tolerates
// noise *before* the handshake line (ssh banners, motd leakage) but is
// strict from the handshake on. Accepts versions 1 and 2 (the dispatcher
// folds both); throws std::invalid_argument when no frame is found, the
// version is something else, or the payload is truncated.
ArtifactFrame parse_artifact_frame(const std::string& text,
                                   const std::string& source);

// ---- session frames (protocol v2) ----------------------------------------

// The session worker's opening frame: what the dispatcher must know
// before assigning work. `threads` is the worker's hardware concurrency,
// the default budget for remote sessions dispatched without an explicit
// --worker-threads.
struct SessionHello {
  std::size_t threads = 0;
};

void write_session_hello(std::ostream& out, const SessionHello& hello);
SessionHello read_session_hello(std::istream& in);

// The dispatcher's closing frame; a session worker exits cleanly on it
// (or on plain EOF, which a killed dispatcher leaves behind).
void write_session_goodbye(std::ostream& out);

// The worker side of a session: reads the next dispatcher -> worker
// frame from `in`. kRequest fills *request; kGoodbye was a clean close;
// kEof is the dispatcher vanishing before one. Malformed frames throw.
enum class SessionCommand { kRequest, kGoodbye, kEof };
SessionCommand read_session_command(std::istream& in,
                                    DispatchRequest* request);

// Incremental frame scanner for the dispatcher's session reader: returns
// true when buffer[start..] holds one complete frame (through its `end`
// line), setting *extent to one past the frame's last byte; false when
// more bytes are needed. Length-prefixed payload bytes are skipped by
// size, so payload contents never confuse the line scan. The scanner
// only delimits — strict validation happens when the complete frame is
// parsed.
bool scan_session_frame(const std::string& buffer, std::size_t start,
                        std::size_t* extent);

}  // namespace fairsched::dist
