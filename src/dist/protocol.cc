#include "dist/protocol.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace fairsched::dist {

namespace {

constexpr const char* kRequestMagic = "fairsched-dispatch-request";
constexpr const char* kArtifactMagic = "fairsched-shard-artifact";
constexpr const char* kHelloMagic = "fairsched-session-hello";
constexpr const char* kGoodbyeMagic = "fairsched-session-goodbye";

void reject_newlines(const std::string& value, const char* what) {
  if (value.find('\n') != std::string::npos ||
      value.find('\r') != std::string::npos) {
    throw std::invalid_argument(std::string("dispatch protocol: ") + what +
                                " must not contain newlines: '" + value +
                                "'");
  }
}

// One protocol line; EOF mid-frame is always a protocol error.
std::string read_line(std::istream& in, const char* expecting) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::invalid_argument(
        std::string("dispatch protocol: stream ended while expecting ") +
        expecting);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

// Splits a protocol line into whitespace-separated tokens.
std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

std::uint64_t parse_u64(const std::string& token, const char* what) {
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(token, &consumed, 10);
    if (consumed != token.size()) throw std::invalid_argument(token);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("dispatch protocol: ") + what +
                                " is not a number: '" + token + "'");
  }
}

std::uint64_t parse_hex_u64(const std::string& token, const char* what) {
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(token, &consumed, 16);
    if (consumed != token.size() || token.empty()) {
      throw std::invalid_argument(token);
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("dispatch protocol: ") + what +
                                " is not a hex number: '" + token + "'");
  }
}

// Parses a "<magic> <version>" handshake line and returns the peer's
// version. `min_version`/`max_version` bound what this binary folds;
// anything outside throws naming both sides so mixed-binary deployments
// fail comprehensibly.
std::uint64_t check_handshake(const std::string& line, const char* magic,
                              const char* frame, int min_version,
                              int max_version) {
  const std::vector<std::string> tokens = tokens_of(line);
  if (tokens.size() != 2 || tokens[0] != magic) {
    throw std::invalid_argument(std::string("dispatch protocol: expected '") +
                                magic + " " + std::to_string(max_version) +
                                "' handshake for the " + frame + ", got: '" +
                                line + "'");
  }
  const std::uint64_t version = parse_u64(tokens[1], "protocol version");
  if (version < static_cast<std::uint64_t>(min_version) ||
      version > static_cast<std::uint64_t>(max_version)) {
    throw std::invalid_argument(
        std::string("dispatch protocol: peer speaks ") + frame + " v" +
        std::to_string(version) + ", this binary speaks v" +
        std::to_string(min_version) +
        (min_version == max_version
             ? std::string()
             : ".." + std::to_string(max_version)) +
        " — deploy matching fairsched_exp builds on every host");
  }
  return version;
}

// Reads `size` payload bytes in bounded chunks, so the buffer grows only
// as bytes actually arrive: a size header alone never allocates.
void read_payload_bytes(std::istream& in, std::size_t size,
                        std::string& payload, const char* what) {
  constexpr std::size_t kChunk = 64 * 1024;
  payload.clear();
  while (payload.size() < size) {
    const std::size_t have = payload.size();
    const std::size_t want = std::min(kChunk, size - have);
    payload.resize(have + want);
    in.read(payload.data() + have, static_cast<std::streamsize>(want));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got != want) {
      throw std::invalid_argument(
          std::string("dispatch protocol: truncated ") + what + ": got " +
          std::to_string(have + got) + " of " + std::to_string(size) +
          " bytes");
    }
  }
  // The writer terminates the payload with one newline so the framing
  // stays line-oriented after it.
  const int next = in.get();
  if (next != '\n') {
    throw std::invalid_argument(std::string("dispatch protocol: ") + what +
                                " is not followed by a newline (size "
                                "mismatch between header and payload)");
  }
}

void expect_end(std::istream& in, const char* frame) {
  const std::string line = read_line(in, "'end'");
  if (line != "end") {
    throw std::invalid_argument(std::string("dispatch protocol: expected "
                                            "'end' closing the ") +
                                frame + ", got: '" + line + "'");
  }
}

}  // namespace

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint);
  return buf;
}

void write_dispatch_request(std::ostream& out,
                            const DispatchRequest& request) {
  for (const std::string& arg : request.args) reject_newlines(arg, "arg");
  reject_newlines(request.config_name, "config name");
  out << kRequestMagic << ' ' << kDispatchProtocolVersion << '\n';
  out << "fingerprint " << fingerprint_hex(request.fingerprint) << '\n';
  out << "shard " << request.shard << ' ' << request.shard_count << '\n';
  out << "threads " << request.threads << '\n';
  out << "args " << request.args.size() << '\n';
  for (const std::string& arg : request.args) out << arg << '\n';
  if (request.config_content.empty() && request.config_name.empty()) {
    out << "no-config\n";
  } else {
    out << "config " << request.config_content.size() << ' '
        << (request.config_name.empty() ? "-" : request.config_name) << '\n';
    out.write(request.config_content.data(),
              static_cast<std::streamsize>(request.config_content.size()));
    out << '\n';
  }
  out << "end\n";
}

namespace {

// The request fields after the handshake line; shared by the one-shot
// reader and the session command loop (which consumes the handshake
// itself to tell requests from goodbyes).
DispatchRequest read_dispatch_request_body(std::istream& in) {
  DispatchRequest request;
  std::vector<std::string> tokens =
      tokens_of(read_line(in, "'fingerprint'"));
  if (tokens.size() != 2 || tokens[0] != "fingerprint") {
    throw std::invalid_argument(
        "dispatch protocol: expected 'fingerprint <hex>'");
  }
  request.fingerprint = parse_hex_u64(tokens[1], "fingerprint");

  tokens = tokens_of(read_line(in, "'shard'"));
  if (tokens.size() != 3 || tokens[0] != "shard") {
    throw std::invalid_argument(
        "dispatch protocol: expected 'shard <index> <count>'");
  }
  request.shard =
      static_cast<std::size_t>(parse_u64(tokens[1], "shard index"));
  request.shard_count =
      static_cast<std::size_t>(parse_u64(tokens[2], "shard count"));
  if (request.shard_count == 0 || request.shard >= request.shard_count) {
    throw std::invalid_argument(
        "dispatch protocol: shard index must be < count and count > 0, "
        "got " +
        std::to_string(request.shard) + "/" +
        std::to_string(request.shard_count));
  }

  tokens = tokens_of(read_line(in, "'threads'"));
  if (tokens.size() != 2 || tokens[0] != "threads") {
    throw std::invalid_argument("dispatch protocol: expected 'threads <n>'");
  }
  request.threads =
      static_cast<std::size_t>(parse_u64(tokens[1], "thread count"));

  tokens = tokens_of(read_line(in, "'args'"));
  if (tokens.size() != 2 || tokens[0] != "args") {
    throw std::invalid_argument(
        "dispatch protocol: expected 'args <count>'");
  }
  const std::size_t num_args =
      static_cast<std::size_t>(parse_u64(tokens[1], "arg count"));
  if (num_args == 0) {
    throw std::invalid_argument(
        "dispatch protocol: a request needs at least the subcommand arg");
  }
  // No reserve: the count is untrusted, so args grow as lines arrive.
  for (std::size_t i = 0; i < num_args; ++i) {
    // Args are raw lines, not tokenized: flag values may contain spaces.
    request.args.push_back(read_line(in, "an arg line"));
  }

  const std::string config_line = read_line(in, "'config' or 'no-config'");
  if (config_line != "no-config") {
    tokens = tokens_of(config_line);
    if (tokens.size() != 3 || tokens[0] != "config") {
      throw std::invalid_argument(
          "dispatch protocol: expected 'config <bytes> <name>' or "
          "'no-config', got: '" +
          config_line + "'");
    }
    const std::size_t size =
        static_cast<std::size_t>(parse_u64(tokens[1], "config size"));
    request.config_name = tokens[2] == "-" ? "" : tokens[2];
    read_payload_bytes(in, size, request.config_content, "config content");
  }
  expect_end(in, "request");
  return request;
}

}  // namespace

DispatchRequest read_dispatch_request(std::istream& in) {
  check_handshake(read_line(in, "the request handshake"), kRequestMagic,
                  "request", kDispatchProtocolVersion,
                  kDispatchProtocolVersion);
  return read_dispatch_request_body(in);
}

namespace {

void write_artifact_frame_impl(
    std::ostream& out, int version, std::size_t shard,
    std::size_t shard_count, const std::string& payload,
    const std::vector<std::pair<std::string, std::uint64_t>>& stats) {
  out << kArtifactMagic << ' ' << version << '\n';
  out << "shard " << shard << ' ' << shard_count << '\n';
  out << "payload " << payload.size() << '\n';
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out << '\n';
  for (const auto& [name, value] : stats) {
    reject_newlines(name, "stat name");
    if (name.empty() || name.find(' ') != std::string::npos) {
      throw std::invalid_argument(
          "dispatch protocol: stat names must be single tokens: '" + name +
          "'");
    }
    out << "stat " << name << ' ' << value << '\n';
  }
  out << "end\n";
}

}  // namespace

void write_artifact_frame(std::ostream& out, std::size_t shard,
                          std::size_t shard_count,
                          const std::string& payload) {
  write_artifact_frame_impl(out, kDispatchProtocolVersion, shard,
                            shard_count, payload, {});
}

void write_session_artifact_frame(
    std::ostream& out, std::size_t shard, std::size_t shard_count,
    const std::string& payload,
    const std::vector<std::pair<std::string, std::uint64_t>>& stats) {
  write_artifact_frame_impl(out, kSessionProtocolVersion, shard,
                            shard_count, payload, stats);
}

ArtifactFrame parse_artifact_frame(const std::string& text,
                                   const std::string& source) {
  // Skip banner noise: the frame starts at the first line whose first
  // token is the magic. Everything before it is ignored; everything after
  // is parsed strictly.
  const std::string marker = std::string(kArtifactMagic) + " ";
  std::size_t start = 0;
  if (text.rfind(marker, 0) != 0) {
    const std::size_t found = text.find("\n" + marker);
    if (found == std::string::npos) {
      throw std::invalid_argument(
          "dispatch protocol: no artifact frame in output of " + source +
          " (worker crashed before framing its artifact?)");
    }
    start = found + 1;
  }

  std::istringstream in(text.substr(start));
  ArtifactFrame frame;
  frame.version = static_cast<int>(check_handshake(
      read_line(in, "the artifact handshake"), kArtifactMagic,
      "artifact frame", kDispatchProtocolVersion, kSessionProtocolVersion));
  std::vector<std::string> tokens = tokens_of(read_line(in, "'shard'"));
  if (tokens.size() != 3 || tokens[0] != "shard") {
    throw std::invalid_argument(
        "dispatch protocol: expected 'shard <index> <count>' in artifact "
        "frame from " +
        source);
  }
  frame.shard = static_cast<std::size_t>(parse_u64(tokens[1], "shard index"));
  frame.shard_count =
      static_cast<std::size_t>(parse_u64(tokens[2], "shard count"));

  tokens = tokens_of(read_line(in, "'payload'"));
  if (tokens.size() != 2 || tokens[0] != "payload") {
    throw std::invalid_argument(
        "dispatch protocol: expected 'payload <bytes>' in artifact frame "
        "from " +
        source);
  }
  const std::size_t size =
      static_cast<std::size_t>(parse_u64(tokens[1], "payload size"));
  read_payload_bytes(in, size, frame.payload, "artifact payload");
  if (frame.version >= kSessionProtocolVersion) {
    // v2 footer: zero or more `stat <name> <value>` lines before `end`.
    for (;;) {
      const std::string line = read_line(in, "'stat' or 'end'");
      if (line == "end") return frame;
      tokens = tokens_of(line);
      if (tokens.size() != 3 || tokens[0] != "stat") {
        throw std::invalid_argument(
            "dispatch protocol: expected 'stat <name> <value>' or 'end' in "
            "artifact frame from " +
            source + ", got: '" + line + "'");
      }
      frame.stats.emplace_back(tokens[1],
                               parse_u64(tokens[2], "stat value"));
    }
  }
  expect_end(in, "artifact frame");
  return frame;
}

void write_session_hello(std::ostream& out, const SessionHello& hello) {
  out << kHelloMagic << ' ' << kSessionProtocolVersion << '\n';
  out << "threads " << hello.threads << '\n';
  out << "end\n";
}

SessionHello read_session_hello(std::istream& in) {
  check_handshake(read_line(in, "the session hello handshake"), kHelloMagic,
                  "session hello", kSessionProtocolVersion,
                  kSessionProtocolVersion);
  SessionHello hello;
  const std::vector<std::string> tokens =
      tokens_of(read_line(in, "'threads'"));
  if (tokens.size() != 2 || tokens[0] != "threads") {
    throw std::invalid_argument(
        "dispatch protocol: expected 'threads <n>' in session hello");
  }
  hello.threads =
      static_cast<std::size_t>(parse_u64(tokens[1], "hello thread count"));
  expect_end(in, "session hello");
  return hello;
}

void write_session_goodbye(std::ostream& out) {
  out << kGoodbyeMagic << ' ' << kSessionProtocolVersion << '\n';
  out << "end\n";
}

SessionCommand read_session_command(std::istream& in,
                                    DispatchRequest* request) {
  std::string line;
  if (!std::getline(in, line)) return SessionCommand::kEof;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const std::vector<std::string> tokens = tokens_of(line);
  if (!tokens.empty() && tokens[0] == kGoodbyeMagic) {
    check_handshake(line, kGoodbyeMagic, "session goodbye",
                    kSessionProtocolVersion, kSessionProtocolVersion);
    expect_end(in, "session goodbye");
    return SessionCommand::kGoodbye;
  }
  check_handshake(line, kRequestMagic, "request", kDispatchProtocolVersion,
                  kDispatchProtocolVersion);
  *request = read_dispatch_request_body(in);
  return SessionCommand::kRequest;
}

bool scan_session_frame(const std::string& buffer, std::size_t start,
                        std::size_t* extent) {
  std::size_t pos = start;
  while (true) {
    const std::size_t eol = buffer.find('\n', pos);
    if (eol == std::string::npos) return false;  // partial line
    const std::string line = buffer.substr(pos, eol - pos);
    pos = eol + 1;
    if (line == "end" || line == "end\r") {
      *extent = pos;
      return true;
    }
    // Length-prefixed payloads ("payload <n>", "config <n> <name>") are
    // skipped by size so their bytes never masquerade as protocol lines.
    const std::vector<std::string> tokens = tokens_of(line);
    if (!tokens.empty() && (tokens[0] == "payload" || tokens[0] == "config") &&
        tokens.size() >= 2) {
      std::size_t size = 0;
      try {
        size = static_cast<std::size_t>(
            parse_u64(tokens[1], "scanned payload size"));
      } catch (const std::invalid_argument&) {
        continue;  // not a real size header; strict parse will reject it
      }
      if (size >= buffer.size() - pos) return false;  // bytes + '\n'
      pos += size + 1;
    }
  }
}

}  // namespace fairsched::dist
