#!/usr/bin/env python3
"""Hermetic ssh stand-in for dispatch tests and CI.

Usage (what `dispatch --workers=ssh:HOST` generates):

    fake_ssh.py [ssh options...] HOST COMMAND [ARGS...]

Leading ``-`` options are ignored, the first non-option argument is the
host name, and the rest is the remote command — which is simply exec'd
locally, stdin/stdout/stderr attached, so the "remote" worker is a local
process and the whole dispatch protocol runs for real without a network.

Failure injection (how CI induces a worker kill and a hang without
patching the dispatcher): set ``FAKE_SSH_STATE_DIR`` to a scratch
directory, then

    FAKE_SSH_KILL_HOST=hostb   the first connection to hostb spawns the
                               worker with its stdout discarded, waits
                               FAKE_SSH_KILL_AFTER_MS (default 250),
                               kills it, and exits 255 — ssh's
                               "connection lost" exit code. The
                               dispatcher sees no frame at all, so the
                               attempt always fails, however fast the
                               worker is;
    FAKE_SSH_HANG_HOST=hostc   the first connection to hostc swallows the
                               request and sleeps FAKE_SSH_HANG_MS
                               (default 3600000), so only the
                               dispatcher's --timeout-ms can reclaim the
                               shard.

Persistent-session injections (protocol v2, `shard-worker --session`):
these run the worker under a byte-relaying proxy that counts the
artifact frames the session serves, so failures land at exact points of
a live session instead of at connection time. All three honor
``FAKE_SSH_SESSION_AFTER_SHARDS`` (default 1) as the count of fully
served shards before the injection fires:

    FAKE_SSH_SESSION_KILL_HOST=hostb      kill the session worker right
                                          after the Nth artifact frame is
                                          relayed (clean frame boundary,
                                          dead session);
    FAKE_SSH_SESSION_TRUNCATE_HOST=hostb  relay only the first half of
                                          the (N+1)th frame, then kill —
                                          a mid-frame disconnect;
    FAKE_SSH_SESSION_HANG_HOST=hostc      stop relaying after the Nth
                                          frame and sleep
                                          FAKE_SSH_HANG_MS — a straggler
                                          that only --timeout-ms or
                                          speculative re-execution can
                                          absorb.

Each injection fires once: a marker file in FAKE_SSH_STATE_DIR records
that the host already failed, so retries against the same host succeed
and the run converges. Without FAKE_SSH_STATE_DIR the injections fire on
every connection (useful for testing give-up paths).
"""

import os
import signal
import subprocess
import sys
import threading
import time


def claim_injection(kind: str, host: str) -> bool:
    """True when this connection should inject `kind` against `host`."""
    if os.environ.get(f"FAKE_SSH_{kind}_HOST") != host:
        return False
    state_dir = os.environ.get("FAKE_SSH_STATE_DIR")
    if not state_dir:
        return True
    os.makedirs(state_dir, exist_ok=True)
    marker = os.path.join(state_dir, f"{kind.lower()}-{host}")
    try:
        # O_EXCL: exactly one connection claims the marker, even when the
        # dispatcher races several attempts against the same host.
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def scan_frame(buf: bytes, start: int):
    """One past the end of the session frame starting at `start`, or None
    when the buffer does not yet hold the whole frame. Line-oriented with
    `payload <n>` byte skips — the python twin of scan_session_frame
    (src/dist/protocol.cc), lenient where the C++ scanner is strict."""
    i = start
    while True:
        j = buf.find(b"\n", i)
        if j < 0:
            return None
        line = buf[i:j]
        if line == b"end":
            return j + 1
        if line.startswith(b"payload ") or line.startswith(b"config "):
            try:
                size = int(line.split()[-1])
            except ValueError:
                size = 0
            i = j + 1 + size
            if i > len(buf):
                return None
        else:
            i = j + 1


def pump_stdin(proc: subprocess.Popen) -> None:
    """Dispatcher stdin -> session worker stdin, byte for byte."""
    try:
        while True:
            chunk = sys.stdin.buffer.read1(65536)
            if not chunk:
                break
            proc.stdin.write(chunk)
            proc.stdin.flush()
    except (OSError, ValueError):
        pass
    try:
        proc.stdin.close()
    except OSError:
        pass


def run_session_proxy(command, mode: str, host: str) -> int:
    """Relays a `shard-worker --session` conversation, injecting `mode`
    ("KILL" | "TRUNCATE" | "HANG") after FAKE_SSH_SESSION_AFTER_SHARDS
    fully served artifact frames."""
    after = int(os.environ.get("FAKE_SSH_SESSION_AFTER_SHARDS", "1"))
    print(f"fake_ssh: session {mode.lower()} on {host} after {after} "
          f"shard(s)", file=sys.stderr)
    proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    threading.Thread(target=pump_stdin, args=(proc,), daemon=True).start()
    out = sys.stdout.buffer
    buf = b""
    served = 0
    try:
        while True:
            chunk = proc.stdout.read1(65536)
            if not chunk:
                out.flush()
                return proc.wait()
            buf += chunk
            while True:
                extent = scan_frame(buf, 0)
                if extent is None:
                    break
                frame = buf[:extent]
                buf = buf[extent:]
                is_artifact = frame.startswith(b"fairsched-shard-artifact ")
                if is_artifact and served == after:
                    if mode == "TRUNCATE":
                        # A mid-frame disconnect: half the frame, then gone.
                        out.write(frame[: len(frame) // 2])
                        out.flush()
                    proc.kill()
                    proc.wait()
                    return 255
                out.write(frame)
                out.flush()
                if is_artifact:
                    served += 1
                    if served == after and mode != "TRUNCATE":
                        if mode == "HANG":
                            # A straggler: the session stays up but goes
                            # silent; only the dispatcher's timeout or a
                            # speculative duplicate reclaims the shard.
                            hang_ms = int(
                                os.environ.get("FAKE_SSH_HANG_MS",
                                               "3600000"))
                            time.sleep(hang_ms / 1000)
                        proc.kill()
                        proc.wait()
                        return 255
    except OSError:
        proc.kill()
        proc.wait()
        return 255


def main() -> int:
    args = sys.argv[1:]
    while args and args[0].startswith("-"):
        args.pop(0)
    if len(args) < 2:
        print("fake_ssh: usage: fake_ssh.py [options] HOST COMMAND...",
              file=sys.stderr)
        return 255
    host, command = args[0], args[1:]

    if claim_injection("HANG", host):
        print(f"fake_ssh: hanging connection to {host}", file=sys.stderr)
        # Swallow the request so the worker side never runs, then outlive
        # any reasonable --timeout-ms; the dispatcher kills us.
        try:
            sys.stdin.buffer.read()
        except OSError:
            pass
        time.sleep(int(os.environ.get("FAKE_SSH_HANG_MS", "3600000")) / 1000)
        return 255

    if claim_injection("KILL", host):
        delay = int(os.environ.get("FAKE_SSH_KILL_AFTER_MS", "250")) / 1000
        print(f"fake_ssh: will kill {host} worker after {delay:.3f}s",
              file=sys.stderr)
        # A session worker answers quickly; with its stdout attached, a
        # shard finished within the delay would be delivered and no
        # attempt would fail.
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL)
        time.sleep(delay)
        try:
            proc.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        return 255

    for mode in ("KILL", "TRUNCATE", "HANG"):
        if claim_injection(f"SESSION_{mode}", host):
            return run_session_proxy(command, mode, host)

    # The normal path: become the worker. exec keeps the process tree
    # flat, so the dispatcher's timeout kill reaches the worker itself.
    try:
        os.execvp(command[0], command)
    except OSError as err:
        print(f"fake_ssh: cannot exec {command[0]}: {err}", file=sys.stderr)
        return 127


if __name__ == "__main__":
    sys.exit(main())
