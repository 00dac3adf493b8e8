#!/usr/bin/env python3
"""Run two or more command legs over a range of seeds and byte-diff them.

Usage: differential.py [--serve HEMSERVE] [--expect-exit N] SEEDS LEG LEG...

Each LEG is a shell command template, run for seeds 1..SEEDS with "{seed}"
replaced by the seed and "{addr}" by the HOST:PORT of that seed's server. A
leg's outcome is its stdout and stderr, interleaved, followed by a line
"exit=<status>": a non-zero exit is compared like any other output, never
fatal. Every leg's outcome must be byte-identical to the first leg's.

  --serve HEMSERVE   start a fresh `HEMSERVE --port 0` for each seed, fill
                     "{addr}" from its "listening on" line, stop it after the
                     seed's legs
  --expect-exit N    also require every leg to exit N on every seed

Exit codes: 0 every seed agrees, 1 a divergence or an unexpected exit status
(each failing seed is named, with its diff), 2 bad usage or a server that
did not start.
"""

import argparse
import difflib
import re
import subprocess
import sys
import tempfile
import time


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def start_server(binary):
    """Starts `binary --port 0`; returns the process and its HOST:PORT."""
    log = tempfile.TemporaryFile()
    try:
        proc = subprocess.Popen([binary, "--port", "0"], stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    except OSError as e:
        die(f"cannot start {binary}: {e.strerror or e}")
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and proc.poll() is None:
        log.seek(0)
        announced = re.search(rb"listening on (\S+)", log.read())
        if announced:
            return proc, announced.group(1).decode()
        time.sleep(0.01)
    proc.kill()
    proc.wait()
    log.seek(0)
    die(f"{binary} never announced its port:\n{log.read().decode(errors='replace')}")


def run_leg(command):
    """Returns (outcome, exit status) of one shell command."""
    p = subprocess.run(command, shell=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return p.stdout + b"\nexit=%d\n" % p.returncode, p.returncode


def text(outcome):
    return outcome.decode(errors="replace").splitlines(keepends=True)


def check_seed(seed, legs, serve, expect_exit):
    """Runs every leg for |seed|; prints the verdict and returns True if it held."""
    server, addr = start_server(serve) if serve else (None, "")
    try:
        commands = [leg.replace("{seed}", str(seed)).replace("{addr}", addr)
                    for leg in legs]
        runs = [run_leg(command) for command in commands]
    finally:
        if server:
            server.terminate()
            server.wait()
    ok = True
    first = runs[0][0]
    for i, (outcome, status) in enumerate(runs, 1):
        if outcome != first:
            ok = False
            print(f"seed {seed}: leg {i} diverged from leg 1\n"
                  f"  leg 1: {commands[0]}\n  leg {i}: {commands[i - 1]}")
            sys.stdout.writelines(difflib.unified_diff(
                text(first), text(outcome), f"seed {seed} leg 1", f"seed {seed} leg {i}"))
        if expect_exit is not None and status != expect_exit:
            ok = False
            print(f"seed {seed}: leg {i} exited {status}, expected {expect_exit}\n"
                  f"  leg {i}: {commands[i - 1]}")
            sys.stdout.writelines(text(outcome))
    if ok:
        print(f"seed {seed}: {len(legs)} legs agree, exit={runs[0][1]}")
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--serve", metavar="HEMSERVE")
    parser.add_argument("--expect-exit", type=int, metavar="N")
    parser.add_argument("seeds", type=int)
    parser.add_argument("legs", nargs="+", metavar="LEG")
    args = parser.parse_args()
    if len(args.legs) < 2:
        parser.error("give at least two legs to compare")
    failed = [seed for seed in range(1, args.seeds + 1)
              if not check_seed(seed, args.legs, args.serve, args.expect_exit)]
    sys.stdout.flush()
    if failed:
        print(f"\n{len(failed)} of {args.seeds} seed(s) failed: "
              f"{', '.join(map(str, failed))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
