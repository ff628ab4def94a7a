#!/usr/bin/env python3
"""Build the ledger from source and run it.

    python3 ledger/run.py --workload <uts-groups|ft-hybrid|serve-kv> \
        --seed <n> --seconds <s> --trace <0|1> [--out <file>]
    python3 ledger/run.py compare <a.json> <b.json>

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build/ when that is unset. Build output goes to stderr; the ledger's
last line on stdout is its JSON result. This process replaces itself with
the ledger binary, so a run is one process on one host thread.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        print("ledger: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "ledger")
    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args = ["run", "--git-rev", git_rev(root)] + args
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(exe, [exe] + args, env)


def git_rev(root):
    """The checkout's commit, or "unknown" unless root is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


if __name__ == "__main__":
    sys.exit(main())
