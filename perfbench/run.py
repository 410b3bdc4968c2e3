#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Run from the root of a polyise checkout:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the harness binary all live under
.bench_build/ in the checkout, so nothing is read or written outside it.
The harness prints one JSON line of metrics; this script relays its output
and exit status.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 172


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env(build):
    env = dict(os.environ)
    home = os.path.join(build, "home")
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for key in ("GOCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def go_build(go, env, cwd, out, pkg):
    try:
        b = subprocess.run(
            [go, "build", "-o", out, pkg],
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("go build %s timed out" % pkg)
    if b.returncode != 0:
        sys.stderr.write(b.stdout)
        fail("go build %s failed" % pkg)


def kill_group(proc):
    """Kill whatever is left of the harness's process group and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal", "enum")
    ):
        fail("run me from the root of a polyise checkout (no go.mod / internal/enum here)")
    go = shutil.which("go")
    if go is None:
        fail("no go toolchain on PATH")

    build = os.path.join(root, ".bench_build")
    env = go_env(build)
    harness = os.path.join(build, "perfbench")
    server = os.path.join(build, "polyised")
    started = time.monotonic()
    go_build(go, env, here, harness, ".")
    go_build(go, env, root, server, "./cmd/polyised")
    built = time.monotonic() - started

    cmd = [
        harness,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--polyised", server,
    ]
    # A cold build may take minutes; a warm one takes seconds and leaves the
    # harness enough of the 180 s a run may last.
    timeout = RUN_TIMEOUT_S - min(built, 10)
    # The harness and the polyised it starts share one CPU. Left to the
    # scheduler, the stream's client and server land on one CPU in some runs
    # and on two in others, and the two placements differ by a third in
    # latency.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    # Its own session, so the whole process group — the harness and the
    # polyised it starts — can be killed together.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        fail("harness did not finish within %d s" % timeout)
    kill_group(proc)
    if proc.returncode != 0:
        fail("harness exited with status %d after %.1f s" % (proc.returncode, time.monotonic() - start))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
