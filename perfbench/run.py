#!/usr/bin/env python3
"""Build streamkmd and the perfbench harness from source, then run one
benchmark workload against the freshly built daemon.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-ingest --seed 1 --seconds 10 --trace 0

Workloads: cells-batch, serve-ingest, serve-mix (see perfbench/main.go).
The last line of standard output is the harness's JSON result. Build
outputs, the Go build cache and the daemon's state all live under
.bench_build/ in the current directory, so nothing is written outside
the checkout. The exit status is non-zero, and no result is printed,
when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

# Bound on one measured run (builds excluded); a run normally takes
# well under a minute.
RUN_TIMEOUT_S = 160


def go_env(build):
    """A Go environment confined to the build directory: no user config,
    no network, no cgo toolchain."""
    home = os.path.join(build, "home")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        TMPDIR=os.path.join(build, "tmp"),
    )
    for d in (home, env["TMPDIR"]):
        os.makedirs(d, exist_ok=True)
    return env


def build(root, build_dir, env):
    bin_dir = os.path.join(build_dir, "bin")
    steps = [
        (root, ["go", "build", "-buildvcs=false", "-o", os.path.join(bin_dir, "streamkmd"), "./cmd/streamkmd"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-buildvcs=false", "-o", os.path.join(bin_dir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        # Build output goes to stderr so stdout carries only the result.
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bin_dir, "streamkmd"), os.path.join(bin_dir, "perfbench")


def reap(pgid):
    """SIGKILL whatever is left in the harness's process group, such as a
    daemon orphaned by a harness crash, and wait up to 10 s for it to go."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["cells-batch", "serve-ingest", "serve-mix"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    env = go_env(build_dir)
    daemon, harness = build(root, build_dir, env)

    cmd = [harness, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-daemon", daemon, "-work", os.path.join(build_dir, "work")]
    # A session of its own, so a timeout or signal takes the harness and
    # the daemon it spawned down together.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True)

    def kill(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reap(proc.pid)
        sys.exit("perfbench: run stopped before it finished")

    signal.signal(signal.SIGTERM, kill)
    signal.signal(signal.SIGINT, kill)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill()
    reap(proc.pid)
    if proc.returncode != 0:
        sys.exit("perfbench: harness exited with status %d" % proc.returncode)
    sys.stdout.write(out.decode())


if __name__ == "__main__":
    main()
