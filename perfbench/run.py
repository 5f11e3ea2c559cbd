#!/usr/bin/env python3
"""Runs one workload of the belief_serve benchmark.

    python3 perfbench/run.py --workload hot_repeat --seed 1 --seconds 20 --trace 0

Builds belief_serve and the benchmark driver from the sources of the
checkout this file sits in (CMake, into .bench_build/ at the checkout
root; the first run compiles, later runs only check), then runs the
driver from the checkout root.  --seconds defaults to run_seconds of
BENCHMARK.json, the run length the bounds there were set on.

--trace 0  end-to-end run over an AF_UNIX socket; prints the end-to-end
           metrics and checks every reply against a serial replay.
--trace 1  the traced run: in-process, per-layer metrics.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the context block (commit, build type, cores, LockRank, sanitizer,
ARBITER_THREADS, cache capacity, seed, clients), sample counts and the
check's findings.  Exit status 0 iff the run completed and its check
passed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("hot_repeat", "cold_solve", "iterated_writes")
# A run must end within 180 s; the driver gets what is left after the
# build check.
DRIVER_TIMEOUT_S = 170


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def git_head():
    """HEAD of the checkout's own repository, or None (the checkout may
    be no repository at all, or sit inside an unrelated one)."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def source_id():
    """The git commit when there is one, and always a digest of the
    sources the benchmark builds (uncommitted edits change it)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    head = git_head()
    return ("git:%s " % head if head else "") + "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the two targets into BUILD_DIR; all
    tool output goes to stderr so stdout stays the result stream."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed", 1)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
           "perfbench_driver", "belief_serve"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed", 1)
    driver = os.path.join(BUILD_DIR, "perfbench_driver")
    server = os.path.join(BUILD_DIR, "arbiter", "tools", "belief_serve")
    for path in (driver, server):
        if not os.access(path, os.X_OK):
            die("build produced no " + path, 1)
    return driver, server


def main():
    for need in ("CMakeLists.txt", "src/server/server.h", "tools/belief_serve.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("no arbiter sources here (missing %s); run from a checkout" % need)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes and one set-up, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    driver, server = build()
    spans = os.path.join(BUILD_DIR, "spans-%s.tsv" % args.workload)
    cmd = [driver, "--server", server,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--mode", "trace" if args.trace else "e2e",
           # Relative: AF_UNIX paths are limited to ~100 bytes.
           "--socket-dir", os.path.relpath(BUILD_DIR, ROOT),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--spans-out", spans]
    if args.quick:
        cmd.append("--quick")
    # Own process group: on a timeout the driver and the servers it
    # spawned are killed together, and reaped before we exit.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("driver exceeded %d s" % DRIVER_TIMEOUT_S, 1)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
