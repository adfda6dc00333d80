#!/usr/bin/env python3
"""Build and run the odburg benchmark.

    python3 odbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 odbench/run.py --test

Run it from the root of a checkout. It configures and builds the benchmark
package in odbench/ (which builds the odburg library from src/) in
.bench_build/odbench as a Release build, runs one workload, and passes the
program's output through: the last line of standard output is the JSON
result. With --trace 1 the spans are written to
.bench_build/spans/<workload>-seed<N>.jsonl.

--test builds and runs the benchmark's own tests.

Exit status: odbench's (0 correct, 1 wrong output, 2 usage, 3 harness
failure), 4 when the build fails or the sources are missing, 124 on a
timeout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "odbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("jit-x86", "synth-cold", "serve-open")


def log(msg):
    print(f"odbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures once, then builds; build chatter goes to stderr so the
    JSON stays the last line of stdout."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            log(f"the odburg sources are missing ({need}); run from a "
                "checkout of the repository")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                 list(targets))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def commit():
    """The checkout's commit, if it is a git work tree; never looks above
    the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_checked(cmd, timeout):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: " + " ".join(cmd))
        return 124


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own tests")
    a = p.parse_args()

    if a.test:
        if not build(["odbench", "odbench_tests"]):
            return 4
        rc = run_checked([os.path.join(BUILD, "odbench_tests")], 600)
        env = dict(os.environ, ODBENCH_BIN=os.path.join(BUILD, "odbench"))
        rc2 = subprocess.run([sys.executable, "-m", "unittest", "discover",
                              "-s", os.path.join(HERE, "tests"), "-v"],
                             cwd=ROOT, env=env).returncode
        return rc or rc2

    if a.workload is None or a.seed is None or a.seconds is None or \
            a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not build(["odbench"]):
        return 4
    cmd = [os.path.join(BUILD, "odbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--commit", commit()]
    if a.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{a.workload}-seed{a.seed}.jsonl")]
    return run_checked(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
