#!/usr/bin/env python3
"""Build and run the LAGraph end-to-end benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <direct|serve-mixed|serve-batched-rw>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library sources (../src) together
with the benchmark driver under .bench_build/perfbench (RelWithDebInfo, the
repository's default build type); later runs only check that build is up to
date. The driver's output is passed through; its last line is the JSON
result. Extra: `--selftest` builds and runs the checker's own test.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "lagraph_perfbench"

# Read once by the library and silently change what is measured.
TAINTING_ENV = ("LAGRAPH_NO_FUSION", "LAGRAPH_FORCE_FORMAT",
                "LAGRAPH_BATCH_MAX", "LAGRAPH_BATCH_WINDOW_US",
                "LAGRAPH_MEM_BUDGET")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the build's compiler processes too) and wait for it. Returns the exit
    code, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "lagraph_perfbench"])
    for cmd in steps:
        rc = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if rc is None:
            fail(f"build step timed out: {' '.join(cmd)}")
        if rc != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def provenance():
    """The git SHA when the checkout is a repository, and a digest of the
    sources being measured either way."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return sha, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    tainted = [k for k in TAINTING_ENV if os.environ.get(k)]
    if tainted:
        fail("refusing to run with " + ", ".join(tainted) +
             " set: these change the measured program")

    build()
    if args.selftest:
        cmd = [str(BINARY), "--selftest", "1"]
    else:
        sha, digest = provenance()
        print(f"provenance: git_sha={sha} src_digest={digest}", flush=True)
        cmd = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    sys.stdout.flush()
    rc = run(cmd, RUN_TIMEOUT_S)
    if rc is None:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
