#!/usr/bin/env python3
"""Runs one DTX benchmark workload and prints its result line.

    python3 dtxbench/run.py --workload read_large --seed 1 --seconds 45 --trace 0

Run from the repository root. The first run configures and builds the
engine and dtxbench into .bench_build/ (CMake, Release); later runs only
rebuild what changed. The last stdout line of dtxbench is one JSON object with
the keys correct, attempted, failed and metrics. Output files (traces) go
to .bench_out/. Extra flags after the four above (--corrupt KIND) are
passed to dtxbench unchanged.

Exits non-zero without a result when the engine sources are missing, the
build fails, or dtxbench fails. Every process the run starts (dtxbench
and its dtxd daemons, which run in their own process group) is
stopped and reaped on every exit path, and their store directories are
removed.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "dtxbench")


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the engine sources (CMakeLists.txt, src/) are not here")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD, "-j4"],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    build()
    os.makedirs(OUT, exist_ok=True)
    child = subprocess.Popen([BINARY] + args + ["--out", OUT], cwd=ROOT,
                             start_new_session=True)

    def forward(signum, _frame):
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        # dtxbench reaps its daemons itself; this catches any process of
        # its group that outlived it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if child.poll() is None:
            child.wait()
        for name in ("tcp-%d" % child.pid, "replay-%d" % child.pid):
            shutil.rmtree(os.path.join(OUT, name), ignore_errors=True)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
