#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

    python3 perfbench/run.py --workload sweep|served|fleet --seed N \
        --seconds S --trace 0|1 [--alerts N] [--shardd PATH]

Run from the root of a checkout. The first run configures and builds
into .bench_build/perfbench (about a minute on 4 cores); later runs only
check that the build is current. Every other flag goes to the binary,
whose last stdout line is the result JSON. The binary runs in its own
process group, which is killed if it overruns, so no forked shard daemon
outlives the run.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    for needed in ("src/CMakeLists.txt", "tools/aptrace_shardd.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; nothing to build",
                  file=sys.stderr)
            return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def reap_group(pgid):
    """Kills whatever is left of the binary's process group (a shard
    daemon orphaned by a crash) and waits until the group is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main(argv):
    if not build():
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_build", "perfbench-out"),
                exist_ok=True)
    child = subprocess.Popen([BINARY] + argv, cwd=ROOT,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print("perfbench: run overran its time limit", file=sys.stderr)
        return 1
    finally:
        reap_group(child.pid)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
