#!/usr/bin/env python3
"""Builds the seqdet end-to-end benchmark and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <ingest|query|query_routed|
        query_during_ingest> --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles the library and the benchmark into
.bench_build/perfbench (later calls rebuild incrementally). Build output
goes to stderr; the benchmark's report goes to stdout, whose last line is the
JSON result. Exits non-zero when the build fails (printing no result) or
when the benchmark finds a wrong answer ("correct": false).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
# Past this the benchmark is presumed hung; a run must end within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "--target",
                            "perfbench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 2
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    work_dir = os.path.join(BENCH_DIR, "perfbench-work", str(os.getpid()))
    cmd = [BINARY, *sys.argv[1:], "--work-dir", work_dir,
           "--trace-dir", os.path.join(BENCH_DIR, "perfbench-traces")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
        return done.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
