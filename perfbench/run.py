#!/usr/bin/env python3
"""Builds the benchmark driver from the repository sources; runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <bfs-web|serve-social|bc-ooc> \
        --seed <n> --seconds <s> --trace <0|1> [driver options...]

The driver is built with CMake into $CARGO_TARGET_DIR/perfbench-cmake
(default .bench_build/perfbench-cmake); build output goes to stderr. The
driver's own stdout passes through unchanged, so its last line is the JSON
result. Extra options (--engine-threads) are handed to the driver.
Exits non-zero without a result when the library sources are missing, the
build fails, or the driver fails or times out.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench-cmake")


def run_quiet(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if run_quiet(configure) != 0:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(out, ignore_errors=True)
        if run_quiet(configure) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_driver"]) != 0:
        return None
    return os.path.join(out, "perfbench_driver")


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(os.path.dirname(build_dir()), "perfbench")
    cmd = [driver] + argv + ["--work-dir", work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: driver timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
