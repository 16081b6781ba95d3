#!/usr/bin/env python3
"""Builds scagbench from this checkout's sources and runs one workload.

    python3 scagbench/run.py --workload paper-4poc --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under scagbench/; build output goes to a log file
there and is shown on stderr only when the build fails. The benchmark's
own output, whose last line is the result object, passes through on
stdout, and its exit code is returned (0 ok, 1 correctness gate failed,
2 usage or build error). See scagbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the scagbench target; returns the binary."""
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "scagbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write(f"\n{e}\n")
                code = -1
            if code != 0:
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)  # configure again next time
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"scagbench: build step failed: {' '.join(cmd)}\n")
                return None
    return os.path.join(build_dir, "scagbench")


def main():
    # Let the finally clause below stop the benchmark when run.py is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args, extra = parser.parse_known_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(target_dir, "scagbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work-dir", build_dir] + extra
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"scagbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 2
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
