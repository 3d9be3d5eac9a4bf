#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the product libraries
and the perfbench driver from source into .bench_build/perfbench (CMake,
RelWithDebInfo); later runs rebuild only what changed. Every run first
executes the driver's self-tests, then one workload in a fresh process.
The driver's stdout is passed through unchanged: its last line is the
result JSON. Per-run records (host fingerprint, configuration,
diagnostics) and, for traced runs, a Chrome trace land in
.bench_build/perfbench-results/.

Exit status: the driver's (0 = every output correct), 3 when the build or
the self-tests fail, 4 when the driver overran its time limit.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
WORKLOADS = ("pingpong", "orb_echo", "tcp_stream", "shm_mixed")
RUN_TIMEOUT_S = 170


def clean_env():
    """The environment may not change a workload: no COMPADRES_* knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("COMPADRES_")}


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    env = clean_env()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
        subprocess.run([binary, "--selftest"], stdout=sys.stderr,
                       stderr=sys.stderr, env=clean_env(), check=True,
                       timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build or self-test failed: {err}", file=sys.stderr)
        return 3

    os.makedirs(RESULTS, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=clean_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: workload overran its time limit", file=sys.stderr)
        return 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
