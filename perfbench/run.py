#!/usr/bin/env python3
"""Fleet planning benchmark: build from source, then run one workload.

Run from the repository root (--seconds defaults to 15):

    python3 perfbench/run.py --workload fleet-cold --seed 1 --trace 0
    python3 perfbench/run.py --workload loop-stream --seed 2 --trace 1
    python3 perfbench/run.py --selftest      # decorator transparency test

The executable is built with CMake into .bench_build/perfbench (Release), and
checkpoints go to a per-process directory under .bench_build/work that is
removed afterwards. The last line of standard output is the JSON result;
build output and output-check failures go to standard error. See
perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = os.path.join(".bench_build", "work")
WORKLOADS = ("fleet-cold", "fleet-warm", "loop-stream")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build(target):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", "2"], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, target)


def single_thread_env():
    env = dict(os.environ)
    env["RPAS_NUM_THREADS"] = "1"
    env.pop("RPAS_METRICS", None)  # global metrics stay off
    env.pop("RPAS_SIMD", None)     # kernels pick the host's best level
    return env


def run_child(cmd, env, capture):
    """Runs the executable and waits for it; kills it on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE if capture
                            else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_decorator_test")
        code, _ = run_child([binary], single_thread_env(), capture=False)
        sys.exit(code)
    if args.workload is None:
        fail("--workload is required")

    binary = build("perfbench")
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        code, out = run_child(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            single_thread_env(), capture=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        fail("perfbench exited with code %d" % code)
    sys.stdout.write(out.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
