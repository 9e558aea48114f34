#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

    python3 perfbench/run.py --workload serve_cov --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, on top of the repository sources) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
re-check the build. Each run then executes the benchmark's own unit tests,
runs the workload and passes its output through; the last line printed is
the benchmark's JSON result. The exit code is non-zero when the build, the
tests or the run fail, and no result is printed then.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["perfbench", "perfbench_tests", "scwc_worker"]


def say(line):
    print("[run.py] " + line, flush=True)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with its output in log_path; returns True on success."""
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode == 0
        except subprocess.TimeoutExpired:
            return False


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        say("configuring " + os.path.relpath(build_dir, ROOT))
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, log_path, BUILD_TIMEOUT_S):
            show_tail(log_path)
            # A failed configure must not look like a finished one next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS,
                      log_path, BUILD_TIMEOUT_S):
        show_tail(log_path)
        return False
    return True


def show_tail(log_path, lines=20):
    with open(log_path) as log:
        for line in log.readlines()[-lines:]:
            say("build: " + line.rstrip())


def commit():
    try:
        # The ceiling keeps git from reading a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not build(build_dir):
        say("build failed")
        return 1
    tests = subprocess.run([os.path.join(build_dir, "perfbench_tests"), "--gtest_brief=1"],
                           cwd=ROOT, capture_output=True, text=True, timeout=120)
    if tests.returncode != 0:
        sys.stdout.write(tests.stdout)
        say("benchmark unit tests failed")
        return 1
    say("benchmark unit tests passed")

    out_dir = os.path.join(build_dir, "out")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--worker-bin", os.path.join(build_dir, "scwc", "tools", "scwc_worker"),
           "--out-dir", out_dir]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    # A session of its own, so a worker left behind by a crash is stopped
    # with the rest of the group.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    result = None
    timed_out = []

    def on_timeout(signum, frame):
        timed_out.append(True)
        os.killpg(proc.pid, signal.SIGKILL)

    def on_stop(signum, frame):
        # Stopped from outside: take the benchmark and its workers along.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGALRM, on_timeout)
    signal.signal(signal.SIGTERM, on_stop)
    signal.signal(signal.SIGINT, on_stop)
    signal.alarm(RUN_TIMEOUT_S)
    for line in proc.stdout:
        if line.startswith('{"correct"'):
            result = line
        else:
            sys.stdout.write(line)
            sys.stdout.flush()
    code = proc.wait()
    signal.alarm(0)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if timed_out:
        say("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    if result is None:
        say("the benchmark printed no result (exit code %d)" % code)
        return code or 1
    sys.stdout.write(result)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
