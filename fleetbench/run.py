#!/usr/bin/env python3
"""Build and run the fleet benchmark from the root of a source checkout.

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds fleetbench/CMakeLists.txt (which compiles the repository's src/
tree) into <build root>/fleetbench, where the build root is
$CARGO_TARGET_DIR or .bench_build, then runs the benchmark binary. Its
stdout is passed through; the last line is the result object. With
--trace 1 the Chrome-trace JSON the run writes is checked with the
repository's fiat_json_validate, and a trace that fails makes the
result incorrect. Exits non-zero without a result when the build or the
run fails.
"""
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = root / base
    return base / "fleetbench"


def build(out):
    """Configure (once) and build; True on success. Serialised by a lock."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            steps.append(cmd)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                log(f"build step failed: {err}")
                return False
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def git_rev(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "unknown"


def option(args, name):
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main(argv):
    root = Path.cwd()
    out = build_dir(root)
    if not build(out):
        return 1
    binary = out / "fleetbench"
    trace = option(argv, "--trace") == "1"
    trace_out = None
    cmd = [str(binary)] + argv + ["--git-rev", git_rev(root)]
    if trace:
        trace_out = out / "trace-{}-{}.json".format(
            option(argv, "--workload"), option(argv, "--seed"))
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"benchmark failed: {err}")
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log(f"benchmark exited with {done.returncode}")
        return done.returncode or 1
    last = lines[-1]
    result = json.loads(last)
    if trace:
        check = subprocess.run([str(out / "fiat_json_validate"), str(trace_out)],
                               stdout=sys.stderr, stderr=sys.stderr,
                               timeout=RUN_TIMEOUT_S)
        if check.returncode != 0:
            log(f"trace {trace_out} fails fiat_json_validate")
            result["correct"] = False
            last = json.dumps(result)
    for line in lines[:-1]:
        print(line)
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
