#!/usr/bin/env python3
"""Build and run the InFrame benchmark for one workload.

    python3 perfbench/run.py --workload gray-serial --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles src/ as a subproject) into .bench_build/perfbench;
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit status is the
benchmark's: 0 for a correct run, 1 when the correctness gate fails or a
step fails, 2 for bad arguments or a checkout without src/.
"""

import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "inframe_perfbench"

# A first build compiles the whole library; a run must end well inside 180 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(command, timeout_s, stdout):
    """Runs `command` in its own process group and waits for it. On a
    timeout or an interrupt the whole group is killed, so no compiler or
    benchmark process outlives this script."""
    process = subprocess.Popen(command, stdout=stdout, stderr=sys.stderr,
                               start_new_session=True, text=True)
    try:
        out, _ = process.communicate(timeout=timeout_s)
    except BaseException:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
        raise
    return process.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/ not found beside perfbench/; run from a full checkout", 2)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        try:
            code, _ = run_group(step, BUILD_TIMEOUT_S, sys.stderr)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(step)}", 1)
        if code != 0:
            fail(f"build failed: {' '.join(step)}", 1)


def commit_id():
    """The git commit in a clone; elsewhere a digest of the sources the
    benchmark builds, so every result stays attributable."""
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha1()
    for directory in ("src", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha1-" + digest.hexdigest()[:16]


def main():
    build()
    command = [str(BINARY), *sys.argv[1:], "--commit", commit_id()]
    try:
        code, out = run_group(command, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0:
        lines = out.strip().splitlines()
        try:
            json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("the benchmark printed no JSON result", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
