#!/usr/bin/env python3
"""Build the serving benchmark from source and run it (see README.md).

    python3 perfbench/run.py --workload snort_bulk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/ (Release,
telemetry compiled in). Every CA_* environment variable is removed before
the benchmark starts, so a stray CA_SIM_KERNEL or CA_MATCH_PARALLEL cannot
change the program under test. The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CA_")}


def build():
    """Configures once, then rebuilds incrementally; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DCA_TELEMETRY=ON"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=clean_env()).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """git describe when available, plus a hash of the sources built."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    describe = "no-git"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], capture_output=True, text=True)
        if out.returncode == 0:
            describe = out.stdout.strip()
    except OSError:
        pass
    return f"{describe},src-sha256:{digest.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="40")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true",
                    help="tiny scales, 1 s windows, all workloads")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload or --selftest is required")

    if not build():
        return 2
    cmd = [BINARY, "--source", source_id(), "--seed", args.seed]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seconds", args.seconds,
                "--trace", args.trace]
        if args.trace == "1":
            cmd += ["--trace-out", os.path.join(
                BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(cmd, env=clean_env(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
