#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench (and the library it links, from ../src) as a Release
build under .bench_build/; later runs only rebuild what changed. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. Traced runs write their spans as Chrome trace JSON under
.bench_build/traces/. Exits non-zero, without a result line, when the
sources are missing, the build fails or the benchmark fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_JOBS = "4"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no library sources next to perfbench/ (expected CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PKG, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def provenance():
    """Commit (when the checkout is a git repository) and a digest of the sources."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    commit, digest = provenance()
    print(f"perfbench: commit={commit} sources_sha256={digest}", flush=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
