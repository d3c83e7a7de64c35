#!/usr/bin/env python3
"""Serving benchmark for the NObLe stack: build, train, then serve one workload.

Run from the root of a checkout:

    python3 servebench/run.py --workload idle_inproc --seed 1 --seconds 30 --trace 0

Three steps, each its own process:
  1. build  -- configures and builds servebench/ (which compiles the library
               from this checkout) into .bench_build/;
  2. train  -- fits both models and writes their artifact bytes plus the
               held-out inputs to a bundle file. Training is deterministic,
               so the bundle is kept in .bench_build/ under the digest of
               the binary that wrote it and later runs of the same build
               reuse it;
  3. serve  -- serves the workload from the bundle and prints the metrics.
               Its last stdout line is the result JSON, and it is this
               script's last line too.

The NOBLE_* variables the library reads are removed from the environment of
steps 2 and 3, so every run serves the library defaults.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("idle_inproc", "wire_loaded", "bulk_flood")
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def run(cmd, timeout, env=None, quiet=False):
    """Runs cmd to completion (killed and reaped on timeout); True on exit 0."""
    out = sys.stderr if quiet else None
    try:
        return subprocess.run(cmd, env=env, stdout=out, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(map(str, cmd))}", file=sys.stderr)
        return False


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        if not run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=300, quiet=True):
            return False
    return run(["cmake", "--build", str(BUILD), "--target", "servebench", "-j", jobs],
               timeout=840, quiet=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be from 1 to 120")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = BUILD / "servebench"
    env = {k: v for k, v in os.environ.items() if not k.startswith("NOBLE_")}
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    bundle = BUILD / f"bundle-{digest}.bin"
    if not bundle.exists() and not run([binary, "train", "--out", bundle], timeout=120,
                                       env=env):
        print("run.py: training failed", file=sys.stderr)
        return 1
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    ok = run([binary, "serve", "--bundle", bundle, "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--spans-out",
              spans_dir / f"{args.workload}-seed{args.seed}.jsonl"],
             timeout=args.seconds + 150, env=env)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
