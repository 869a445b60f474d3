#!/usr/bin/env python3
"""Builds the scale-check benchmark from source and runs one workload.

    python3 scalebench/run.py --workload pil-c3831 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The benchmark is built with Cargo
into $CARGO_TARGET_DIR (default: .bench_build at the checkout root);
build output goes to standard error. The benchmark's own output follows
on standard output, its last line the result object. The exit code is
the benchmark's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "scalebench" / "Cargo.toml"
BINARY = "scalecheck-benchmark"
WORKLOADS = ("pil-c3831", "scale-baseline", "slo-c3881")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def revision():
    """The git revision, marked +dirty when tracked files differ from it,
    or "unknown" when the checkout is not a git repository."""
    git = ["git", "-C", str(ROOT)]
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if r.returncode != 0:
        return "unknown"
    dirty = subprocess.run(
        git + ["status", "--porcelain", "--untracked-files=no"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    return r.stdout.strip() + ("+dirty" if dirty else "")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST)]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main(argv):
    args = parse_args(argv)
    target = target_dir()
    if not build(target):
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    cmd = [
        str(target / "release" / BINARY),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", revision(),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
