#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload serve-cold --seed 7 --seconds 20 \
        --trace 0

The first call configures and builds the library and the bench into
.bench_build/e2e (a Release build); later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the bench's JSON
result. Every other flag is passed to the binary unchanged (see README.md).
"""
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", "4", "--target", "bench_e2e"],
        stdout=sys.stderr, check=True)


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"bench_e2e build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    args = [str(BUILD / "bench_e2e"), "--commit", commit()] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
