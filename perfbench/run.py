#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload tc2_q16f8 --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds `perfbench` (a package of its
own, depending on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. The last line of standard output is the result JSON. The full
record and, for `--trace 1`, the spans are written to `perfbench/out/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# A run is given 180 s; leave the binary a margin below that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# What the source digest covers, relative to the repository root.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "shims", "perfbench"]


def source_digest(root: Path) -> str:
    """sha256 over every source file the benchmark is built from."""
    h = hashlib.sha256()
    for top in SOURCE_ROOTS:
        base = root / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            rel = f.relative_to(root)
            if not f.is_file() or {"out", "target"} & set(rel.parts[1:2]):
                continue
            h.update(str(rel).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1

    commit = f"git:{git_commit(root)} src:{source_digest(root)}"
    run = subprocess.run(
        [str(target / "release" / "perfbench"),
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", args.trace,
         "--out", str(BENCH_DIR / "out"),
         "--commit", commit],
        timeout=RUN_TIMEOUT_S,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
