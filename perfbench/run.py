#!/usr/bin/env python3
"""The repository benchmark: builds dpmm_perfbench from source, runs one
workload, and relays its output.

    python3 perfbench/run.py --workload design_release_3d --seed 1 \
        --seconds 30 --trace 0 [--out results.jsonl]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; the first run configures and compiles, later
runs only re-check it. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; --out appends the full run
record (metadata, sample counts, gates, layer table) as one JSON line, the
input format of perfbench/compare.py. Exit status: the benchmark's own (0
ok, 1 correctness gate failed), 2 bad usage, 3 build failed, 4 timed out.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("design_release_3d", "serve_zipf_2d", "ledger_store_churn")
# A run measures at most MAX_SECONDS; set-up, the traced run's replays and
# exit fit in the rest of RUN_TIMEOUT_S.
MAX_SECONDS = 120
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id(root):
    """The commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds (so unversioned checkouts still differ)."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(
                ["git", "-C", str(root), "status", "--porcelain", "--",
                 "src", "perfbench", "CMakeLists.txt"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    top = root / "CMakeLists.txt"
    if top.is_file():
        digest.update(top.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configures (once) and builds the benchmark; build chatter goes to
    stderr so stdout carries only the benchmark's lines."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "dpmm_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    build_type = "unknown"
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    return build_type


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="append the run record to this file")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds 1..{MAX_SECONDS}")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    build_type = build(root, build_dir)
    if build_type is None:
        log("build failed")
        return 3

    work_dir = target / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(build_dir / "dpmm_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir),
           "--commit", source_id(root), "--build-type", build_type]
    try:
        # subprocess.run kills and reaps the child when the timeout fires.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if args.out:
        for line in proc.stdout.splitlines():
            if line.startswith("record: "):
                record = json.loads(line[len("record: "):])
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
