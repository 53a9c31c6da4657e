#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: shm_hot, shm_adapt, dist_steady, dist_churn (see BENCHMARK.json).
The benchmark is the Rust package in this directory. It is built in release
mode, offline, into $CARGO_TARGET_DIR (default: .bench_build at the repository
root), then run with the given arguments. Its standard output is passed
through; the last line is the result JSON. A record of each result with its
provenance (commit or source digest, rustc, nproc, seed, threads, tokens, run
length) is written to .bench_out/, and a traced run writes its Chrome trace to
.bench_out/trace/.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def command_output(argv):
    try:
        return subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    digest = hashlib.sha256()
    paths = []
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in filenames:
                if name.endswith(".rs") or name in ("Cargo.toml", "Cargo.lock"):
                    paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target_dir = os.path.join(ROOT, target_dir)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return built.returncode

    out_dir = os.path.join(ROOT, ".bench_out")
    env["ACN_TRACE_DIR"] = os.path.join(out_dir, "trace")
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"]) or "unknown"
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "-V"]) or "unknown"
    binary = os.path.join(target_dir, "release", "acn-perfbench")
    try:
        ran = subprocess.run(
            [binary, *sys.argv[1:], "--out", out_dir],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark failed: {e}", file=sys.stderr)
        return 1
    if ran.returncode != 0:
        return ran.returncode
    sys.stdout.write(ran.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
