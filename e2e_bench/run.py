#!/usr/bin/env python3
"""Builds the Pulse end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload serve_filter --seed 1 --seconds 10 --trace 0

The engine sources one directory up are compiled into
.bench_build/e2e_bench (RelWithDebInfo; incremental after the first run).
The benchmark binary then runs with the repository root as its working
directory and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. Build output
goes to standard error. Any failure exits non-zero without a result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD, "pulse_e2e")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "pulse_e2e", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """SHA-256 over the engine and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "e2e_bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2e_bench: engine sources (src/) not found", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2e_bench: build failed: {err}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PULSE_E2E_COMMIT"] = git_commit()
    env["PULSE_E2E_SOURCE_SHA256"] = source_digest()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
