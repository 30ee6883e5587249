#!/usr/bin/env python3
"""Builds and runs the PEB engine benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds the library from
src/ and the benchmark into $CARGO_TARGET_DIR (default .bench_build) with
CMake; later calls rebuild only what changed. The benchmark's own output
goes to stdout, ending with the JSON result line; build output goes to
stderr. Exits non-zero when the build fails, when an answer is wrong, or
when the run is not a valid measurement.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_paper", "mixed_durable", "ingest_durable")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """A digest of the library and benchmark sources, for run metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "not a git checkout"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "peb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    binary = build(os.path.join(build_root, "perfbench"))

    workdir = os.path.join(build_root, "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = (f"{commit_id()} "
                               f"(source sha256 {source_digest()})")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    try:
        code = subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Keep the span dump; drop the database files.
        for name in os.listdir(workdir):
            if not name.startswith("spans-"):
                os.remove(os.path.join(workdir, name))
        if not os.listdir(workdir):
            shutil.rmtree(workdir)
    sys.exit(code)


if __name__ == "__main__":
    main()
