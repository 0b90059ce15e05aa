#!/usr/bin/env python3
"""cosm-bench: build and run the trading-cycle benchmark.

Usage, from the root of a checkout:

    python3 cosm-bench/run.py --workload cycle|browse|churn --seed N \
        --seconds S --trace 0|1
    python3 cosm-bench/run.py --selftest

The first call configures and builds the benchmark (the repository's
library sources plus the driver in cosm-bench/src) with CMake under
$CARGO_TARGET_DIR/cosm-bench, default .bench_build/cosm-bench.  Build output
goes to stderr; the driver's report goes to stdout, and its last line is one
JSON object {correct, attempted, failed, metrics}.  The full result document
(host fingerprint, thread counts, workload parameters, every metric with
its sample count) is written to <build>/results/.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "cosm-bench")


def build(build, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", jobs, "--target", target])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("cosm-bench: build failed: " + " ".join(step), file=sys.stderr)
            sys.exit(2)


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for sub in ("src", "cosm-bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, sub))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def option(args, name, default):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return default


def main():
    args = sys.argv[1:]
    build_path = build_dir()
    if args == ["--selftest"]:
        build(build_path, "cosm_bench_selftest")
        work = os.path.join(build_path, "selftest")
        os.makedirs(work, exist_ok=True)
        test = os.path.join(build_path, "cosm_bench_selftest")
        sys.exit(subprocess.run([test], cwd=work).returncode)

    build(build_path, "cosm_bench")
    results = os.path.join(build_path, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%s-trace%s.json" % (option(args, "--workload", "none"),
                                       option(args, "--seed", "1"),
                                       option(args, "--trace", "0"))
    command = [os.path.join(build_path, "cosm_bench")] + args + [
        "--result", os.path.join(results, name),
        "--commit", commit_id(),
        "--workdir", os.path.join(build_path, "work"),
    ]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
