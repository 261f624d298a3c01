#!/usr/bin/env python3
"""Build the IdleRed benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve_warm, serve_durable_cold, engine_expected, engine_sampled.
The first run configures and builds perfbench/ (and through it the IdleRed
libraries) in Release mode under .bench_build/ at the repository root, or
under $CARGO_TARGET_DIR when that is set; later runs rebuild incrementally.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Arguments are passed to the perfbench
binary unchanged; it rejects anything but the four flags above.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if code != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(code if code > 0 else 1)


def main():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    binary = os.path.join(out, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
