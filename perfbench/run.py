#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload easy_backlog --seed 1 --seconds 15 --trace 0

Workloads: easy_backlog, conservative_arrivals, lod_churn, fed_backlog.
Extra options passed through to the driver: --size full|tiny.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); traced runs write their span file to
$CARGO_TARGET_DIR/traces. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. Exits nonzero without a result when the
engine sources are missing, the build fails, or any correctness check fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: engine sources not found next to "
                         "perfbench/ (expected src/CMakeLists.txt)\n")
        return 2
    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return 2
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--trace-dir", trace_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
