#!/usr/bin/env python3
"""Benchmark entry point: builds comx_perfbench and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
`comx_perfbench` and `comx_serve` (Release) into `.bench_build/`; later calls
rebuild only what changed. Build output goes to stderr, so the last stdout
line is always the JSON result. Extra flags of comx_perfbench (`--size tiny`,
`--expect-revenue X`, `--gen-stall-ms MS`) are passed through.

`--workload all` runs the four workloads one after another with the same
flags, printing each one's output, and fails if any of them fails.
"""
import os
import shutil
import subprocess
import sys

WORKLOADS = ["replay_demcom", "replay_ramcom", "serve_open", "offline_bound"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "comx_perfbench",
         "perfbench_comx_serve"],
        check=True, stdout=sys.stderr)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "comx_perfbench")
    serve = ["--serve-bin", os.path.join(BUILD, "comx_serve")]
    at = argv.index("--workload") + 1 if "--workload" in argv else 0
    if 0 < at < len(argv) and argv[at] == "all":
        worst = 0
        for workload in WORKLOADS:
            print(f"== {workload}", flush=True)
            args = argv[:at] + [workload] + argv[at + 1:] + serve
            worst = max(worst, subprocess.run([binary, *args], cwd=ROOT).returncode)
        return worst
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(ROOT)
    # Replace this process, so whoever started the run waits on (and can
    # signal) comx_perfbench itself.
    os.execv(binary, [binary, *argv, *serve])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
