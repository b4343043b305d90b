#!/usr/bin/env python3
"""Build and run the vnros end-to-end benchmark.

    python3 perfbench/run.py --workload kv_fanin_small --seed 1 --seconds 10 --trace 0

Run it from the root of a vnros checkout. The first run configures and
builds perfbench/ (a standalone CMake project over ../src) in Release mode
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
rebuild only what changed. The benchmark binary prints a human-readable
table and, as its last line, one JSON object with the metrics. With
--trace 1 the recorded spans go to <build dir>/spans/<workload>-seed<n>.tsv.
The exit status is the binary's: 0 only when every output check passed.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("kv_fanin_small", "kv_put_large", "vm_map_churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "vnbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return build_dir / "vnbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no vnros sources under {root / 'src'}; run from a full checkout")
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(root, build_dir / "perfbench")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir / "perfbench" / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 124)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
