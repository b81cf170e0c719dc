#!/usr/bin/env python3
"""Builds and runs the maco simulator benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The first run builds libmaco, the
`macosim` CLI and the benchmark driver (Release) under .bench_build/;
later runs reuse the build. Each workload runs in its own process, so its
peak RSS is its own. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). A traced run also writes its spans as
Chrome trace JSON under .bench_build/traces/ and checks that
`macosim trace` renders them. perfbench/README.md describes the workloads
and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["detailed_gemm", "sampled_dnn", "analytic_sweep"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def cmake(args, what):
    result = subprocess.run(["cmake", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        log(result.stdout[-4000:])
        raise RuntimeError(f"{what} failed (cmake exit {result.returncode})")


def build():
    """Configures and builds libmaco, macosim and the driver; returns the
    driver and macosim paths."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"{ROOT} holds no simulator sources to build")
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir = BUILD / "maco"
    bench_dir = BUILD / "perfbench"
    if not (lib_dir / "CMakeCache.txt").is_file():
        cmake(["-S", str(ROOT), "-B", str(lib_dir),
               "-DCMAKE_BUILD_TYPE=Release", "-DMACO_BUILD_TESTS=OFF",
               "-DMACO_BUILD_BENCH=OFF", "-DMACO_BUILD_EXAMPLES=OFF"],
              "configuring libmaco")
    cmake(["--build", str(lib_dir), "-j", jobs, "--target", "maco",
           "macosim"], "building libmaco")
    if not (bench_dir / "CMakeCache.txt").is_file():
        cmake(["-S", str(BENCH_DIR), "-B", str(bench_dir),
               "-DCMAKE_BUILD_TYPE=Release",
               f"-DMACO_SOURCE_DIR={ROOT}",
               f"-DMACO_LIBRARY={lib_dir / 'src' / 'libmaco.a'}"],
              "configuring the benchmark")
    cmake(["--build", str(bench_dir), "-j", jobs], "building the benchmark")
    return bench_dir / "maco_perfbench", lib_dir / "macosim"


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "cmake", "src", "examples/models",
                BENCH_DIR.name]:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.is_file():
                digest.update(str(file.relative_to(ROOT)).encode())
                digest.update(file.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(driver, macosim, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns the result object."""
    command = [str(driver), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    trace_file = BUILD / "traces" / f"{workload}-seed{seed}.json"
    if trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_file)]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=RUN_TIMEOUT_S)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        print("\n".join(lines))
        raise RuntimeError(f"{workload}: driver exited {result.returncode}")
    print("\n".join(lines[:-1]))
    report = json.loads(lines[-1])

    names = expected_metrics(trace)
    if sorted(report["metrics"]) != sorted(names):
        raise RuntimeError(f"{workload}: metrics {sorted(report['metrics'])} "
                           f"differ from BENCHMARK.json {sorted(names)}")
    if trace:
        render = subprocess.run([str(macosim), "trace", str(trace_file)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                timeout=60)
        print(f"macosim trace {trace_file.relative_to(ROOT)} "
              f"(exit {render.returncode}):")
        print("\n".join(render.stdout.split("\n")[:12]))
        if render.returncode != 0:
            report["correct"] = False
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        driver, macosim = build()
        print(f"host: commit={source_revision()}")
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        reports = [run_workload(driver, macosim, w, args.seed, args.seconds,
                                args.trace == 1) for w in workloads]
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(f"perfbench: {error}")
        return 1

    if len(reports) == 1:
        print(json.dumps(reports[0]))
        return 0
    print(json.dumps({w: r for w, r in zip(workloads, reports)}))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
