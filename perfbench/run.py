#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                 # every workload, end-to-end table
    python3 perfbench/run.py --test          # the benchmark's own tests

Run from the repository root.  The first call configures and builds the
quartz libraries and the perfbench program from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build); later calls rebuild
incrementally.  Each workload runs in its own process.  The last line
printed for a single workload is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# A run measures for --seconds and then finishes its current rep.
RUN_GRACE_S = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_root():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(tests=False):
    """Configure once, then build; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"quartz sources not found under {ROOT / 'src'}")
    out = build_root() / ("perfbench-tests" if tests else "perfbench")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = out / "build.log"
    try:
        with open(log_path, "w") as build_log:
            if not (out / "CMakeCache.txt").is_file():
                subprocess.run(
                    ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release",
                     f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"],
                    stdout=build_log, stderr=subprocess.STDOUT, check=True)
            target = "perfbench_test" if tests else "perfbench"
            subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                           stdout=build_log, stderr=subprocess.STDOUT, check=True)
    except subprocess.CalledProcessError:
        log("".join(log_path.read_text(errors="replace").splitlines(True)[-40:]))
        raise RuntimeError(f"build failed; see {log_path}")
    return out


def check_result(result, expected):
    """The last line must carry exactly the metrics BENCHMARK.json names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def run_workload(binary, name, seed, seconds, trace, spec, echo=True):
    cmd = [str(binary), "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        spans = build_root() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{name}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds + RUN_GRACE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} exited with code {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    result = json.loads(lines[-1])
    check_result(result, spec["per_layer" if trace else "end_to_end"])
    return lines, result


def run_all(binary, spec, seed, seconds):
    """Every workload untraced, each in its own process, as one table."""
    rows, ok = [], True
    for workload in spec["workloads"]:
        _, result = run_workload(binary, workload["name"], seed, seconds, False, spec,
                                 echo=False)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        ok = ok and result["correct"]
        rows.append((workload["name"], m["pkts_per_s"], m["setup_s"], m["peak_rss_mb"],
                     1.0 - m["ok_share"], result["correct"]))
    print(f"{'workload':<18} {'pkts_per_s':>14} {'setup_s':>10} {'peak_rss_mb':>12} "
          f"{'fail_share':>11}  correct")
    for name, pps, setup, rss, fail, correct in rows:
        print(f"{name:<18} {pps:>14.0f} {setup:>10.6f} {rss:>12.1f} {fail:>11.5f}  {correct}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = parser.parse_args()

    started = time.monotonic()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.test:
            out = build(tests=True)
            return subprocess.run([str(out / "perfbench_test")], cwd=ROOT).returncode
        binary = build() / "perfbench"
        log(f"perfbench: built in {time.monotonic() - started:.1f} s")
        if args.workload == "all":
            return run_all(binary, spec, args.seed, seconds)
        lines, _ = run_workload(binary, args.workload, args.seed, seconds, args.trace == 1, spec)
        print(lines[-1], flush=True)
        return 0
    except (OSError, ValueError, RuntimeError, KeyError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
