#!/usr/bin/env python3
"""Builds and runs the repo benchmark; see perfbench/README.md.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The first form runs one workload and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The lines before it are a human-readable report: host
context, every end-to-end metric with its unit, and the simulated
outcome. `--workload all` runs every workload untraced and then traced.

The benchmark builds the platform from source (Release) into
.bench_build/ under the checkout root on first use. It exits non-zero
without a result when the build fails, the program reports a failed
correctness check, or a flag is unknown.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "pstore_perfbench"
WORKLOADS = ("engine", "provisioning")
# A unit that overruns --seconds ends the run late; past this the
# program is stopped and the run fails.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="P-Store platform benchmark",
        allow_abbrev=False,
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")
    return args


def build():
    """Configures (once) and builds the benchmark binary; True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("error: platform sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", str(BUILD_DIR), "--target",
               "pstore_perfbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def source_digest():
    """Commit of the checkout, or a digest of its sources when the
    checkout is not a git repository."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--",
                 "src", "perfbench"], capture_output=True, text=True)
            suffix = "-dirty" if dirty.stdout.strip() else ""
            return "git:" + done.stdout.strip() + suffix
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def load_declared():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def check_repeat(workload, seed, outcome, digest):
    """Equal seeds on the same sources must give equal simulated
    outcomes across runs: the first run of a (sources, workload, seed)
    records its outcome, later ones compare against it."""
    key = hashlib.sha256(digest.encode()).hexdigest()[:16]
    path = ROOT / ".bench_build" / "outcomes" / key / f"{workload}-{seed}.json"
    if path.is_file():
        with open(path) as f:
            if json.load(f) != outcome:
                return [f"outcome differs from an earlier run of seed {seed}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as f:
        json.dump(outcome, f, sort_keys=True)
    tmp.replace(path)
    return []


def run_one(workload, seed, seconds, traced, digest):
    """Runs the binary once; returns (result line dict, failed checks)."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    load_before = os.getloadavg()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {RUN_TIMEOUT_S} s"]
    load_after = os.getloadavg()
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None, [f"program exited {done.returncode} without a result"]
    out = json.loads(lines[-1])
    failed = list(out["failed_checks"])
    if done.returncode != 0 and not failed:
        failed.append(f"program exited {done.returncode}")
    if out["build_type"] != "Release":
        failed.append("not a Release build")
    failed += check_repeat(workload, seed, out["outcome"], digest)
    out["context"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "build_type": out["build_type"],
        "pstore_tracing": out["tracing_compiled"],
        "compiler": out["compiler"],
        "commit": digest,
    }
    return out, failed


def print_report(out, traced):
    name = out["workload"]
    mode = "traced" if traced else "untraced"
    print(f"== {name} seed={out['seed']} ({mode}, {out['units']} unit(s))")
    print("context: " + json.dumps(out["context"], sort_keys=True))
    report = out["report"]
    throughput = out["throughput_name"]
    per_unit = ", ".join(f"{x:.6g}" for x in out["unit_throughput"])
    print(f"  {throughput:<22} {report[throughput]:.6g} "
          f"{out['throughput_unit']} (expected best of 2 per segment; "
          f"per unit: {per_unit})")
    units = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share",
             "step_ms_p50": "ms", "sla_violation_windows": "windows",
             "machine_hours": "machine-h", "insufficient_pct": "%"}
    for key, unit in units.items():
        if key in report:
            print(f"  {key:<22} {report[key]:.6g} {unit}")
    if "step_ms_tail" in report:
        print(f"  {'step_ms_tail':<22} {report['step_ms_tail']:.6g} ms "
              f"(p{report['step_tail_pct']:.2f} of "
              f"{int(report['steps'])} steps)")
    print("  outcome: " + json.dumps(out["outcome"], sort_keys=True))
    if traced:
        for key, value in out["metrics"].items():
            print(f"  {key:<30} {value:.6g}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_workload(workload, seed, seconds, traced, digest, declared):
    """Runs one workload; returns (correct, attempted, failed, metrics)."""
    out, failed_checks = run_one(workload, seed, seconds, traced, digest)
    if out is None:
        for check in failed_checks:
            log(f"error: {workload}: {check}")
        return None
    print_report(out, traced)
    metrics = {}
    for metric in declared:
        value = out["metrics"].get(metric["name"])
        if value is None:
            failed_checks.append(f"metric {metric['name']} not produced")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for check in failed_checks:
        print(f"  FAILED CHECK: {check}")
    return (not failed_checks, max(1, out["attempted"]), out["failed"],
            metrics)


def main(argv):
    args = parse_args(argv)
    try:
        end_to_end, per_layer = load_declared()
    except (OSError, ValueError, KeyError) as error:
        log(f"error: cannot read BENCHMARK.json: {error}")
        return 1
    if not build():
        log("error: build failed")
        return 1
    digest = source_digest()

    if args.workload != "all":
        declared = per_layer if args.trace else end_to_end
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace == 1, digest, declared)
        if result is None:
            return 1
        correct, attempted, failed, metrics = result
        print(result_line(correct, attempted, failed, metrics))
        return 0 if correct else 1

    # Every workload untraced, then every workload traced.
    all_correct, all_attempted, all_failed, all_metrics = True, 0, 0, {}
    for traced in (False, True):
        for workload in WORKLOADS:
            declared = per_layer if traced else end_to_end
            result = run_workload(workload, args.seed, args.seconds, traced,
                                  digest, declared)
            if result is None:
                return 1
            correct, attempted, failed, metrics = result
            all_correct = all_correct and correct
            all_attempted += attempted
            all_failed += failed
            for name, metric in metrics.items():
                all_metrics[f"{workload}.{name}"] = metric
    print(result_line(all_correct, all_attempted, all_failed, all_metrics))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
