#!/usr/bin/env python3
"""Live serving benchmark: build, run one workload, print one JSON line.

    python3 livebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 livebench/run.py --steady N [--seconds S]
    python3 livebench/run.py --selftest

Run from the root of a full checkout.  The first call compiles the
livebench package (the repo's src/ libraries plus lb_server and lb_gen)
into .bench_build/livebench; later calls reuse it.  The load generator's
line report goes to stderr; the last line of stdout is the JSON result,
whose metrics are the ones BENCHMARK.json lists (end_to_end with
--trace 0, per_layer with --trace 1).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "livebench")
BUILD = os.path.join(ROOT, ".bench_build", "livebench")
WORKLOADS = ["prompt_visits", "legacy_hol", "page_render"]
RUN_TIMEOUT_S = 170
# Printed by --steady next to the gated end-to-end metrics: the ones only
# some workloads have, and the CPU costs whose medians move between sets of
# runs by more than the largest bound (livebench/README.md says which).
STEADY_EXTRA = ["server_cpu_ms_per_view", "client_cpu_ms_per_view",
                "view_p99_ms", "probe_p50_ms", "probe_p99_ms",
                "probe_lateness_mean_ms", "probe_lateness_p99_ms"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("livebench: no src/ next to livebench/; run from a full checkout")
        sys.exit(2)
    steps = [["cmake", "--build", BUILD, "-j", "4", "--target", *targets]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", PACKAGE, "-B", BUILD])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("livebench: build failed: " + " ".join(step))
            sys.exit(1)


def parse_report(text):
    """lb_gen's line report -> (metrics {name: (value|None, unit)}, ops, correct)."""
    metrics, ops, correct = {}, {}, False
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "metric" and len(fields) == 4:
            value = None if fields[2] == "absent" else float(fields[2])
            metrics[fields[1]] = (value, fields[3])
        elif fields[0] == "ops" and len(fields) == 4:
            attempted = int(fields[2].split("=")[1])
            failed = int(fields[3].split("=")[1])
            ops[fields[1]] = (attempted, failed)
        elif fields[0] == "correct":
            correct = fields[1] == "true"
    return metrics, ops, correct


def run_once(workload, seed, seconds, trace):
    """Run lb_gen once; returns (metrics, ops, correct) or exits on failure."""
    spans_dir = os.path.join(ROOT, "bench_out", "livebench")
    os.makedirs(spans_dir, exist_ok=True)
    command = [os.path.join(BUILD, "lb_gen"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--server", os.path.join(BUILD, "lb_server"),
               "--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.spans.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"livebench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stderr.write(done.stdout)
    if done.returncode != 0:
        log(f"livebench: lb_gen exited with {done.returncode}")
        sys.exit(1)
    return parse_report(done.stdout)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    return [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]


def result_line(metrics, ops, correct, trace):
    attempted, failed = ops.get("views", (0, 0))
    chosen = {}
    for name in declared_metrics(trace):
        value, unit = metrics.get(name, (None, ""))
        if value is None:
            log(f"livebench: metric {name} is absent in this run")
            continue
        chosen[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": chosen})


def steady(runs, seconds):
    """Run each BENCHMARK.json workload `runs` times, alternating the
    workload order, and print each end-to-end metric's median, quartiles
    and spreads."""
    workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    names = declared_metrics(0) + STEADY_EXTRA
    samples = {w: {n: [] for n in names} for w in workloads}
    failed_share = {w: set() for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            metrics, ops, correct = run_once(workload, 1000 + i, seconds, 0)
            if not correct:
                log(f"livebench: {workload} run {i} failed its checks")
                sys.exit(1)
            attempted, failed = ops["views"]
            failed_share[workload].add((failed, attempted))
            for name in names:
                value = metrics.get(name, (None, ""))[0]
                if value is not None:
                    samples[workload][name].append(value)
    print(f"{'workload':14} {'metric':24} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'iqr/med':>8} {'range/med':>9}")
    for workload in workloads:
        for name in names:
            values = samples[workload][name]
            if len(values) < 2:
                if name not in STEADY_EXTRA:
                    print(f"{workload:14} {name:24} {'absent':>12}")
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:14} {name:24} {median:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {(q3 - q1) / median:8.3f}"
                  f" {(max(values) - min(values)) / median:9.3f}")
        print(f"{workload:14} {'failed/attempted':24} "
              + ", ".join(f"{f}/{a}" for f, a in sorted(failed_share[workload])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["lb_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "lb_test")]).returncode)
    if args.steady:
        build(["lb_server", "lb_gen"])
        steady(args.steady, args.seconds)
        return
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    build(["lb_server", "lb_gen"])
    metrics, ops, correct = run_once(args.workload, args.seed, args.seconds,
                                     args.trace)
    print(result_line(metrics, ops, correct, args.trace), flush=True)


if __name__ == "__main__":
    main()
