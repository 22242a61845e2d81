#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports each metric's spread.

Run from the repository root, for example five back-to-back runs of one
seed on every workload:

    python3 ipubench/steady.py --seeds 42,42,42,42,42

or ten runs of ten seeds on one workload:

    python3 ipubench/steady.py --workloads serve --seeds 1,2,3,4,5,6,7,8,9,10

For each workload and metric it prints the median and the quartile
spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), as a Markdown table, followed by the
host (nproc, CPU model, Go version). Raw results are appended, one JSON
object per run, to .bench_build/steady.jsonl.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ["matrix", "closedloop", "full", "serve"]


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return f"nproc={os.cpu_count()} cpu={model!r} {go} ({platform.system()})"


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "ipubench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="42,42,42,42,42")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    os.makedirs(".bench_build", exist_ok=True)
    print(f"host: {host()}")
    print(f"seeds: {args.seeds}; --seconds {args.seconds} --trace {args.trace}\n")
    print("| workload | metric | unit | median | quartile spread | runs |")
    print("|---|---|---:|---:|---:|---:|")
    with open(".bench_build/steady.jsonl", "a") as log:
        for w in args.workloads.split(","):
            runs = []
            for seed in seeds:
                out = run_once(w, seed, args.seconds, args.trace)
                log.write(json.dumps({"workload": w, "seed": seed, "result": out}) + "\n")
                log.flush()
                if not out["correct"]:
                    raise SystemExit(f"{w} seed {seed}: outputs failed the correctness check")
                runs.append(out["metrics"])
            for name in sorted(runs[0]):
                med, sp = spread([r[name]["value"] for r in runs])
                print(f"| {w} | {name} | {runs[0][name]['unit']} | {med:.6g} | {100 * sp:.2f}% | {len(runs)} |")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
