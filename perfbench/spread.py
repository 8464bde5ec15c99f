#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--trace 0] [--seconds 25]

Run from the repository root. For every metric it prints the median
over the seeds and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median -- the
figure the benchmark's bounds are compared with.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    seconds = args.seconds or str(json.load(open("BENCHMARK.json"))["run_seconds"])
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    values = {}
    for seed in seeds(args.seeds):
        cmd = COMMAND + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:32} median {med:14.4f}  spread {(q3 - q1) / med:7.4f}")
        else:
            print(f"{name:32} median {med:14.4f}")


if __name__ == "__main__":
    main()
