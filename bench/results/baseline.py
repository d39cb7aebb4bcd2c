#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes it as JSON to stdout.

Run from the repository root:

    python3 bench/results/baseline.py > bench/results/<name>.json

It runs BENCHMARK.json's command on every workload:

  set1, set2   three runs each at seed 1 (two sets of the same code)
  seed2        one run at seed 2
  ten_seeds    seeds 1..10, the spread check: (q3 - q1) / median per metric
  traced       one --trace 1 run at seed 1 (the per-layer metrics)

and records, per end-to-end metric and workload, each set's values,
median, quartiles (statistics.quantiles, n=4) and spread, whether set2's
median lies within set1's median +/- the metric's bound, and the
environment stamp the runs printed.
"""

import json
import re
import statistics
import subprocess
import sys

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
seconds = str(bench["run_seconds"])


def run(workload, seed, trace=0):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", seconds, "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} failed")
    env = next((l for l in lines if l.startswith(f"[{workload}] env ")), "")
    stamp = dict(re.findall(r"(\w+)=(\S+)", env))
    keys = next((l for l in lines if l.startswith(f"[{workload}] keys served per replica")), "")
    stamp["keys_per_replica"] = [float(x) for x in re.findall(r"\[([^]]*)\]$", keys)[0].split()] if keys else []
    return res, stamp


def summary(values):
    med = statistics.median(values)
    out = {"values": values, "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0)
    return out


sets = {"set1": [1, 1, 1], "set2": [1, 1, 1], "seed2": [2], "ten_seeds": list(range(1, 11))}
doc = {"run_seconds": bench["run_seconds"], "command": bench["command"], "workloads": {}}
for w in [w["name"] for w in bench["workloads"]]:
    per_set = {}
    for name, seeds in sets.items():
        vals = {}
        for seed in seeds:
            res, env = run(w, seed)
            doc.setdefault("env", {k: env[k] for k in ("nproc", "GOMAXPROCS", "go", "commit", "disk_fs") if k in env})
            if seed == 1:
                keys = env["keys_per_replica"]
            for m, v in res["metrics"].items():
                vals.setdefault(m, []).append(v["value"])
        per_set[name] = {m: summary(v) for m, v in vals.items()}
    agree = {m: abs(per_set["set2"][m]["median"] - per_set["set1"][m]["median"])
             <= bounds[m] * per_set["set1"][m]["median"] for m in bounds}
    traced, _ = run(w, 1, trace=1)
    doc["workloads"][w] = {**per_set, "sets_agree_within_bound": agree, "keys_per_replica_seed1": keys,
                           "per_layer_seed1": {m: v["value"] for m, v in traced["metrics"].items()}}
json.dump(doc, sys.stdout, indent=2, sort_keys=True)
print()
