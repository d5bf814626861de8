"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--out perfbench/baseline.json]

Every workload in BENCHMARK.json is run for its run_seconds, untraced once
per seed, then traced on the first two seeds. Runs are made one at a time.
For the untraced runs it reports each metric's median, quartiles (as
statistics.quantiles(values, n=4) gives them) and spread, the distance
between the quartiles as a share of the median; for the traced runs the
median. With --out the summary is written there in the layout of
baseline.json, with the machine record and the source commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_SEEDS = 2


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd[2:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        machine = json.load(fh)["machine"]
    return result, machine


def summarise(values, quartiles):
    median = statistics.median(values)
    if not quartiles:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def collect(workload, seeds, seconds, trace):
    runs = [run_once(workload, seed, seconds, trace) for seed in seeds]
    first = runs[0][0]["metrics"]
    out = {"attempted": sum(r["attempted"] for r, _ in runs),
           "failed": sum(r["failed"] for r, _ in runs),
           "metrics": {n: {"unit": first[n]["unit"],
                           **summarise([r["metrics"][n]["value"] for r, _ in runs],
                                       quartiles=not trace)}
                       for n in first}}
    print(f"{workload} trace {trace}: {out['failed']} of {out['attempted']} ops failed",
          flush=True)
    for name, m in out["metrics"].items():
        spread = "" if m.get("spread") is None else f"spread {m['spread']:.4f}"
        print(f"  {name:38s} median {m['median']:12.6g} {m['unit']:9s} {spread}", flush=True)
    return out, runs[0][1]


def src_dirty():
    """Whether src/ differs from the checked-out commit (None outside git)."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                          capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    traced_seeds = args.seeds[:TRACED_SEEDS]
    end_to_end, per_layer = {}, {}
    for workload in names:
        end_to_end[workload], machine = collect(workload, args.seeds, seconds, 0)
    for workload in names:
        per_layer[workload], _ = collect(workload, traced_seeds, seconds, 1)
    if args.out:
        summary = {
            "description": "perfbench/collect.py on the package source of source_commit "
                           "(src_dirty: whether src/ differed from it): untraced runs "
                           "with median, quartiles and spread per metric, traced runs "
                           "with the median.",
            "source_commit": machine["commit"],
            "src_dirty": src_dirty(),
            "machine": {k: v for k, v in machine.items() if k not in ("commit", "dirty")},
            "run_seconds": seconds,
            "end_to_end": {"seeds": args.seeds, "workloads": end_to_end},
            "per_layer": {"seeds": traced_seeds, "workloads": per_layer},
        }
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
