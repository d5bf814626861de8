"""Repository benchmark for the `contractive` package.

    python3 perfbench/run.py --workload {sweep,audit,identity,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory. One closed-loop client in this process issues ops back to
back for S seconds (cli ops are one CLI process at a time), checks every
result, and prints each metric by name and unit. The last stdout line is the
JSON result. With --trace 0 it holds the end-to-end metrics; with --trace 1
the run is split into an untraced and a traced half and it holds the
per-layer metrics. BLAS threads are left at the library default and recorded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Fresh interpreters timed for setup_s, and for each cli.* probe.
SETUP_REPEATS = 5
PROBE_REPEATS = 5


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import contractive from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "contractive", "__init__.py")):
        fail(f"no package source at {os.path.relpath(SRC)}/contractive")
    sys.path.insert(0, SRC)
    import contractive

    if not os.path.abspath(contractive.__file__).startswith(SRC + os.sep):
        fail(f"imported contractive from {contractive.__file__}, not {SRC}")


def make_workload(name, seed, tracer):
    """Inputs and fixtures for the workload, then one warm-up op that fills
    the package's operator and eigh caches."""
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, tracer, OUT)
    try:
        workload.op(workload.input(0))
    except BaseException:
        workload.close()
        raise
    return workload


def run_loop(op, input_of, seconds, tracer, max_ops=None, root="op"):
    """Closed loop: the next op starts when the previous one has finished.
    Every failure is counted; none aborts the run."""
    latencies, errors = [], []
    start = time.perf_counter()
    i = 0
    while True:
        inp = input_of(i)
        tracer.op = i
        t0 = time.perf_counter()
        try:
            with tracer.span(root):
                op(inp)
        except Exception as exc:
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        i += 1
        if t1 - start >= seconds or (max_ops is not None and i >= max_ops):
            return {"latencies": latencies, "failed": len(errors),
                    "errors": errors, "elapsed": t1 - start}


def tail(latencies, pct):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def time_fresh(cmd, env=None, ready=None):
    """Wall time of a fresh interpreter until it prints the line `ready`,
    or until it exits when no line is awaited."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env) as proc:
        line = proc.stdout.readline() if ready else b""
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if ready is None:
        t1 = time.perf_counter()
    elif line != ready:
        fail(f"setup probe did not become ready: {line!r}")
    if code != 0:
        fail(f"{' '.join(cmd[1:3])} exited {code}")
    return t1 - t0


def measure_setup(args):
    """Median over fresh interpreters of imports, inputs and the warm-up op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = [time_fresh(cmd, ready=b"ready\n") for _ in range(SETUP_REPEATS)]
    return statistics.median(samples), samples


def cli_probes():
    """Median start-up of a bare interpreter, and the median extra time a
    fresh interpreter takes to `import contractive`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    bare, loaded = (statistics.median(time_fresh([sys.executable, "-c", code], env=env)
                                      for _ in range(PROBE_REPEATS))
                    for code in ("pass", "import contractive"))
    return {"interpreter": bare, "import": loaded - bare}


def end_to_end(args, workload, loop, setup_s):
    lat = loop["latencies"]
    ok = len(lat) - loop["failed"]
    tail_s, beyond = tail(lat, workload.tail_pct)
    if args.workload == "cli":
        rss_kb = workload.peak_child_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / loop["elapsed"], "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "ops_per_s": f"{ok} verified ops in {loop['elapsed']:.3f} s",
        "op_p50_ms": f"n={len(lat)}",
        "op_tail_ms": f"p{workload.tail_pct:g}, {beyond} samples beyond, n={len(lat)}",
        "peak_rss_mb": "largest CLI process" if args.workload == "cli" else "benchmark process",
    }
    detail = {"ops": len(lat), "tail_pct": workload.tail_pct, "tail_beyond": beyond,
              "latencies_s": lat}
    return metrics, notes, detail


def per_layer(totals, n_ops, unattributed_s, overhead, probes, main_s, cli_errors):
    """Per-layer metrics; calls and times are per op of the traced phase."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def per_op(name, key):
        return get(name, key) / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    def errors(layer):
        return sum(v["errors"] for k, v in totals.items() if k.startswith(layer + "."))

    solves = get("gcs.solve", "calls")
    block_s = get("verify.displaced_block", "s")
    metrics = {}
    for name in ("states.squeeze", "states.displace", "moments.summarize",
                 "dynamics.oracle_osc", "dynamics.oracle_fm"):
        metrics[f"{name}.calls"] = (per_op(name, "calls"), "calls/op")
        metrics[f"{name}.self_s"] = (per_op(name, "self_s"), "s/op")
    for name in ("dynamics.evolve", "verify.overcompleteness", "verify.displaced_block",
                 "gcs.seed", "fock.random_state"):
        metrics[f"{name}.calls"] = (per_op(name, "calls"), "calls/op")
        metrics[f"{name}.s"] = (per_op(name, "s"), "s/op")
    metrics.update({
        "states.build.ms_per_state": (1e3 * ratio(get("states.build", "s"),
                                                  get("states.build", "calls")), "ms"),
        "moments.summarize.us_per_call": (1e6 * ratio(get("moments.summarize", "s"),
                                                      get("moments.summarize", "calls")), "us"),
        "verify.displaced_block.points_per_s": (
            ratio(get("verify.displaced_block", "points"), block_s), "1/s"),
        "verify.choose_radius.s": (per_op("verify.choose_radius", "s"), "s/op"),
        "gcs.solve.ok_ratio": (ratio(solves - get("gcs.solve", "errors"), solves), "ratio"),
        "cli.interpreter_s": (probes["interpreter"], "s"),
        "cli.import_s": (probes["import"], "s"),
        "cli.main_s": (main_s, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unattributed_s": (unattributed_s, "s/op"),
    })
    for layer in ("states", "moments", "dynamics", "verify", "gcs", "fock"):
        metrics[f"{layer}.errors"] = (errors(layer), "count")
    metrics["cli.errors"] = (cli_errors, "count")
    return metrics


def run_traced(args, workload, tracing):
    """An untraced half, then a traced half of the same ops; the per-layer
    numbers come from the traced half and the difference is the overhead.
    cli ops are separate processes, so their layers are traced through the
    same argv run by in-process main() after the two halves."""
    half = args.seconds / 2.0
    plain = run_loop(workload.op, workload.input, half, tracing.Tracer(enabled=False))
    tracer = tracing.Tracer()
    workload.tracer = tracer
    with tracing.instrumented(tracer):
        traced = run_loop(workload.op, workload.input, half, tracer)
    loops = [plain, traced]
    tracers = {"op": tracer}
    plain_s = statistics.fmean(plain["latencies"])
    traced_s = statistics.fmean(traced["latencies"])
    probes = cli_probes()
    if args.workload == "cli":
        main_tracer = tracing.Tracer()
        with tracing.instrumented(main_tracer):
            mains = run_loop(workload.main_op, workload.input, math.inf, main_tracer,
                             max_ops=2 * len(workload.cases), root="cli.main")
        loops.append(mains)
        tracers["cli_main"] = main_tracer
        spans, n_ops = main_tracer.spans, len(mains["latencies"])
        main_s = statistics.fmean(mains["latencies"])
        unattributed = traced_s - probes["interpreter"] - probes["import"] - main_s
        cli_errors = sum(code != 0 for code in workload.exit_codes)
    else:
        spans, n_ops = tracer.spans, len(traced["latencies"])
        main_s, cli_errors = 0.0, 0
    totals = tracing.layer_totals(spans)
    if args.workload != "cli":
        layer_self = sum(v["self_s"] for k, v in totals.items() if k != "op")
        unattributed = traced_s - layer_self / n_ops
    metrics = per_layer(totals, n_ops, unattributed, 1.0 - plain_s / traced_s,
                        probes, main_s, cli_errors)
    detail = {"untraced_ops": len(plain["latencies"]), "traced_ops": len(traced["latencies"]),
              "untraced_op_s": plain_s, "traced_op_s": traced_s, "layer_ops": n_ops,
              "layers": dict(sorted(totals.items()))}
    return metrics, detail, loops, tracers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "audit", "identity", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, HERE)
    import tracing

    if args.probe:  # child side of setup_s
        workload = make_workload(args.workload, args.seed, tracing.Tracer(enabled=False))
        print("ready", flush=True)
        workload.close()
        return 0

    import machine

    setup_s, setup_samples = measure_setup(args) if not args.trace else (None, [])
    workload = make_workload(args.workload, args.seed, tracing.Tracer(enabled=False))
    try:
        if args.trace:
            metrics, detail, loops, tracers = run_traced(args, workload, tracing)
            notes = {}
        else:
            loop = run_loop(workload.op, workload.input, args.seconds,
                            tracing.Tracer(enabled=False))
            metrics, notes, detail = end_to_end(args, workload, loop, setup_s)
            detail["setup_samples_s"] = setup_samples
            loops, tracers = [loop], {}
    finally:
        workload.close()
    detail.update(getattr(workload, "stats", {}))
    attempted = sum(len(loop["latencies"]) for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    errors = [e for loop in loops for e in loop["errors"]]
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "client": "closed loop, one client, one process",
              "machine": machine.record(ROOT), "detail": detail,
              "attempted": attempted, "failed": failed, "errors": errors[:50],
              "metrics": result}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracers:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({k: t.to_json_dict() for k, t in tracers.items()}, fh)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  blas threads {record['machine']['blas']['threads']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit:9s} {notes.get(name, '')}")
    print(f"  {'fail_frac':38s} {failed / attempted:14.6g} {'ratio':9s} "
          f"{failed} of {attempted} ops failed")
    for line in errors[:5]:
        print(f"  error: {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
