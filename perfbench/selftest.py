"""Self-tests of the benchmark itself: seeded inputs, span arithmetic, live
correctness gates, and the result contract.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import contractive as C  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out")


@contextlib.contextmanager
def patched(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def make(cls, seed):
    os.makedirs(OUT, exist_ok=True)
    return cls(seed, tracing.Tracer(enabled=False), OUT)


def fingerprint(workload, i):
    """Comparable form of op i's inputs (rngs by state, CLI by argv)."""
    if isinstance(workload, workloads.Cli):
        return [[a.replace(workload.tmp, "") for a in argv] for argv, _ in workload.cases]
    inp = workload.input(i)
    if isinstance(inp, dict):
        return {k: v.bit_generator.state if isinstance(v, np.random.Generator) else v
                for k, v in inp.items()}
    return inp


def failures(workload, ops, op=None):
    loop = run.run_loop(op or workload.op, workload.input, 60.0,
                        tracing.Tracer(enabled=False), max_ops=ops)
    return loop["failed"]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                a, b, c = make(cls, 7), make(cls, 7), make(cls, 8)
                try:
                    same = [fingerprint(a, i) == fingerprint(b, i) for i in range(6)]
                    other = [fingerprint(a, i) != fingerprint(c, i) for i in range(6)]
                finally:
                    for w in (a, b, c):
                        w.close()
                self.assertTrue(all(same))
                self.assertTrue(all(other))


def span(name, start, end, parent=-1):
    return tracing.Span(name, start, parent, 0, end=end)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        spans = [
            span("op", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("b", 3.0, 6.0, parent=0),   # overlaps a: union counted once
            span("c", 2.0, 3.0, parent=1),   # grandchild: only a loses it
            span("b", 8.0, 12.0, parent=0),  # runs past its parent: clipped
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 3.0, 1.0, 4.0])
        totals = tracing.layer_totals(spans)
        self.assertEqual(totals["b"]["calls"], 2)
        self.assertEqual(totals["b"]["self_s"], 7.0)
        self.assertEqual(totals["b"]["s"], 7.0)
        self.assertEqual(sum(t["self_s"] for t in totals.values()), 13.0)

    def test_wrapped_package_calls_nest_and_unwrap(self):
        tracer = tracing.Tracer()
        original = C.summarize
        with tracing.instrumented(tracer):
            self.assertIsNot(C.dynamics.summarize, original)
            state = C.random_state(32, np.random.default_rng(0))
            C.schrodinger_oracle(state, "oscillator", C.PhysicalScales(), 0.5)
        self.assertIs(C.dynamics.summarize, original)
        names = [(s.name, s.parent) for s in tracer.spans]
        self.assertEqual(names, [("fock.random_state", -1), ("dynamics.oracle_osc", -1),
                                 ("moments.summarize", 1)])

    def test_tail_is_nearest_rank_with_count_beyond(self):
        self.assertEqual(run.tail(list(range(1, 101)), 90.0), (90, 10))
        self.assertEqual(run.tail([5.0], 99.9), (5.0, 0))


class LiveGates(unittest.TestCase):
    """A wrong reference value must make ops fail; the true one must not."""

    def test_sweep(self):
        w = make(workloads.Sweep, 3)
        self.assertEqual(failures(w, 2), 0)
        real = C.scs_predicted_moments

        def wrong(params):
            m = real(params)
            return C.MomentSummary(var_x=m.var_x + 1e-6, var_p=m.var_p, cov=m.cov, n_bar=m.n_bar)
        with patched(C, "scs_predicted_moments", wrong):
            self.assertEqual(failures(w, 2), 1)

    def test_audit(self):
        w = make(workloads.Audit, 3)
        self.assertEqual(failures(w, 10), 0)
        real = C.evolve_oscillator

        def wrong(summary, omega, times):
            trace = real(summary, omega, times)
            return C.EvolutionTrace(trace.times, trace.var_x + 1e-5, trace.rql_lower,
                                    trace.rql_upper, trace.sql, trace.system)
        with patched(C, "evolve_oscillator", wrong):
            self.assertEqual(failures(w, 10), 10)

    def test_identity(self):
        w = make(workloads.Identity, 3)
        self.assertEqual(failures(w, 1), 0)
        w.grid_tol = 1e-9
        self.assertEqual(failures(w, 1), 1)

    def test_cli(self):
        real = C.scs_predicted_moments

        def wrong(params):
            m = real(params)
            return C.MomentSummary(var_x=m.var_x + 1e-6, var_p=m.var_p, cov=m.cov, n_bar=m.n_bar)
        good = make(workloads.Cli, 3)
        with patched(C, "scs_predicted_moments", wrong):
            bad = make(workloads.Cli, 3)
        try:
            self.assertEqual(failures(good, 1), 0)
            self.assertEqual(failures(good, 1, op=good.main_op), 0)
            self.assertEqual(failures(bad, 1), 1)  # op 0 builds a squeezed coherent state
        finally:
            good.close()
            bad.close()


class ResultContract(unittest.TestCase):
    def last_json(self, *extra):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *extra],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_untraced_and_traced_results(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        names = {0: {m["name"] for m in bench["end_to_end"]},
                 1: {m["name"] for m in bench["per_layer"]}}
        for trace in (0, 1):
            result = self.last_json("--workload", "audit", "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace))
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), names[trace])

    def test_refuses_to_run_without_package_source(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
