"""Seeded workloads. Each op calls the package's public API (or its CLI) and
checks the result against the tolerances pinned in tests/test_acceptance.py.

An op raises `CheckFailed` when a result is wrong; the runner counts that,
like any exception, as a failed op and carries on.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import contractive as C

TWO_PI = 2.0 * math.pi
SCALES = C.PhysicalScales()

# Tolerances pinned in tests/test_acceptance.py.
MOMENT_TOL = 1e-8          # criteria 1 and 4
BAND_SLACK = 1e-9          # criterion 5
ORACLE_OSC_TOL = 1e-6      # criterion 9
ORACLE_FM_TOL = 1e-4       # criterion 9
GRID_TOL = 5e-3            # criterion 8's deviation target
SOLVE_TOL = 1e-10          # criterion 3
IDENTITY_TOL = 1e-8        # operator identities at dim >= 64
# suite_overcompleteness passes a Monte Carlo run whose deviation is below
# TARGET * sqrt(ANCHOR / budget) * 2. Over fresh seeds that gate failed 2 runs
# in 2,500 at budget 2,000 (worst deviation 1.13x the gate); the worst was
# 0.95x of 3,200 at 5,000 and 0.86x of 600 at 20,000, the ratio's spread not
# shrinking with the budget. A correct build would then fail about one op in
# a few thousand, i.e. some benchmark evaluations, so ops are gated with
# slack 3 and the count above the suite's own gate is reported beside it.
MC_TARGET = 5e-3
MC_ANCHOR = 1_000_000
MC_SUITE_SLACK = 2.0
MC_GATE_SLACK = 3.0


class CheckFailed(Exception):
    """An op ran but its result is outside the pinned tolerance."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def op_rng(seed: int, i: int) -> np.random.Generator:
    """Inputs of op i are a function of (seed, i) only."""
    return np.random.default_rng([seed, i])


def draw_alpha(rng, scale=1.4) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def band_within(trace) -> float:
    return float(np.max(np.maximum(trace.rql_lower - trace.var_x,
                                   trace.var_x - trace.rql_upper)))


class Sweep:
    """Squeezed coherent (even ops) and squeezed generic-coherent (odd ops)
    states at cutoff 256, drawn as in acceptance criteria 1 and 4."""

    name = "sweep"
    tail_pct = 80.0
    DIM = 256
    N_BAR_MAX = 6.0

    def __init__(self, seed, tracer, workdir):
        self.seed = seed
        self.tracer = tracer

    def input(self, i):
        rng = op_rng(self.seed, i)
        alpha = draw_alpha(rng)
        r = float(rng.uniform(0.0, 1.0))
        if i % 2 == 0:
            return {"kind": "scs", "alpha": alpha,
                    "r": r, "theta": float(rng.uniform(0.0, TWO_PI))}
        # criterion 4: theta = 0 for one generic state in five, otherwise
        # away from sin(theta) = 0 where the covariance identity is ill-posed
        theta = 0.0
        if (i // 2) % 5:
            theta = float(rng.uniform(0.0, TWO_PI))
            while abs(math.sin(theta)) < 0.01:
                theta = float(rng.uniform(0.0, TWO_PI))
        if rng.random() < 0.5:
            shells = int(rng.integers(1, 3))
            source = ("lattice", shells,
                      float(rng.uniform(0.0, min(self.N_BAR_MAX, 3.0 * shells))))
        else:
            source = ("band", int(rng.integers(2**62)))
        return {"kind": "sgcs", "alpha": alpha, "r": r, "theta": theta,
                "source": source}

    def draw_seed(self, source):
        """Lattice seed tuned to a target n_bar, or a solved random band with
        n_bar <= N_BAR_MAX (degenerate specs are retried)."""
        if source[0] == "lattice":
            return C.lattice_phi_for_nbar(source[2], source[1])
        rng = np.random.default_rng(source[1])
        while True:
            n = int(rng.integers(0, 4))
            N = int(rng.integers(n + 3, 10))
            free = tuple(complex(rng.normal(), rng.normal()) for _ in range(N - 1 - n))
            try:
                phi = C.solve_phi(C.PhiSpec(n=n, N=N, free=free))
            except C.DegenerateSpecError:
                continue
            if phi.n_bar <= self.N_BAR_MAX:
                return phi

    def op(self, inp):
        params = C.SqueezeParams(r=inp["r"], theta=inp["theta"])
        if inp["kind"] == "scs":
            state = C.make_scs(inp["alpha"], params, dim=self.DIM)
            n_bar = 0.0
            want = C.scs_predicted_moments(params)
        else:
            with self.tracer.span("gcs.seed"):
                phi = self.draw_seed(inp["source"])
            state = C.make_sgcs(inp["alpha"], params, phi.state, dim=self.DIM)
            n_bar = phi.n_bar
            want = C.sgcs_predicted_moments(n_bar, params)
        got = C.summarize(state)
        flags = C.classify(got)
        worst = max(abs(got.var_x - want.var_x), abs(got.var_p - want.var_p),
                    abs(got.cov - want.cov))
        if inp["kind"] == "sgcs":
            root = math.sqrt(max(4.0 * got.var_x * got.var_p - (2.0 * n_bar + 1.0) ** 2, 0.0))
            sin_t = math.sin(inp["theta"])
            worst = max(worst, abs(got.cov - (-math.copysign(root, sin_t) if sin_t else 0.0)))
        check(worst < MOMENT_TOL, f"{inp['kind']} moment deviation {worst:.3e}")
        # flags must follow the predicted moments wherever they are not
        # within rounding of the classification threshold
        if abs(want.var_p - want.var_x - C.moments.CLASSIFY_TOL) > 1e-6:
            check(flags.is_squeezed == (want.var_x < want.var_p - C.moments.CLASSIFY_TOL),
                  "is_squeezed flag disagrees with the closed form")
        if abs(want.cov + C.moments.CLASSIFY_TOL) > 1e-6:
            check(flags.is_contractive == (want.cov < -C.moments.CLASSIFY_TOL),
                  "is_contractive flag disagrees with the closed form")

    def close(self):
        pass


class Audit:
    """Random dim-64 states: moments, both analytic trajectories with band
    containment, and the Schrodinger oracle against the analytic law."""

    name = "audit"
    # Far fewer than the ~15,000 ops of a run lie beyond p99.9, but there host
    # hiccups decide the value: across ten seeds of 25 s runs its quartiles
    # spread 37% of the median, p99 32%, p95 18%, p90 12%.
    tail_pct = 90.0
    DIM = 64
    OSC_TIMES = np.linspace(0.0, TWO_PI, 20)
    FM_TIMES = np.linspace(0.0, 3.0, 20)
    # The free-mass oracle embeds the state at 4x its occupied band; past
    # t ~ 2.1 a random dim-64 state spreads beyond that and the oracle
    # raises TruncationError by design, so its time is drawn from t <= 1.42.
    FM_ORACLE_STEPS = 9

    def __init__(self, seed, tracer, workdir):
        self.seed = seed

    def input(self, i):
        return {"rng": op_rng(self.seed, i), "osc_first": i % 5,
                "fm_step": 1 + i % self.FM_ORACLE_STEPS}

    def op(self, inp):
        state = C.random_state(self.DIM, inp["rng"])
        summary = C.summarize(state)
        osc = C.evolve_oscillator(summary, SCALES.omega, self.OSC_TIMES)
        fm = C.evolve_free_mass(summary, SCALES, self.FM_TIMES)
        for trace in (osc, fm):
            viol = band_within(trace)
            check(viol <= BAND_SLACK, f"{trace.system} band violation {viol:.3e}")
        for j in range(inp["osc_first"], len(self.OSC_TIMES), 5):
            got = C.schrodinger_oracle(state, "oscillator", SCALES, float(self.OSC_TIMES[j]))
            err = abs(got.var_x - osc.var_x[j])
            check(err < ORACLE_OSC_TOL, f"oscillator oracle mismatch {err:.3e}")
        k = inp["fm_step"]
        got = C.schrodinger_oracle(state, "free-mass", SCALES, float(self.FM_TIMES[k]))
        err = abs(got.var_x - fm.var_x[k])
        check(err < ORACLE_FM_TOL, f"free-mass oracle mismatch {err:.3e}")

    def close(self):
        pass


class Identity:
    """Resolution of the identity for criterion 8's family: one Monte Carlo
    estimate with a fresh seed, then one quadrature-grid estimate."""

    name = "identity"
    # A run makes only about eight ops, too few for any tail with 10 samples
    # beyond it; p75 is the third-largest of eight.
    tail_pct = 75.0
    PROBE_DIM = 6
    # The Monte Carlo use the tests make (criterion 8 runs 62.5k to 1M); its
    # gate is 5e-3 * sqrt(10) * 3 = 0.047.
    MC_BUDGET = 100_000
    GRID_BUDGET = 10_000

    def __init__(self, seed, tracer, workdir):
        self.seed = seed
        self.phi = C.lattice_phi([1.0, 1.0]).state
        self.params = C.SqueezeParams(r=0.3, theta=0.0)
        rate = MC_TARGET * max(1.0, math.sqrt(MC_ANCHOR / self.MC_BUDGET))
        self.suite_threshold = rate * MC_SUITE_SLACK
        self.mc_threshold = rate * MC_GATE_SLACK
        self.grid_tol = GRID_TOL
        self.stats = {"mc_ops": 0, "mc_above_suite_gate": 0, "mc_worst_over_suite_gate": 0.0}

    def input(self, i):
        return int(op_rng(self.seed, i).integers(2**31))

    def op(self, mc_seed):
        mc = C.check_overcompleteness(self.phi, self.params, probe_dim=self.PROBE_DIM,
                                      budget=self.MC_BUDGET, method="monte-carlo",
                                      seed=mc_seed)
        check(mc.probe_dim == self.PROBE_DIM and mc.budget == self.MC_BUDGET,
              "monte-carlo report does not echo its inputs")
        ratio = mc.max_abs_deviation / self.suite_threshold
        self.stats["mc_ops"] += 1
        self.stats["mc_above_suite_gate"] += int(ratio >= 1.0)
        self.stats["mc_worst_over_suite_gate"] = max(self.stats["mc_worst_over_suite_gate"], ratio)
        check(mc.max_abs_deviation < self.mc_threshold,
              f"monte-carlo deviation {mc.max_abs_deviation:.3e}")
        grid = C.check_overcompleteness(self.phi, self.params, probe_dim=self.PROBE_DIM,
                                        budget=self.GRID_BUDGET, method="grid")
        check(grid.max_abs_deviation < self.grid_tol,
              f"grid deviation {grid.max_abs_deviation:.3e}")

    def close(self):
        pass


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.4f}{z.imag:+.4f}i"


def _near(a, b, tol, what):
    check(abs(float(a) - float(b)) < tol, f"{what}: {a} vs {b}")


class Cli:
    """One-shot CLI processes in sequence, cycling through a fixed set of
    argv drawn from the seed. Every run must exit 0, parse, match the
    library, and print stdout byte-identical to the first run of its argv."""

    name = "cli"
    tail_pct = 60.0
    DIM = 128  # the CLI's default cutoff

    def __init__(self, seed, tracer, workdir):
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        src = os.path.join(self.root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.cli = importlib.import_module("contractive.cli")
        self.first_stdout = {}
        self.peak_child_kb = 0
        self.exit_codes = []
        try:
            self.cases = self._cases(np.random.default_rng([seed, 0]))
        except BaseException:
            self.close()
            raise

    def _write(self, name, state):
        path = os.path.join(self.tmp, name)
        state.dump(path)
        return path

    def _cases(self, rng):
        """(argv, checker) pairs; each checker gets the decoded stdout.
        Values that may be negative are passed as --opt=value."""
        cases = []
        for _ in range(2):
            alpha = complex(*np.round(rng.uniform(-1.0, 1.0, 2), 4))
            r, theta = (round(float(v), 4) for v in (rng.uniform(0.0, 0.8),
                                                     rng.uniform(0.0, TWO_PI)))
            want = C.scs_predicted_moments(C.SqueezeParams(r=r, theta=theta))
            cases.append((["state", "build", "scs", f"--alpha={_fmt_complex(alpha)}",
                           "--r", f"{r:.4f}", "--theta", f"{theta:.4f}"],
                          # the closed form's n_bar is the seed's, not the state's
                          self._moments_checker(want, MOMENT_TOL, ("var_x", "var_p", "cov"))))
            alpha = complex(*np.round(rng.uniform(-1.0, 1.0, 2), 4))
            coherent = C.MomentSummary(var_x=0.5, var_p=0.5, cov=0.0,
                                       n_bar=abs(alpha) ** 2)
            cases.append((["state", "build", "coherent", f"--alpha={_fmt_complex(alpha)}"],
                          self._moments_checker(coherent, MOMENT_TOL)))

        # a contractive squeezed coherent state and a generic random state
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        contractive_state = C.make_scs(draw_alpha(rng, 1.0),
                                       C.SqueezeParams(r=float(rng.uniform(0.2, 0.6)),
                                                       theta=theta), dim=self.DIM)
        generic_state = C.random_state(64, rng)
        files = {"scs": self._write("scs.json", contractive_state),
                 "random": self._write("random.json", generic_state)}
        summaries = {k: C.summarize(C.FockVector.load(p)) for k, p in files.items()}

        cases.append((["state", "moments", files["scs"]],
                      self._moments_checker(summaries["scs"], 1e-12)))
        cases.append((["state", "moments", files["random"], "--format", "csv"],
                      self._csv_moments_checker(summaries["random"])))

        t_max = round(float(rng.uniform(0.5, 2.0)), 3)
        cases.append((["evolve", files["scs"], "--system", "free-mass",
                       "--t-max", str(t_max), "--samples", "40", "--expect-contractive"],
                      self._evolve_checker(summaries["scs"], "free-mass", t_max, 40)))
        cases.append((["evolve", files["random"], "--system", "oscillator",
                       "--t-max", f"{TWO_PI:.6f}", "--samples", "40"],
                      self._evolve_checker(summaries["random"], "oscillator",
                                           float(f"{TWO_PI:.6f}"), 40)))
        for system, key in (("oscillator", "random"), ("free-mass", "scs")):
            t = round(float(rng.uniform(0.1, 3.0)), 3)
            cases.append((["rql-band", files[key], "--system", system, "--time", str(t)],
                          self._band_checker(summaries[key], system, t)))
        for _ in range(2):
            while True:
                n = int(rng.integers(0, 4))
                N = int(rng.integers(n + 3, 9))
                free = [complex(*np.round(rng.normal(size=2), 4)) for _ in range(N - 1 - n)]
                try:
                    solved = C.solve_phi(C.PhiSpec(n=n, N=N, free=tuple(free)),
                                         dim=max(self.DIM, N + 1))
                except C.DegenerateSpecError:
                    continue
                break
            cases.append((["gcs", "solve", "--low", str(n), "--high", str(N),
                           "--free=" + ",".join(_fmt_complex(c) for c in free)],
                          self._solve_checker(solved.n_bar)))
        cases.append((["verify", "identities"], self._identities_checker))
        return cases

    @staticmethod
    def _moments_checker(want, tol, keys=("var_x", "var_p", "cov", "n_bar")):
        def checker(text):
            got = json.loads(text)
            for key in keys:
                _near(got[key], getattr(want, key), tol, key)
            check(set(got["flags"]) == {"is_squeezed", "is_contractive",
                                        "is_gcs", "is_extremal"}, "flags missing")
        return checker

    @staticmethod
    def _csv_moments_checker(want):
        def checker(text):
            rows = list(csv.reader(io.StringIO(text)))
            check(rows[0] == ["var_x", "var_p", "cov", "n_bar", "uncertainty_product"]
                  and len(rows) == 2, "moments csv layout")
            values = dict(zip(rows[0], rows[1]))
            for key in ("var_x", "var_p", "cov", "n_bar", "uncertainty_product"):
                _near(values[key], getattr(want, key), 1e-12, key)
        return checker

    @staticmethod
    def _evolve_checker(summary, system, t_max, samples):
        times = np.linspace(0.0, t_max, samples)
        if system == "oscillator":
            want = C.evolve_oscillator(summary, SCALES.omega, times)
        else:
            want = C.evolve_free_mass(summary, SCALES, times)
        window = C.contraction_window(summary, SCALES) if summary.cov < 0 else None

        def checker(text):
            lines = text.splitlines()
            rows = list(csv.reader(lines[:samples + 1]))
            check(rows[0] == ["t", "var_x", "rql_lower", "rql_upper", "sql"],
                  "evolve csv header")
            data = np.array([[float(v) if v else math.nan for v in row] for row in rows[1:]])
            check(data.shape == (samples, 5), f"evolve csv shape {data.shape}")
            check(np.max(np.abs(data[:, 1] - want.var_x)) < 1e-12, "evolve var_x")
            viol = np.max(np.maximum(data[:, 2] - data[:, 1], data[:, 1] - data[:, 3]))
            check(viol <= BAND_SLACK, f"evolve band violation {viol:.3e}")
            tail = lines[samples + 1:]
            if window is None:
                check(not tail, "unexpected contraction window")
            else:
                got = json.loads(tail[0])
                _near(got["t_m"], window.t_m, 1e-12, "t_m")
                _near(got["var_at_min"], window.var_at_min, 1e-12, "var_at_min")
        return checker

    @staticmethod
    def _band_checker(summary, system, t):
        lower, upper = C.rql_band(summary, system, SCALES, t)

        def checker(text):
            got = json.loads(text)
            _near(got["lower"], lower, 1e-12, "lower")
            _near(got["upper"], upper, 1e-12, "upper")
            check(got["system"] == system, "system echoed")
        return checker

    @staticmethod
    def _solve_checker(n_bar):
        def checker(text):
            got = json.loads(text)
            check(got["residual_a"] < SOLVE_TOL and got["residual_a2"] < SOLVE_TOL,
                  "seed residuals")
            _near(got["n_bar"], n_bar, 1e-12, "n_bar")
        return checker

    @staticmethod
    def _identities_checker(text):
        got = json.loads(text)
        check(got["passed"] is True, "identities suite failed")
        check(got["checks"][0]["worst_residual"] < IDENTITY_TOL, "identity residual")

    def input(self, i):
        return i % len(self.cases)

    def run_cli(self, argv):
        """One CLI process; returns (exit code, stdout bytes, peak RSS KiB)."""
        cmd = [sys.executable, "-m", "contractive.cli", *argv]
        with tempfile.TemporaryFile(dir=self.tmp) as err, \
                subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                 env=self.env, cwd=self.root) as proc:
            out = proc.stdout.read()
            # reap here rather than in Popen so the child's own rusage is kept
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace")[-2000:])
        return proc.returncode, out, usage.ru_maxrss

    def op(self, index):
        argv, checker = self.cases[index]
        code, out, rss_kb = self.run_cli(argv)
        self.peak_child_kb = max(self.peak_child_kb, rss_kb)
        self.exit_codes.append(code)
        check(code == 0, f"exit code {code} for {' '.join(argv[:2])}")
        first = self.first_stdout.setdefault(index, out)
        check(out == first, f"stdout differs from the first run of {' '.join(argv[:2])}")
        checker(out.decode())

    def main_op(self, index):
        """The same op through in-process contractive.cli.main(argv), so the
        layers the CLI calls can be traced; stdout is captured and must
        match the CLI process byte for byte."""
        argv, checker = self.cases[index]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        self.exit_codes.append(code)
        check(code == 0, f"main exit code {code} for {' '.join(argv[:2])}")
        out = buf.getvalue().encode()
        check(out == self.first_stdout.setdefault(index, out),
              f"in-process stdout differs for {' '.join(argv[:2])}")
        checker(out.decode())

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Audit, Identity, Cli)}
