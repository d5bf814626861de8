"""In-memory spans around calls into the package's layers.

A span records a name, start, end, the span that caused it and the op it
belongs to. Layer spans come from wrappers that `instrumented` installs over
public functions in every loaded `contractive` module namespace, so calls the
package makes internally (make_scs -> squeeze) are seen as well. Nothing here
edits the package's files, and the wrappers are removed on exit.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _oracle_name(args, kwargs):
    system = kwargs.get("system", args[1] if len(args) > 1 else None)
    return "dynamics.oracle_osc" if system == "oscillator" else "dynamics.oracle_fm"


def _block_points(args, kwargs):
    # alpha samples times probe rows
    alphas = kwargs.get("alphas", args[1] if len(args) > 1 else ())
    probe = kwargs.get("probe_dim", args[2] if len(args) > 2 else 0)
    return len(alphas) * int(probe)


# (module, function, span name, points counter). The span name may be a
# function of the call's arguments: schrodinger_oracle is split by the system
# it evolves. make_scs and make_sgcs share one name, the state builder.
TARGETS = [
    ("fock", "random_state", "fock.random_state", None),
    ("gcs", "solve_phi", "gcs.solve", None),
    ("states", "squeeze", "states.squeeze", None),
    ("states", "displace", "states.displace", None),
    ("states", "make_scs", "states.build", None),
    ("states", "make_sgcs", "states.build", None),
    ("moments", "summarize", "moments.summarize", None),
    ("dynamics", "evolve_oscillator", "dynamics.evolve", None),
    ("dynamics", "evolve_free_mass", "dynamics.evolve", None),
    ("dynamics", "schrodinger_oracle", _oracle_name, None),
    ("verify", "check_overcompleteness", "verify.overcompleteness", None),
    ("verify", "displaced_block", "verify.displaced_block", _block_points),
    ("verify", "choose_radius", "verify.choose_radius", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "points")

    def __init__(self, name, start, parent, op, points=0, end=None, error=False):
        self.name = name
        self.start = start
        self.end = start if end is None else end
        self.parent = parent
        self.op = op
        self.error = error
        self.points = points


class Tracer:
    """Collects spans in memory; `enabled` False makes `span` a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name, points):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = Span(name, time.perf_counter(), parent, self.op, points)
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = self._open(name, 0)
        try:
            yield rec
        except BaseException:
            rec.error = True
            raise
        finally:
            self._close(rec)

    def wrap(self, name, fn, points=None):
        """`fn` recorded as a span; written out rather than through `span`
        because it runs on every layer call."""
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = self._open(label, points(args, kwargs) if points else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.error = True
                raise
            finally:
                self._close(rec)
        wrapper.__wrapped__ = fn
        return wrapper

    def to_json_dict(self) -> dict:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start", "end", "parent", "op", "error", "points"],
            "names": names,
            "spans": [[index[s.name], s.start, s.end, s.parent, s.op,
                       int(s.error), s.points] for s in self.spans],
        }


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap each TARGETS function wherever a package module binds it, and
    restore the original bindings on exit. Targets missing from the package
    are skipped, so their layer simply reports no calls."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "contractive" or n.startswith("contractive."))]
    undo = []
    for mod_name, fn_name, span_name, points in TARGETS:
        home = sys.modules.get(f"contractive.{mod_name}")
        original = getattr(home, fn_name, None) if home else None
        if original is None:
            continue
        wrapper = tracer.wrap(span_name, original, points)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlaps among children counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, errors, inclusive seconds, self seconds, points."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "errors": 0, "s": 0.0,
                                  "self_s": 0.0, "points": 0})
    for s, own in zip(spans, selfs):
        t = totals[s.name]
        t["calls"] += 1
        t["errors"] += int(s.error)
        t["s"] += s.end - s.start
        t["self_s"] += own
        t["points"] += s.points
    return dict(totals)
