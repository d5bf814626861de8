"""Write, or byte-check, the CLI golden corpus in corpus.json.

    python tests/golden/regenerate.py          # rewrite corpus.json
    python tests/golden/regenerate.py --check  # exit 1 unless every case
                                               # prints the stored bytes

Each case is one `contractive` argv, run in order in one scratch directory
(the README examples read files that earlier ones write). A case stores its
exit code, its stdout and the text of the file its `--out` names. The
corpus also records the machine that wrote it (`machine()`).
tests/test_golden.py reruns the corpus: byte for byte on a machine that
matches the record, elsewhere with a float tolerance. This script is the
only way the corpus changes: never edit corpus.json by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

# The README examples, in order, then one argv per `state build` kind not
# already covered, each `verify` suite alone, and an sgcs sweep.
ARGVS = [
    "state build scs --alpha 1+0.5i --r 0.4 --theta 0.8 --dim 128 --out scs.json",
    "state moments scs.json --format csv",
    "gcs solve --low 1 --high 4 --free 1+0i,0.5+0.2i --out phi.json",
    "state build sgcs --phi phi.json --alpha 2+0i --r 0.3 --dim 128",
    "state build extremal --lam 1+1i --dim 64 --out ext.json",
    "evolve ext.json --system free-mass --t-max 1.0 --samples 5 --expect-contractive",
    "rql-band ext.json --system oscillator --time 0.7",
    "verify all --budget 200 --seed 1",
    "sweep --kind scs --alpha 0+0i,1+0i --r 0,0.5 --theta 0 --out grid.csv",
    "state build number --n 3 --dim 32",
    "state build coherent --alpha 1.5-0.5i --dim 64",
    "state build displaced-number --n 2 --alpha 0.5+1i --dim 64",
    "state build gcs-lattice --weights 1,2,1 --dim 32",
    "state build gcs-lattice --target-nbar 2.5 --dim 32",
    "state build gcs-solve --low 0 --high 4 --free 1,0.3+0.1i,-0.2i --dim 32",
    "state build sgcs --target-nbar 1.5 --alpha 0.5-0.5i --r 0.2 --theta 1.0 --dim 128",
    "state moments ext.json",
    "evolve ext.json --system oscillator --t-max 3 --samples 7",
    "rql-band scs.json --system free-mass --time 1.5 --mass 2",
    "verify uncertainty --seed 3",
    "verify rql --seed 3",
    "verify saturation --budget 20 --seed 3",
    "verify overcompleteness --budget 2000 --seed 3",
    "verify identities",
    "sweep --kind scs --alpha 1-0.5i --r 0.3,0.8 --theta 0,2 --dim 256",
    "sweep --kind sgcs --alpha 0.5+0i --r 0.1,0.4 --theta 0,1.2 --nbar 0.5,2 --dim 128",
]


def cpu_dispatch_features() -> list[str]:
    """The SIMD dispatch targets numpy was built with that this CPU runs
    (NPY_DISABLE_CPU_FEATURES switches them off), lowest first."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def machine() -> dict:
    """What the corpus bytes depend on besides the code: the numpy version,
    the SIMD features its kernels dispatch to, and the CPU count."""
    return {"numpy": np.__version__, "cpu_features": cpu_dispatch_features(),
            "cpu_count": os.cpu_count()}


def out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_case(main, argv: list[str]) -> dict:
    """Run one argv in the current directory; its exit code, stdout and
    --out file text."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    target = out_path(argv)
    files = {}
    if target is not None:
        files[target] = Path(target).read_text()
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "files": files}


def run_corpus(main, argvs) -> list[dict]:
    """Every argv in order, in one fresh directory, with CONTRACTIVE_DIM
    unset so the default cutoff applies where no --dim is given."""
    cwd = os.getcwd()
    env_dim = os.environ.pop("CONTRACTIVE_DIM", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return [run_case(main, list(argv)) for argv in argvs]
        finally:
            os.chdir(cwd)
            if env_dim is not None:
                os.environ["CONTRACTIVE_DIM"] = env_dim


def main() -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    from contractive.cli import main as cli_main

    cases = run_corpus(cli_main, [text.split() for text in ARGVS])
    if "--check" not in sys.argv[1:]:
        CORPUS.write_text(json.dumps({"cases": cases, "machine": machine()},
                                     indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(cases)} cases to {CORPUS}")
        return 0
    stored = json.loads(CORPUS.read_text())["cases"]
    bad = [" ".join(got["argv"]) for got, want in zip(cases, stored) if got != want]
    if len(cases) != len(stored):
        bad.append(f"case count {len(cases)} != stored {len(stored)}")
    for line in bad:
        print(f"differs: {line}")
    print(f"{len(cases) - len(bad)}/{len(cases)} cases byte-identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
