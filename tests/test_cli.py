import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contractive
from contractive import FockVector, PhiSpec, cli, errors, number_state
from contractive.cli import build_parser, main, parse_complex
from conftest import parse_complex_reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("text,value", [
    ("1", 1 + 0j),
    ("-2.5", -2.5 + 0j),
    ("i", 1j),
    ("-i", -1j),
    ("2i", 2j),
    ("1+i", 1 + 1j),
    ("0.5-0.25i", 0.5 - 0.25j),
    ("-1.5+2i", -1.5 + 2j),
    ("1e-3+2e-2i", 0.001 + 0.02j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "abc", "1+", "i2", "1+2", "1i+2"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


@given(
    re=st.floats(-100, 100, allow_nan=False),
    im=st.floats(-100, 100, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_parse_complex_round_trip(re, im):
    sign = "+" if im >= 0 else "-"
    text = f"{re!r}{sign}{abs(im)!r}i"
    assert parse_complex(text) == complex(re, im)


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except ValueError:
        return "rejected"


# literal characters mixed with what complex() alone would accept or
# stumble on: Unicode digits, '_', parentheses, nan/inf letters, 'j',
# tabs and spaces
_LITERAL_ALPHABET = list("0123456789.eE+-i") + [
    "\u0661", "\u0967", "\uff11", "_", "(", ")", "n", "a", "f", "j", "\t", " "]


@given(st.text(st.sampled_from(_LITERAL_ALPHABET), max_size=12))
@settings(max_examples=500, deadline=None)
def test_parse_complex_matches_reference(text):
    assert _outcome(parse_complex, text) == _outcome(parse_complex_reference, text)


def test_build_scs_moments(capsys):
    code, out, _ = run_cli(
        capsys, "state", "build", "scs",
        "--alpha", "0.5+0.5i", "--r", "0.5", "--theta", "1.5707963267948966",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["cov"] - (-math.sinh(1.0))) < 1e-8
    assert abs(payload["var_x"] - 0.5 * math.cosh(1.0)) < 1e-8
    assert payload["flags"]["is_contractive"]
    assert payload["flags"]["is_extremal"]


def test_build_and_moments_round_trip(tmp_path, capsys):
    out_file = tmp_path / "state.json"
    code, build_out, _ = run_cli(
        capsys, "state", "build", "coherent", "--alpha", "1.2", "--out",
        str(out_file),
    )
    assert code == 0
    code, moments_out, _ = run_cli(capsys, "state", "moments", str(out_file))
    assert code == 0
    assert json.loads(build_out) == json.loads(moments_out)
    loaded = FockVector.load(out_file)
    assert loaded.dim == 128  # default cutoff


def test_moments_csv_format(tmp_path, capsys):
    out_file = tmp_path / "state.json"
    run_cli(capsys, "state", "build", "number", "--n", "2", "--out", str(out_file))
    code, out, _ = run_cli(
        capsys, "state", "moments", str(out_file), "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "var_x,var_p,cov,n_bar,uncertainty_product"
    values = [float(v) for v in lines[1].split(",")]
    assert abs(values[0] - 2.5) < 1e-9
    assert abs(values[3] - 2.0) < 1e-9


def test_build_deterministic(tmp_path, capsys):
    a_file, b_file = tmp_path / "a.json", tmp_path / "b.json"
    _, out_a, _ = run_cli(
        capsys, "state", "build", "sgcs", "--alpha", "0.3", "--r", "0.4",
        "--theta", "2.0", "--weights", "1,1", "--out", str(a_file),
    )
    _, out_b, _ = run_cli(
        capsys, "state", "build", "sgcs", "--alpha", "0.3", "--r", "0.4",
        "--theta", "2.0", "--weights", "1,1", "--out", str(b_file),
    )
    assert out_a == out_b
    assert a_file.read_bytes() == b_file.read_bytes()


def test_build_gcs_lattice_target_nbar(capsys):
    code, out, _ = run_cli(
        capsys, "state", "build", "gcs-lattice", "--target-nbar", "2.5",
        "--shells", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["n_bar"] - 2.5) < 1e-8
    assert payload["flags"]["is_gcs"]


def test_build_extremal(capsys):
    code, out, _ = run_cli(
        capsys, "state", "build", "extremal", "--lam", "1+i", "--dim", "64"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["var_x"] - 0.5) < 1e-8
    assert abs(payload["var_p"] - 1.0) < 1e-8
    assert abs(payload["cov"] - (-1.0)) < 1e-8


def test_build_number_out_of_range(capsys):
    # a level beyond the cutoff is a bad parameter, hence a usage error
    code, _, err = run_cli(capsys, "state", "build", "number", "--n", "999")
    assert code == 2
    assert "error:" in err


def test_unknown_kind_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["state", "build", "thermal"])
    assert excinfo.value.code == 2


def test_invalid_complex_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["state", "build", "coherent", "--alpha", "one"])
    assert excinfo.value.code == 2


# Every ContractiveError class in errors.py and the exit code cli.main gives
# it: 2 for the usage errors, which blame the input, 1 for the rest.
EXIT_CODES = [
    (errors.ContractiveError("x"), 1),
    (errors.UsageError("x"), 2),
    (errors.InvalidDimensionError("x"), 2),
    (errors.DimensionMismatchError("x"), 2),
    (errors.OutOfRangeError("x"), 2),
    (errors.InvalidSpecError("x"), 2),
    (errors.InvalidParameterError("x"), 2),
    (errors.TruncationError(1e-3, 1e-8, 16), 1),
    (errors.CutoffReachedError(20.0, 16, 14.4), 1),
    (errors.DegenerateSpecError(0j), 1),
    (errors.TrivialStateError("x"), 1),
    (errors.SeedConditionError(0.1, 0.1, 1e-8), 1),
    (errors.NotContractiveError("x"), 1),
]


def test_exit_code_table_covers_every_error_class():
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.ContractiveError)}
    assert {type(exc) for exc, _ in EXIT_CODES} == classes


@pytest.mark.parametrize("exc, code", EXIT_CODES,
                         ids=[type(exc).__name__ for exc, _ in EXIT_CODES])
def test_error_class_sets_exit_code(exc, code, capsys, monkeypatch):
    def fail(args, config):
        raise exc

    monkeypatch.setattr(cli, "cmd_verify", fail)
    assert run_cli(capsys, "verify", "identities") == (code, "", f"error: {exc}\n")


def test_missing_state_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "state", "moments", str(tmp_path / "missing.json")
    )
    assert code == 1
    assert "error:" in err


def test_evolve_oscillator_csv(tmp_path, capsys):
    state_file = tmp_path / "scs.json"
    run_cli(
        capsys, "state", "build", "scs", "--r", "0.5",
        "--theta", "1.5707963267948966", "--out", str(state_file),
    )
    trace_file = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "evolve", str(state_file), "--system", "oscillator",
        "--t-max", "3.0", "--samples", "7", "--out", str(trace_file),
        "--expect-contractive",
    )
    assert code == 0
    window = json.loads(out)
    assert abs(window["t_m"] - 2.0 * math.tanh(1.0)) < 1e-6
    assert abs(window["t_min"] - math.tanh(1.0)) < 1e-6
    lines = trace_file.read_text().strip().splitlines()
    assert lines[0] == "t,var_x,rql_lower,rql_upper,sql"
    assert len(lines) == 8
    assert all(line.endswith(",") for line in lines[1:])  # sql empty


def test_evolve_free_mass_stdout(tmp_path, capsys):
    state_file = tmp_path / "vac.json"
    run_cli(capsys, "state", "build", "number", "--out", str(state_file))
    code, out, _ = run_cli(
        capsys, "evolve", str(state_file), "--system", "free-mass",
        "--t-max", "2.0", "--samples", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,var_x,rql_lower,rql_upper,sql"
    last = lines[5].split(",")
    assert abs(float(last[1]) - 0.5 * (1 + 4.0)) < 1e-9
    assert float(last[4]) > 0  # sql populated
    # vacuum is not contractive: no window payload follows the table
    assert len(lines) == 6


def test_evolve_expect_contractive_rejects(tmp_path, capsys):
    state_file = tmp_path / "vac.json"
    run_cli(capsys, "state", "build", "number", "--out", str(state_file))
    trace_file = tmp_path / "trace.csv"
    code, _, err = run_cli(
        capsys, "evolve", str(state_file), "--system", "free-mass",
        "--t-max", "1.0", "--out", str(trace_file), "--expect-contractive",
    )
    assert code == 1
    assert "not contractive" in err
    assert not trace_file.exists()  # nothing written on refusal


def test_rql_band_values(tmp_path, capsys):
    # contractive SCS at a quarter of the band period: the rigorous bounds
    # open up to [e^{-2r}/2, e^{2r}/2]
    state_file = tmp_path / "scs.json"
    run_cli(
        capsys, "state", "build", "scs", "--r", "0.5",
        "--theta", "1.5707963267948966", "--out", str(state_file),
    )
    code, out, _ = run_cli(
        capsys, "rql-band", str(state_file), "--system", "oscillator",
        "--time", "0.78539816339744831",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lower"] - 0.5 * math.exp(-1.0)) < 1e-8
    assert abs(payload["upper"] - 0.5 * math.exp(1.0)) < 1e-8


def test_gcs_solve_writes_seed(tmp_path, capsys):
    out_file = tmp_path / "phi.json"
    code, out, _ = run_cli(
        capsys, "gcs", "solve", "--low", "0", "--high", "3",
        "--free", "1,0.5", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_a"] < 1e-12
    assert payload["residual_a2"] < 1e-12
    assert abs(payload["n_bar"] - 0.77821) < 1e-4
    assert out_file.exists()


def test_gcs_solve_band_spec_file(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec = PhiSpec(n=1, N=5, free=(1.0, 0.3 + 0.2j, -0.4))
    spec_file.write_text(json.dumps(spec.to_json_dict()))
    code, out, _ = run_cli(
        capsys, "gcs", "solve", "--band-spec", str(spec_file)
    )
    assert code == 0
    assert json.loads(out)["residual_a"] < 1e-12


def test_sgcs_from_solved_seed_file(tmp_path, capsys):
    phi_file = tmp_path / "phi.json"
    _, solve_out, _ = run_cli(
        capsys, "gcs", "solve", "--low", "0", "--high", "3",
        "--free", "1,0.5", "--out", str(phi_file),
    )
    n_bar = json.loads(solve_out)["n_bar"]
    code, out, _ = run_cli(
        capsys, "state", "build", "sgcs", "--alpha", "0.5", "--r", "0.3",
        "--phi", str(phi_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["var_x"] - (n_bar + 0.5) * math.exp(-0.6)) < 1e-8


# A band reaching level 20, past --dim 16.
_WIDE_BAND = ["--low", "0", "--high", "20",
              "--free=" + ",".join(["1", "0.5+0.2i"] + ["0"] * 15 + ["0.001", "0.0005i"])]


@pytest.mark.parametrize("argv, message", [
    (["gcs", "solve"] + _WIDE_BAND, "dim 16 cannot hold a band reaching level 20"),
    (["state", "build", "gcs-solve"] + _WIDE_BAND,
     "dim 16 cannot hold a band reaching level 20"),
    (["state", "build", "gcs-lattice", "--weights", "1,1,1,1,1,1,1"],
     "dim 16 cannot hold a lattice reaching level 18"),
], ids=["gcs-solve-command", "gcs-solve", "gcs-lattice"])
def test_seed_past_dim_exits_2(tmp_path, capsys, argv, message):
    # each seed kind builds at --dim or refuses; none switches cutoff
    out_file = tmp_path / "seed.json"
    code, out, err = run_cli(capsys, *argv, "--dim", "16", "--out", str(out_file))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["gcs", "solve", "--low", "0", "--high", "15",
     "--free=1,0.5,0,0,0,0,0,0,0,0,0,0,0,0.001"],
    ["state", "build", "gcs-lattice", "--weights", "1,1,1,1,1,1e-12"],
], ids=["gcs-solve-command", "gcs-lattice"])
def test_seed_reaching_top_level_builds_at_dim(tmp_path, capsys, argv):
    # a seed whose top level is dim - 1 fits --dim exactly
    out_file = tmp_path / "seed.json"
    code, _, err = run_cli(capsys, *argv, "--dim", "16", "--out", str(out_file))
    assert (code, err) == (0, "")
    assert FockVector.load(out_file).dim == 16


def test_sgcs_builds_at_its_seed_dim_past_dim(tmp_path, capsys):
    # make_sgcs's rule: a seed wider than --dim sets the cutoff
    phi_file = tmp_path / "phi.json"
    number_state(0, 40).dump(phi_file)
    out_file = tmp_path / "sgcs.json"
    code, _, _ = run_cli(capsys, "state", "build", "sgcs", "--phi", str(phi_file),
                         "--dim", "16", "--out", str(out_file))
    assert code == 0 and FockVector.load(out_file).dim == 40
    code, out, err = run_cli(capsys, "state", "build", "sgcs", *_WIDE_BAND, "--dim", "16")
    assert code == 1 and out == ""
    assert err.startswith("error: state under-resolved at dim=21:")


def test_sgcs_requires_single_seed_source(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "state", "build", "sgcs", "--alpha", "0.5", "--r", "0.3",
    )
    assert code == 2
    assert "seed source" in err


def test_config_file_and_env_precedence(tmp_path, capsys, monkeypatch):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"dim": 32}))
    out_file = tmp_path / "a.json"
    run_cli(
        capsys, "state", "build", "number", "--config", str(config_file),
        "--out", str(out_file),
    )
    assert FockVector.load(out_file).dim == 32

    monkeypatch.setenv("CONTRACTIVE_DIM", "64")
    run_cli(
        capsys, "state", "build", "number", "--config", str(config_file),
        "--out", str(out_file),
    )
    assert FockVector.load(out_file).dim == 64  # env beats file

    run_cli(
        capsys, "state", "build", "number", "--config", str(config_file),
        "--dim", "48", "--out", str(out_file),
    )
    assert FockVector.load(out_file).dim == 48  # flag beats env


def test_dim_floor_rejected(capsys):
    code, _, err = run_cli(capsys, "state", "build", "number", "--dim", "8")
    assert code == 2
    assert "dim must be >= 16" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities")
    assert code == 0
    assert json.loads(out)["passed"]

    code, out, _ = run_cli(
        capsys, "verify", "uncertainty", "--budget", "10", "--seed", "4"
    )
    assert code == 0


def test_sweep_csv(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--kind", "scs", "--r", "0,0.5",
        "--theta", "0,1.5707963267948966", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("kind,alpha_re,alpha_im,r,theta")
    assert len(lines) == 5  # header + 2 x 2 grid
    by_key = {}
    for line in lines[1:]:
        parts = line.split(",")
        by_key[(float(parts[3]), float(parts[4]))] = parts
    # r = 0: balanced vacuum moments, flagged gcs + extremal
    row = by_key[(0.0, 0.0)]
    assert row[10:14] == ["0", "0", "1", "1"]
    # r = 0.5, theta = pi/2: contractive and extremal but not gcs
    row = by_key[(0.5, 1.5707963267948966)]
    assert row[11] == "1"
    assert row[12] == "0"
    # the file has plain LF endings and the bytes the same sweep prints
    data = out_file.read_bytes()
    assert b"\r" not in data
    _, out, _ = run_cli(
        capsys, "sweep", "--kind", "scs", "--r", "0,0.5",
        "--theta", "0,1.5707963267948966",
    )
    assert data == out.encode()


def test_sweep_nbar_only_for_sgcs(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "scs", "--nbar", "1.5"
    )
    assert code == 2
    assert "--nbar" in err


def test_console_script_installed():
    # the child imports the package from wherever this process found it
    root = str(Path(contractive.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "contractive.cli", "state", "build", "number"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_bar"] == 0.0


@pytest.mark.parametrize("alpha", ["40", "100000"])
def test_displacement_reaching_cutoff_exits_1_at_once(alpha):
    # before the up-front check, alpha 40 printed a wrapped-around state
    # (n_bar 63.75 instead of 1,600) and alpha 100000 ran for minutes
    _assert_under_resolved_at_once(
        "state", "build", "coherent", "--alpha", alpha, "--dim", "256")


@pytest.mark.parametrize("argv", [
    ("state", "build", "sgcs", "--target-nbar", "1", "--r", "1e10"),
    ("state", "build", "scs", "--r", "1e5"),
])
def test_squeeze_reaching_cutoff_exits_1_at_once(argv):
    # before the up-front check, r = 1e10 died allocating 9.13 TiB for the
    # Bessel coefficients, and the squeeze's work grew linearly in r
    _assert_under_resolved_at_once(*argv)


def _assert_under_resolved_at_once(*argv):
    root = str(Path(contractive.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "contractive.cli", *argv],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: state under-resolved at dim=")


def test_small_norm_state_with_tail_exits_1(tmp_path, capsys):
    # half its weight sits on the top level; at amplitude 1e-5 the absolute
    # tail mass read 1e-10, and `state moments` printed n_bar 15.5, exit 0
    amps = np.zeros(32, dtype=complex)
    amps[[0, 31]] = 1e-5
    path = tmp_path / "tiny.json"
    FockVector(amps).dump(path)
    code, out, err = run_cli(capsys, "state", "moments", str(path))
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: state under-resolved")


def _assert_usage_error(code, err):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("key", ["dim", "re", "im"])
def test_state_file_missing_key(tmp_path, capsys, key):
    data = number_state(0, 16).to_json_dict()
    del data[key]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "state", "moments", str(path))
    _assert_usage_error(code, err)
    assert repr(key) in err


def test_state_file_not_json(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("dim: 16\n")
    code, _, err = run_cli(capsys, "state", "moments", str(path))
    _assert_usage_error(code, err)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_state_file_non_finite_amplitude(tmp_path, capsys, bad):
    data = number_state(0, 16).to_json_dict()
    data["re"][1] = bad  # json writes the NaN / Infinity tokens
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "state", "moments", str(path))
    _assert_usage_error(code, err)
    assert "finite" in err


@pytest.mark.parametrize("dim", [16.9, True, "16"])
def test_state_file_dim_not_integer(tmp_path, capsys, dim):
    data = number_state(0, 16).to_json_dict()
    data["dim"] = dim
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "state", "moments", str(path))
    _assert_usage_error(code, err)
    assert "dim" in err and out == ""


@pytest.mark.parametrize("data", [
    {"dim": 4, "re": [1.0, 0.0], "im": [0.0, 0.0]},     # lengths disagree with dim
    {"dim": 1, "re": [1.0], "im": [0.0]},               # dim below 2
    {"dim": 4, "re": [[1.0, 0.0], [0.0, 0.0]],          # 2-D amplitude arrays
     "im": [[0.0, 0.0], [0.0, 0.0]]},
])
def test_state_file_malformed_structure(tmp_path, capsys, data):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "state", "moments", str(path))
    _assert_usage_error(code, err)
    assert out == ""


def test_env_dim_not_integer(capsys, monkeypatch):
    monkeypatch.setenv("CONTRACTIVE_DIM", "abc")
    code, _, err = run_cli(capsys, "state", "build", "number")
    _assert_usage_error(code, err)
    assert "CONTRACTIVE_DIM" in err


def test_config_file_not_json(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text("dim = 32\n")
    code, _, err = run_cli(
        capsys, "state", "build", "number", "--config", str(config_file)
    )
    _assert_usage_error(code, err)


def test_config_file_wrong_type(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"dim": "x"}))
    code, _, err = run_cli(
        capsys, "state", "build", "number", "--config", str(config_file)
    )
    _assert_usage_error(code, err)
    assert "dim" in err


@pytest.mark.parametrize("text", [
    "n: 1\n",                                          # not JSON
    json.dumps({"n": 1}),                              # no "free", "N"
    json.dumps({"n": 0, "N": 3, "free": [[1.0], [0.5, 0.0]]}),    # short pair
    json.dumps({"n": 0, "N": 3, "free": [["a", 0.0], [0.5, 0.0]]}),  # text
    json.dumps({"n": "low", "N": 3, "free": [[1.0, 0.0], [0.5, 0.0]]}),
    json.dumps([0, 3]),                                # not an object
    # integer fields must be JSON integers, not truncated or coerced
    json.dumps({"n": 0.9, "N": 3.7, "free": [[1.0, 0.0], [0.5, 0.0]]}),
    json.dumps({"n": True, "N": 4, "free": [[1.0, 0.0], [0.5, 0.0]]}),
    json.dumps({"n": 0, "N": "3", "free": [[1.0, 0.0], [0.5, 0.0]]}),
])
def test_band_spec_file_malformed(tmp_path, capsys, text):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text)
    code, _, err = run_cli(capsys, "gcs", "solve", "--band-spec", str(spec_file))
    _assert_usage_error(code, err)


def test_config_file_unknown_format(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"format": "xml"}))
    code, out, err = run_cli(
        capsys, "state", "build", "number", "--config", str(config_file)
    )
    _assert_usage_error(code, err)
    assert "format" in err and out == ""


def test_sgcs_seed_file_with_tiny_amplitudes(tmp_path, capsys):
    amps = np.zeros(16, dtype=complex)
    amps[[0, 3]] = 1e-15
    phi_file = tmp_path / "tiny.json"
    FockVector(amps).dump(phi_file)
    code, out, _ = run_cli(
        capsys, "state", "build", "sgcs", "--phi", str(phi_file),
        "--alpha", "0.3", "--r", "0.2",
    )
    assert code == 0
    assert json.loads(out)["n_bar"] > 0


@pytest.mark.parametrize("argv", [
    ["state", "build", "scs", "--alpha=1e400"],
    ["state", "build", "coherent", "--alpha=1e400"],
    ["state", "build", "displaced-number", "--alpha=1e400i"],
    ["sweep", "--alpha=1e400"],
    ["sweep", "--kind", "sgcs", "--alpha=-1e400"],
    ["state", "build", "extremal", "--mean-x=inf"],
    ["state", "build", "extremal", "--lam=1e400"],
])
def test_non_finite_input_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    _assert_usage_error(code, err)
    assert out == ""


def test_sgcs_empty_phi_path(capsys):
    code, out, err = run_cli(
        capsys, "state", "build", "sgcs", "--phi", "", "--alpha", "0.1",
    )
    _assert_usage_error(code, err)
    assert "--phi" in err and out == ""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_usage_error(tmp_path, capsys, source):
    argv = ["verify", "uncertainty", "--budget", "5"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    _assert_usage_error(code, err)
    assert "seed" in err and out == ""


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_evolve_samples_below_one_usage_error(tmp_path, capsys, samples):
    path = tmp_path / "vac.json"
    number_state(0, 32).dump(path)
    code, out, err = run_cli(
        capsys, "evolve", str(path), "--system", "oscillator",
        "--t-max", "1.0", "--samples", samples,
    )
    _assert_usage_error(code, err)
    assert "samples" in err and out == ""


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_evolve_non_finite_t_max_usage_error(tmp_path, capsys, value):
    # rejected before np.linspace, which warns on a non-finite end point
    path = tmp_path / "vac.json"
    number_state(0, 32).dump(path)
    code, out, err = run_cli(
        capsys, "evolve", str(path), "--system", "free-mass", f"--t-max={value}",
    )
    _assert_usage_error(code, err)
    assert "--t-max" in err and out == ""


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_sweep_non_finite_nbar_usage_error(capsys, value):
    # rejected before the lattice shell count, which int() would overflow
    code, out, err = run_cli(capsys, "sweep", "--kind", "sgcs", f"--nbar={value}")
    _assert_usage_error(code, err)
    assert "--nbar" in err and out == ""


@pytest.mark.parametrize("suite", ["uncertainty", "rql", "saturation", "all"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_verify_budget_below_one_usage_error(capsys, suite, budget):
    code, out, err = run_cli(capsys, "verify", suite, "--budget", budget)
    _assert_usage_error(code, err)
    assert "budget" in err and out == ""


# One argv per leaf command that parses as it stands, and the flags that
# leaf reads out of the kind and settings flags every leaf used to accept.
_LEAVES = {
    "number": (["state", "build", "number"], {"n", "dim"}),
    "coherent": (["state", "build", "coherent"], {"alpha", "dim"}),
    "displaced-number": (["state", "build", "displaced-number"], {"n", "alpha", "dim"}),
    "scs": (["state", "build", "scs"], {"alpha", "r", "theta", "dim"}),
    "gcs-lattice": (["state", "build", "gcs-lattice"],
                    {"weights", "target-nbar", "shells", "dim"}),
    "gcs-solve": (["state", "build", "gcs-solve"],
                  {"band-spec", "low", "high", "free", "dim"}),
    "sgcs": (["state", "build", "sgcs"],
             {"alpha", "r", "theta", "phi", "weights", "target-nbar", "shells",
              "band-spec", "low", "high", "free", "dim"}),
    "extremal": (["state", "build", "extremal"], {"lam", "mean-x", "mean-p", "dim"}),
    "moments": (["state", "moments", "s.json"], {"format"}),
    "evolve": (["evolve", "s.json", "--system", "oscillator", "--t-max", "1"],
               {"hbar", "mass", "omega"}),
    "rql-band": (["rql-band", "s.json", "--system", "oscillator", "--time", "1"],
                 {"hbar", "mass", "omega"}),
    "gcs-solve-command": (["gcs", "solve"], {"band-spec", "low", "high", "free", "dim"}),
    "verify": (["verify", "identities"], {"seed"}),
    "sweep": (["sweep"], {"dim"}),
}
# the kind and settings flags, each with a value it accepts, so a rejection
# can only mean the flag is unknown
_FLAG_VALUES = {
    "n": "1", "alpha": "0.5", "r": "0.1", "theta": "0.1", "weights": "1,1",
    "target-nbar": "1", "shells": "2", "phi": "phi.json", "band-spec": "spec.json",
    "low": "0", "high": "3", "free": "1,0.5", "lam": "1", "mean-x": "0",
    "mean-p": "0", "dim": "64", "seed": "1", "hbar": "1", "mass": "1",
    "omega": "1", "format": "csv",
}
_KIND_AND_SETTINGS = set(_FLAG_VALUES)
_SETTING_FLAGS = {"dim", "seed", "hbar", "mass", "omega", "format"}


@pytest.mark.parametrize("leaf", list(_LEAVES))
def test_leaf_takes_only_the_flags_it_reads(capsys, leaf):
    base, reads = _LEAVES[leaf]
    parser = build_parser()
    read_argv = [part for name in sorted(reads)
                 for part in (f"--{name}", _FLAG_VALUES[name])]
    parser.parse_args(base + read_argv)
    # commands outside `state build` never took the kind flags
    shared = _KIND_AND_SETTINGS if base[:2] == ["state", "build"] else _SETTING_FLAGS
    for name in sorted(shared - reads):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(base + [f"--{name}", _FLAG_VALUES[name]])
        assert excinfo.value.code == 2, name
        assert "unrecognized arguments" in capsys.readouterr().err, name


def test_option_before_kind_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["state", "build", "--alpha", "0.5", "coherent"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["verify", "moments", "evolve", "rql-band"])
def test_env_dim_ignored_without_dim_flag(tmp_path, capsys, monkeypatch, command):
    state_file = tmp_path / "scs.json"
    run_cli(capsys, "state", "build", "scs", "--r", "0.3", "--theta", "1.5",
            "--dim", "32", "--out", str(state_file))
    argv = {
        "verify": ["verify", "identities"],
        "moments": ["state", "moments", str(state_file)],
        "evolve": ["evolve", str(state_file), "--system", "free-mass",
                   "--t-max", "1", "--samples", "3"],
        "rql-band": ["rql-band", str(state_file), "--system", "oscillator",
                     "--time", "0.5"],
    }[command]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0
    for value in ("8", "abc"):
        monkeypatch.setenv("CONTRACTIVE_DIM", value)
        assert run_cli(capsys, *argv) == (0, want, "")


_IMPORT_GUARD = """
import io, json, sys
from contextlib import redirect_stdout

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "contractive")

import contractive
report = {"package": loaded()}
from contractive.cli import main
with redirect_stdout(io.StringIO()):
    report["code"] = main(sys.argv[1:])
report["command"] = loaded()
print(json.dumps(report))
"""
_EVERY_COMMAND = ["cli", "errors", "fock", "moments"]


# Each command and the layers beyond errors, fock and moments it loads.
_COMMAND_LAYERS = {
    "state moments": (["state", "moments", "{state}"], []),
    "evolve": (["evolve", "{state}", "--system", "free-mass", "--t-max", "1",
                "--samples", "3"], ["dynamics"]),
    "rql-band": (["rql-band", "{state}", "--system", "oscillator", "--time", "0.5"],
                 ["dynamics"]),
    "gcs solve": (["gcs", "solve", "--low", "0", "--high", "4", "--free", "1,0.5i,-0.3"],
                  ["gcs"]),
    "state build scs": (["state", "build", "scs", "--r", "0.3"], ["states"]),
    "state build coherent": (["state", "build", "coherent", "--alpha", "0.5"], ["states"]),
    "verify identities": (["verify", "identities"], ["dynamics", "gcs", "states", "verify"]),
}


@pytest.mark.parametrize("command", list(_COMMAND_LAYERS))
def test_command_loads_only_the_modules_it_runs(tmp_path, command):
    # every submodule a process imports is compiled from source when no
    # bytecode is cached, so a command pays for each module it loads
    argv, layers = _COMMAND_LAYERS[command]
    state_file = tmp_path / "state.json"
    number_state(2, 16).dump(state_file)
    argv = [part.format(state=state_file) for part in argv]
    root = str(Path(contractive.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["package"] == ["contractive"]
    assert report["code"] == 0
    want = ["contractive"] + [f"contractive.{m}" for m in sorted(_EVERY_COMMAND + layers)]
    assert report["command"] == want


def test_verify_choices_are_the_suites_then_all(capsys):
    from contractive import verify

    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "{" + ",".join((*verify.SUITES, "all")) + "}" in capsys.readouterr().out
