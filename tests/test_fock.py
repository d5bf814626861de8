import io
import json
import math
import re

import numpy as np
import pytest

from contractive import (
    FockVector,
    InvalidDimensionError,
    OutOfRangeError,
    TruncationError,
    ensure_resolved,
    number_state,
    random_state,
    summarize,
)
from contractive.cli import RunConfig
from contractive.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidSpecError,
    TrivialStateError,
)
from contractive.fock import RANDOM_STATE_MIN_DIM, write_csv, write_json
from contractive.gcs import PhiSpec

from conftest import coherent_amps, dense_ladder, dense_quadratures, expect


def test_ladder_matrix_elements():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2.0)
    expected[2, 3] = math.sqrt(3.0)
    assert np.array_equal(dense_ladder(4), expected)


def test_commutator_truncation_structure():
    # [a, a^dag] = 1 except in the top corner, where the cutoff subtracts dim.
    dim = 24
    a = dense_ladder(dim)
    adag = a.conj().T
    comm = a @ adag - adag @ a
    assert np.allclose(comm[:-1, :-1], np.eye(dim - 1), atol=1e-13)
    assert abs(comm[-1, -1] - (1 - dim)) < 1e-12


def test_number_operator_diagonal():
    a = dense_ladder(16)
    n_op = a.conj().T @ a
    assert np.allclose(np.diag(n_op), np.arange(16))


def test_number_state_moments():
    x, p = dense_quadratures(32)
    for n in (0, 1, 5):
        state = number_state(n, 32)
        assert abs(expect(state.amps, x @ x) - (n + 0.5)) < 1e-12
        assert abs(expect(state.amps, p @ p) - (n + 0.5)) < 1e-12


def test_number_state_out_of_range():
    with pytest.raises(OutOfRangeError):
        number_state(8, 8)
    with pytest.raises(OutOfRangeError):
        number_state(-1, 8)


@pytest.mark.parametrize("n", [True, 1.5, np.float64(2.0), "1"])
def test_number_state_rejects_non_integer_level(n):
    # a bool used to index every level, a float failed as a raw IndexError
    with pytest.raises(OutOfRangeError):
        number_state(n, 8)


@pytest.mark.parametrize("dim", [8.5, True, "8"])
def test_number_state_rejects_non_integer_dim(dim):
    with pytest.raises(InvalidDimensionError):
        number_state(0, dim)


def test_number_state_accepts_numpy_integers():
    state = number_state(np.int64(2), np.int32(8))
    assert state.dim == 8 and state.amps[2] == 1.0


@pytest.mark.parametrize("dim", [8.5, 16.0, True, "16"])
def test_random_state_rejects_non_integer_dim(dim):
    with pytest.raises(InvalidDimensionError):
        random_state(dim, np.random.default_rng(0))


def test_dim_too_small():
    with pytest.raises(InvalidDimensionError):
        FockVector(np.zeros(1, dtype=complex))


def test_expect_coherent_ladder():
    # <a> on oracle coherent amplitudes, no operator-exponential involved.
    alpha = 0.8 - 0.3j
    state = FockVector(coherent_amps(alpha, 64))
    a = dense_ladder(64)
    assert abs(expect(state.amps, a) - alpha) < 1e-12
    assert abs(expect(state.amps, a @ a) - alpha**2) < 1e-12


def test_normalize_zero_vector():
    with pytest.raises(TrivialStateError):
        FockVector(np.zeros(4, dtype=complex)).normalized()


def test_tail_mass_window():
    # dim 10: tail window starts at floor(0.9 * 10) = 9, the last entry.
    amps = np.zeros(10, dtype=complex)
    amps[0] = math.sqrt(1 - 1e-6)
    amps[9] = math.sqrt(1e-6)
    state = FockVector(amps)
    assert abs(state.tail_mass() - 1e-6) < 1e-18
    with pytest.raises(TruncationError):
        ensure_resolved(state)


def test_tail_mass_vacuum_resolved():
    state = number_state(0, 16)
    assert state.tail_mass() == 0.0
    ensure_resolved(state)


def test_tail_mass_is_relative_to_the_state_weight():
    # half the weight on the top level: an absolute measure read 1e-10 here
    # and let the state through, though every consumer normalizes it first
    amps = np.zeros(32, dtype=complex)
    amps[[0, 31]] = 1e-5
    state = FockVector(amps)
    assert state.tail_mass() == pytest.approx(0.5)
    assert FockVector(np.zeros(32, dtype=complex)).tail_mass() == 0.0
    with pytest.raises(TruncationError):
        ensure_resolved(state)
    with pytest.raises(TruncationError):
        summarize(state)


def test_truncated_coherent_alpha2_dim8_unresolved():
    state = FockVector(coherent_amps(2.0, 8))
    assert state.tail_mass() > 0.01
    with pytest.raises(TruncationError) as excinfo:
        ensure_resolved(state)
    assert excinfo.value.tail_mass > 0.01


def test_padded_preserves_prefix_and_norm():
    state = FockVector(coherent_amps(1.0, 32))
    wide = state.padded(64)
    assert wide.dim == 64
    assert np.array_equal(wide.amps[:32], state.amps)
    assert np.all(wide.amps[32:] == 0)
    assert abs(wide.norm() - state.norm()) < 1e-15
    with pytest.raises(InvalidDimensionError):
        state.padded(16)


def test_normalized():
    state = FockVector(np.array([3.0, 4.0], dtype=complex))
    unit = state.normalized()
    assert abs(unit.norm() - 1.0) < 1e-15
    assert np.allclose(unit.amps, [0.6, 0.8])


def test_json_round_trip(tmp_path):
    state = FockVector(coherent_amps(0.5 + 0.25j, 24))
    path = tmp_path / "state.json"
    state.dump(path)
    loaded = FockVector.load(path)
    assert loaded.dim == state.dim
    assert np.array_equal(loaded.amps, state.amps)
    raw = json.loads(path.read_text())
    assert set(raw) == {"dim", "re", "im"}
    assert raw["dim"] == 24


def test_write_csv_field_rules(tmp_path):
    floats = [0.1, 1 / 3, -2.5e-300, 1e22, np.float64(math.pi)]
    rows = [floats, [None, 7, "scs", np.int64(-3), 0.0]]
    stream = io.StringIO()
    write_csv(stream, ["a", "b", "c", "d", "e"], rows)
    text = stream.getvalue()
    assert text.endswith("\n")
    header, first, second = text[:-1].split("\n")
    assert header == "a,b,c,d,e"
    # floats round-trip through .17g; ints and words come out verbatim
    assert [float(v) for v in first.split(",")] == floats
    assert second == ",7,scs,-3,0"
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b", "c", "d", "e"], rows)
    assert path.read_bytes() == text.encode()
    write_csv(str(path), ["a", "b", "c", "d", "e"], rows)
    assert path.read_bytes() == text.encode()


def test_write_json_one_sorted_line(tmp_path):
    stream = io.StringIO()
    write_json(stream, {"b": [1, 0.5], "a": "x"})
    assert stream.getvalue() == '{"a": "x", "b": [1, 0.5]}\n'
    path = tmp_path / "obj.json"
    write_json(path, {"b": [1, 0.5], "a": "x"})
    assert path.read_bytes() == stream.getvalue().encode()


@pytest.mark.parametrize("load,error", [
    (FockVector.load, InvalidSpecError),
    (PhiSpec.load, InvalidSpecError),
    (RunConfig.from_file, InvalidParameterError),
])
def test_non_json_file_names_its_path(tmp_path, load, error):
    path = tmp_path / "broken.json"
    path.write_text("dim = 32\n")
    with pytest.raises(error, match="^" + re.escape(f"{path} is not a JSON ")):
        load(str(path))


def test_from_json_dict_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        FockVector.from_json_dict({"dim": 4, "re": [1.0, 0.0], "im": [0.0, 0.0]})


def test_random_state_resolved_and_normalized(rng):
    for _ in range(5):
        state = random_state(64, rng)
        assert abs(state.norm() - 1.0) < 1e-12
        assert state.tail_mass() < 1e-10


def test_random_state_reproducible():
    a = random_state(32, np.random.default_rng(3))
    b = random_state(32, np.random.default_rng(3))
    assert np.array_equal(a.amps, b.amps)


def test_random_state_resolved_or_rejected():
    # below the floor the envelope cannot keep a random state resolved
    # (every draw at dims 2-5 used to fail ensure_resolved), so it is refused
    for dim in range(2, 17):
        rng = np.random.default_rng(dim)
        if dim < RANDOM_STATE_MIN_DIM:
            with pytest.raises(InvalidDimensionError):
                random_state(dim, rng)
            continue
        for _ in range(200):
            ensure_resolved(random_state(dim, rng))
