import contractive

# Retired from the public API: moments come from ladder index sums, extremal
# packets are squeezed coherent states, the identity check runs on the
# state-building kernel, and the dense and position-grid test oracles live in
# tests/conftest.py.
REMOVED = ["Operators", "build_operators", "expect", "expect_hermitian",
           "CutoffReport", "cutoff_report",
           "GRID_POINTS", "GRID_SPAN", "default_grid", "hermite_basis",
           "wavefunction", "project_to_fock", "extremal_state",
           "displacement_operator", "squeeze_operator"]


def test_all_names_resolve():
    missing = [name for name in contractive.__all__ if not hasattr(contractive, name)]
    assert missing == []
    namespace = {}
    exec("from contractive import *", namespace)
    assert set(contractive.__all__) <= set(namespace)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in contractive.__all__
        assert not hasattr(contractive, name), name
