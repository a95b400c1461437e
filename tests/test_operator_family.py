"""OperatorFamily: a family between two operators, its input checks, and the memory taken by resolution families."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gfusion import (
    ControlledFamily,
    DimensionError,
    MeasureAtom,
    OperatorFamily,
    Subspace,
    canonical_resolutions,
    dual_resolution_bounds,
    is_resolution,
    replace_controls,
)
from gfusion.tolerances import MAX_DIM
from helpers import diag_family, generic_family, oracle_resolution_terms, positive_control


@pytest.mark.parametrize("seed", range(4))
def test_canonical_families_sum_their_terms(seed):
    fam = generic_family(seed)
    control = positive_control(np.random.default_rng(seed), fam.dim)  # repeated, so the family is a frame
    fam = replace_controls(fam, control, control)
    for of in canonical_resolutions(fam):
        explicit = sum(oracle_resolution_terms(fam, of.left, of.right))
        assert_allclose(of.weighted_sum(), explicit, rtol=1e-12, atol=1e-12 * np.abs(explicit).max())
        assert of.family is fam
        assert not (of.left.flags.writeable or of.right.flags.writeable)


def _operator_family(left, right, n=2):
    return OperatorFamily(diag_family(0, n=n), left, right)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_rejects_operator_with_non_finite_entry(side, bad):
    op = np.eye(2, dtype=np.complex128)
    op[1, 0] = bad
    ops = {"left": np.eye(2), "right": np.eye(2), side: op}
    with pytest.raises(ValueError, match="finite"):
        _operator_family(ops["left"], ops["right"])


def test_rejects_operator_beyond_desk_scale():
    with pytest.raises(DimensionError):
        _operator_family(np.eye(2), np.zeros((MAX_DIM + 1, MAX_DIM + 1)))


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2)])
def test_rejects_operator_that_is_not_n_by_n(shape):
    with pytest.raises(DimensionError, match=r"^left has shape"):
        _operator_family(np.ones(shape), np.eye(2))
    with pytest.raises(DimensionError, match=r"^right has shape"):
        _operator_family(np.eye(2), np.ones(shape))


def test_stored_operators_are_read_only_copies():
    left = np.eye(2)
    fam = _operator_family(left, np.eye(2))
    left[0, 0] = 5.0
    assert fam.left[0, 0] == 1.0
    assert not fam.left.flags.writeable


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_atom_rejects_weight_that_is_not_finite_and_positive(weight):
    with pytest.raises(ValueError, match="weight must be positive"):
        MeasureAtom("a0", weight, 1.0, Subspace.full(2), np.eye(2))


def _rank_two_frame(n=128, count=100, seed=3):
    rng = np.random.default_rng(seed)
    atoms = []
    for i in range(count):
        basis = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        local = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / np.sqrt(n)
        atoms.append(MeasureAtom(f"a{i}", float(rng.uniform(0.5, 2.0)), 1.0, Subspace.from_vectors(basis.T), local))
    return ControlledFamily(n, tuple(atoms), 1.5 * np.eye(n), 1.5 * np.eye(n))


@pytest.mark.parametrize(
    "call",
    [lambda f: is_resolution(canonical_resolutions(f).right).holds, lambda f: dual_resolution_bounds(f).resolution_ok],
    ids=["canonical-right", "dual-bounds"],
)
def test_resolution_memory_stays_within_a_few_matrices(call):
    fam = _rank_two_frame()
    tracemalloc.start()
    try:
        holds = call(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds
    assert peak < 32 * fam.dim**2 * np.dtype(np.complex128).itemsize
