"""OperatorFamily: factor-pair storage, input checks, and the memory taken by resolution families."""

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
from helpers import generic_family, positive_control


@pytest.mark.parametrize("seed", range(4))
def test_canonical_families_sum_their_terms(seed):
    fam = generic_family(seed)
    control = positive_control(np.random.default_rng(seed), fam.dim)  # repeated, so the family is a frame
    fam = replace_controls(fam, control, control)
    for of in canonical_resolutions(fam):
        explicit = sum(w * t for w, t in zip(of.weights, of.terms))
        assert_allclose(of.weighted_sum(), explicit, rtol=1e-12, atol=1e-12 * np.abs(explicit).max())
        for atom, (x, y) in zip(fam.atoms, of.factors):
            assert x.shape == y.shape == (atom.codomain_dim, fam.dim)
            assert not (x.flags.writeable or y.flags.writeable)


def test_square_term_is_stored_as_identity_pair():
    t = np.random.default_rng(1).standard_normal((4, 4)) + 1j
    fam = OperatorFamily((t,), (2.5,))
    assert np.array_equal(fam.factors[0][0], np.eye(4))
    assert np.array_equal(fam.terms[0], t)
    assert np.array_equal(fam.weighted_sum(), 2.5 * t)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_rejects_weight_that_is_not_finite_and_positive(weight):
    with pytest.raises(ValueError, match="finite and positive"):
        OperatorFamily((np.eye(2),), (weight,))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_rejects_term_with_non_finite_entry(bad):
    t = np.eye(2, dtype=np.complex128)
    t[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        OperatorFamily((np.eye(2), t), (1.0, 1.0))


def test_rejects_term_beyond_desk_scale():
    with pytest.raises(DimensionError):
        OperatorFamily((np.zeros((MAX_DIM + 1, MAX_DIM + 1)),), (1.0,))


def test_rejects_terms_of_different_shapes():
    with pytest.raises(DimensionError):
        OperatorFamily((np.eye(2), np.eye(3)), (1.0, 1.0))
    with pytest.raises(DimensionError):
        OperatorFamily((np.ones((2, 3)),), (1.0,))


def test_stored_terms_are_copies():
    t = np.eye(2)
    fam = OperatorFamily((t,), (1.0,))
    t[0, 0] = 5.0
    assert fam.terms[0][0, 0] == 1.0


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


@pytest.mark.parametrize("terms, weights, error, message", [
    ([], [], ValueError, "an operator family needs at least one term"),
    ([np.eye(2)], [1.0, 2.0], DimensionError, "terms and weights have different lengths"),
], ids=["no-terms", "weight-count"])
def test_refuses_an_empty_or_mis_weighted_family(terms, weights, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        OperatorFamily(terms, weights)
