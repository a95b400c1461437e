"""Stacked atom factors: sums and row products over chunks of whole atoms.

``analysis`` packs consecutive atoms into chunks of at most
``_chunk_rows(n)`` rows, ``n`` for ``n >= 64`` (an atom wider than that is a
chunk of its own).  An atom sum is one pinned product per chunk, and a row product one
product per chunk, sliced back per atom.  These tests hold the sums to the
per-atom oracles across several chunks, the memory of a sum to ``O(n^2)``,
and each stacked row slice to the atom's own product.
"""

import tracemalloc

import numpy as np
import pytest

from gfusion import (
    BesselPair,
    ControlledFamily,
    MeasureAtom,
    MultiplierSymbol,
    Subspace,
    frame_operator,
    multiplier,
    pair_frame_operator,
)
from gfusion.analysis import _chunk_rows, _gram_terms, _row_products, _term_chunks, atom_factor
from helpers import (
    oracle_frame_operator,
    oracle_multiplier,
    oracle_pair_operator,
    positive_control,
    scale_local_ops,
)


def _atom(rng, n, i, d, r=None):
    r = r or int(rng.integers(1, n + 1))
    basis = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    local = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(n)
    return MeasureAtom(f"a{i}", float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.4, 1.8)),
                       Subspace.from_vectors(basis.T), local)


def _family(seed, n, codims, ranks=None):
    rng = np.random.default_rng(seed)
    ranks = ranks or [None] * len(codims)
    atoms = tuple(_atom(rng, n, i, int(d), r) for i, (d, r) in enumerate(zip(codims, ranks)))
    t = positive_control(rng, n)
    return ControlledFamily(n, atoms, t, t)


def _chunk_rows_of(family):
    """The row count of each chunk that ``family``'s sum is stacked in."""
    return [len(xs) for xs, _ in _term_chunks(family.dim, _gram_terms(family))]


def _wide_frame(seed=5, n=64):
    """Rows over at least three chunks, with one atom wider than the budget in the middle."""
    codims = list(np.random.default_rng(seed).integers(1, 6, 60))
    codims[17] = _chunk_rows(n) + 6
    return _family(seed, n, codims)


def _relative(got, want):
    return float(np.linalg.norm(got - want, 2)) / max(1.0, float(np.linalg.norm(want, 2)))


def test_sums_over_several_chunks_and_a_wide_atom_match_the_oracles():
    fam = _wide_frame()
    rows = _chunk_rows_of(fam)
    budget = _chunk_rows(fam.dim)
    assert len(rows) >= 3
    assert budget + 6 in rows and all(r <= budget for r in rows if r != budget + 6)
    assert _relative(frame_operator(fam), oracle_frame_operator(fam)) <= 1e-12
    pair = BesselPair(fam, scale_local_ops(fam, 1.1))
    assert _relative(pair_frame_operator(pair), oracle_pair_operator(pair)) <= 1e-12
    values = np.random.default_rng(1).standard_normal(len(fam.atoms)) + 0.5j
    got = multiplier(MultiplierSymbol(tuple(values)), pair)
    assert _relative(got, oracle_multiplier(values, pair)) <= 1e-12


def test_frame_operator_memory_stays_within_a_few_matrices_over_many_chunks():
    n = 64
    fam = _family(9, n, [n] * 20, [n] * 20)  # dense atoms: 1280 stacked rows, twenty times the budget
    assert sum(_chunk_rows_of(fam)) >= 8 * _chunk_rows(n)
    tracemalloc.start()
    try:
        frame_operator(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * n**2 * np.dtype(np.complex128).itemsize


@pytest.mark.parametrize("n", [64, 128])
def test_stacked_row_slices_are_each_atoms_own_product(n):
    """Bit-equal for ``d >= 2``; a one-row atom's own product is a matrix-vector one, equal to 1e-15 relative."""
    fam = _family(n, n, list(np.random.default_rng(n).integers(1, 5, 3 * n)))
    assert len(_chunk_rows_of(fam)) >= 2
    op = positive_control(np.random.default_rng(0), n)
    items = ((a, atom_factor(a)) for a in fam.atoms)
    one_row = 0
    for atom, (got,) in _row_products(n, items, op):
        want = atom_factor(atom) @ op
        assert got.shape == want.shape
        if atom.codomain_dim >= 2:
            assert np.array_equal(got, want), atom.id
        else:
            one_row += 1
            assert _relative(got, want) <= 1e-15, atom.id
    assert one_row > 0
