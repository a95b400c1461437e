"""Atom sums formed from the factors A_i P_i, checked against explicit-projection oracles.

The oracles in ``helpers`` build every term as a dense product chain through
the projection ``B B*``; the library forms it from the factor ``(A B) B*``.
The instances use dense complex subspaces and non-diagonal positive controls,
so no term is sparse or commutes by accident.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gfusion import (
    MultiplierSymbol,
    canonical_resolutions,
    frame_operator,
    multiplier,
    pair_frame_operator,
    replace_controls,
)
from gfusion.analysis import controlled_atom_term
from helpers import (
    dense_pair,
    generic_family,
    oracle_atom_term,
    oracle_frame_operator,
    oracle_multiplier,
    oracle_pair_operator,
    positive_control,
)

SEEDS = range(8)


def _close(got, want, rtol=1e-11):
    scale = max(1.0, float(np.linalg.norm(want, 2)))
    assert float(np.linalg.norm(got - want, 2)) <= rtol * scale


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_operator_matches_oracle(seed):
    pair = dense_pair(seed)
    _close(pair_frame_operator(pair), oracle_pair_operator(pair))


@pytest.mark.parametrize("seed", SEEDS)
def test_multiplier_with_complex_symbol_matches_oracle(seed):
    pair = dense_pair(seed)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(len(pair.lam.atoms)) + 1j * rng.standard_normal(len(pair.lam.atoms))
    _close(multiplier(MultiplierSymbol(tuple(values)), pair), oracle_multiplier(values, pair))


def _dense_controlled_family(seed, repeated=False):
    """A generic family under non-diagonal positive controls, distinct unless ``repeated``."""
    fam = generic_family(seed)
    rng = np.random.default_rng(30_000 + seed)
    left = positive_control(rng, fam.dim)
    right = left if repeated else positive_control(rng, fam.dim)
    return replace_controls(fam, left, right)


@pytest.mark.parametrize("seed", SEEDS)
def test_controlled_atom_term_matches_oracle(seed):
    fam = _dense_controlled_family(seed)
    for atom in fam.atoms:
        _close(controlled_atom_term(fam, atom), oracle_atom_term(fam, atom))
    _close(frame_operator(fam), oracle_frame_operator(fam))


@pytest.mark.parametrize("seed", SEEDS)
def test_canonical_resolution_terms_match_oracle(seed):
    fam = _dense_controlled_family(seed, repeated=True)  # a real form, so the family is a frame
    s = oracle_frame_operator(fam)
    s_inv = np.linalg.inv(s)
    res = canonical_resolutions(fam)
    _close(res.left.left, fam.control_left @ s_inv.conj().T, rtol=1e-9)
    _close(res.right.right, fam.control_right @ s_inv, rtol=1e-9)
    _close(res.left.weighted_sum(), s_inv @ s, rtol=1e-9)
    _close(res.right.weighted_sum(), s @ s_inv, rtol=1e-9)
    assert_allclose(res.left.weighted_sum(), np.eye(fam.dim), atol=1e-9)
    assert_allclose(res.right.weighted_sum(), np.eye(fam.dim), atol=1e-9)


# Builds one seeded n=192 low-rank pair and prints a digest of the raw bytes of
# each assembled operator; then, for a seeded frame of 70 rank-3 atoms, of its
# inverse frame operator and canonical right resolution sum, and of an
# orthonormalized seeded 256 x 64 matrix.
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from gfusion import (BesselPair, ControlledFamily, MeasureAtom, MultiplierSymbol, Subspace,
                     canonical_resolutions, frame_operator, inverse, multiplier, orthonormal_columns,
                     pair_frame_operator)

n, count = 192, 60
rng = np.random.default_rng(192)
z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
control = np.eye(n) + z @ z.conj().T
shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(count)]
weights = rng.uniform(0.5, 2.0, count)

def family():
    atoms = []
    for i, (r, d) in enumerate(shapes):
        q, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
        local = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        atoms.append(MeasureAtom(f"a{i}", weights[i], float(rng.uniform(0.5, 1.5)), Subspace(q), local))
    return ControlledFamily(n, tuple(atoms), control, control)

lam = family()
pair = BesselPair(lam, family())
symbol = MultiplierSymbol(tuple(rng.standard_normal(count) + 1j * rng.standard_normal(count)))
for op in (frame_operator(lam), pair_frame_operator(pair), multiplier(symbol, pair)):
    print(hashlib.sha256(np.ascontiguousarray(op).tobytes()).hexdigest())

rng = np.random.default_rng(70)
atoms = []
for i in range(70):
    q, _ = np.linalg.qr(rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    local = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    atoms.append(MeasureAtom(f"f{i}", float(rng.uniform(0.5, 2.0)), 1.0, Subspace(q), local))
frame = ControlledFamily(n, tuple(atoms), control, control)
wide = rng.standard_normal((256, 64)) + 1j * rng.standard_normal((256, 64))
for op in (inverse(frame_operator(frame)), canonical_resolutions(frame).right.weighted_sum(),
           orthonormal_columns(wide)):
    print(hashlib.sha256(np.ascontiguousarray(op).tobytes()).hexdigest())
"""


def _digests(threads: int) -> list[str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_assembled_operators_are_bit_identical_across_blas_threads():
    one = _digests(1)
    assert len(one) == 6
    assert _digests(2) == one
