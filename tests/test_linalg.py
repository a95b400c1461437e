import ast
import re
from pathlib import Path

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gfusion import (
    ControlledFamily,
    DimensionError,
    MeasureAtom,
    NotPositiveError,
    SingularOperatorError,
    Subspace,
    adjoint,
    inverse,
    is_positive,
    operator_norm,
    operator_sqrt,
    orthonormal_columns,
    spectral_summary,
    transform_family,
)
from gfusion.linalg import _defect_beyond, _factor_range_basis, _frobenius, _relative_defect, as_operator, as_vector
from gfusion.tolerances import TOL_COMM, TOL_HERM, TOL_ORTH, TOL_SAME
from helpers import oracle_projection, unit_vectors


def _atom(s: Subspace) -> MeasureAtom:
    return MeasureAtom("a0", 1.0, 1.0, s, np.eye(s.ambient_dim))


def _transported(v, s: Subspace) -> MeasureAtom:
    """The atom on ``s`` after :func:`transform_family` pushes it along ``v`` (identity controls commute with any ``v*``)."""
    n = s.ambient_dim
    return transform_family(ControlledFamily(n, (_atom(s),), np.eye(n), np.eye(n)), v).atoms[0]


def test_adjoint_identity():
    assert_allclose(adjoint(np.eye(3)), np.eye(3))


def test_adjoint_forced_by_definition():
    a = np.array([[0.0, 1j], [0.0, 0.0]])
    assert_allclose(adjoint(a), np.array([[0.0, 0.0], [-1j, 0.0]]))


def test_adjoint_involution_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_is_positive_identity():
    assert is_positive(np.eye(2), 1e-10)


def test_is_positive_indefinite():
    assert not is_positive(np.diag([1.0, -1.0]), 1e-10)


def test_is_positive_control_product():
    # the builtin example's control product diag(1, 1, 5/4)
    prod = np.diag([2.0, 3.0, 5.0]) @ np.diag([0.5, 1 / 3, 0.25])
    assert is_positive(prod, 1e-10)


def test_is_positive_rejects_rectangular():
    with pytest.raises(DimensionError):
        is_positive(np.ones((2, 3)), 1e-10)


def test_operator_sqrt_identity():
    assert_allclose(operator_sqrt(np.eye(4)), np.eye(4))


def test_operator_sqrt_diagonal():
    assert_allclose(operator_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_operator_sqrt_reconstructs_random_spd():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = m @ m.conj().T + 0.5 * np.eye(5)
    v = operator_sqrt(a)
    assert is_positive(v, 1e-10)
    assert operator_norm(v @ v - a) <= 1e-10 * operator_norm(a)


def test_operator_sqrt_commutes_with_commutant():
    # the root commutes with anything the operator commutes with
    a = np.diag([1.0, 1.0, 4.0])
    b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])  # commutes with a
    v = operator_sqrt(a)
    assert operator_norm(v @ b - b @ v) < 1e-12


def test_operator_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveError):
        operator_sqrt(np.diag([1.0, -1.0]))


def test_operator_sqrt_clamps_tiny_negative():
    a = np.diag([1.0, -1e-12])
    v = operator_sqrt(a, tol=1e-10)
    assert_allclose(v, np.diag([1.0, 0.0]))


def test_projection_coordinate_plane():
    p = oracle_projection(_atom(Subspace.coordinate(3, [1, 2])))
    assert_allclose(p, np.diag([0.0, 1.0, 1.0]))


def test_projection_full_space():
    assert_allclose(oracle_projection(_atom(Subspace.full(4))), np.eye(4))


def test_projection_trace_counts_dimension():
    rng = np.random.default_rng(2)
    for r in (1, 2, 3):
        s = Subspace.from_vectors((rng.standard_normal((5, r)) + 1j * rng.standard_normal((5, r))).T)
        p = oracle_projection(_atom(s))
        assert abs(np.trace(p).real - r) < 1e-10
        assert operator_norm(p - p.conj().T) < 1e-12
        assert operator_norm(p @ p - p) < 1e-10
        eigs = np.linalg.eigvalsh(p)
        assert np.all((np.abs(eigs) < 1e-9) | (np.abs(eigs - 1) < 1e-9))


def test_transport_identity_keeps_subspace():
    s = Subspace.coordinate(3, [0, 2])
    assert_allclose(oracle_projection(_transported(np.eye(3), s)), oracle_projection(_atom(s)), atol=1e-12)


def test_transport_invariant_subspace():
    s = Subspace.coordinate(3, [1, 2])
    moved = _transported(np.diag([2.0, 3.0, 5.0]), s)
    assert_allclose(oracle_projection(moved), oracle_projection(_atom(s)), atol=1e-12)


def test_transport_projection_identity():
    # P V* = P V* P' for the transported projection P'
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 3 * np.eye(5)
    s = Subspace.from_vectors((rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))).T)
    p = oracle_projection(_atom(s))
    p2 = oracle_projection(_transported(v, s))
    lhs = p @ v.conj().T
    assert operator_norm(lhs - lhs @ p2) < 1e-9


def test_transport_unitary_commutes():
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    s = Subspace.from_vectors((rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))).T)
    p = oracle_projection(_atom(s))
    p2 = oracle_projection(_transported(q, s))
    assert operator_norm(p2 @ q - q @ p) < 1e-10


def test_transport_rejects_singular():
    with pytest.raises(SingularOperatorError):
        _transported(np.zeros((3, 3)), Subspace.coordinate(3, [0]))


def test_spectral_summary_example_diagonal():
    s = spectral_summary(np.diag([1.0, 4.0, 1.25]))
    assert (s.lambda_min, s.lambda_max, s.herm_defect) == (1.0, 4.0, 0.0)


def test_spectral_summary_identity():
    s = spectral_summary(np.eye(6))
    assert (s.lambda_min, s.lambda_max) == (1.0, 1.0)


def test_spectral_summary_brackets_rayleigh_quotients():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (m + m.conj().T) / 2
    s = spectral_summary(h)
    f = unit_vectors(rng, 6, 10_000)
    quot = np.sum(np.conj(f) * (h @ f), axis=0).real
    assert quot.min() >= s.lambda_min - 1e-9
    assert quot.max() <= s.lambda_max + 1e-9


def test_inverse_diagonal():
    assert_allclose(inverse(np.diag([1.0, 4.0, 1.25])), np.diag([1.0, 0.25, 0.8]))


def test_inverse_identity():
    assert_allclose(inverse(np.eye(3)), np.eye(3))


def test_inverse_residual_random():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 4 * np.eye(6)
    assert operator_norm(a @ inverse(a) - np.eye(6)) < 1e-9 * np.linalg.cond(a)


def test_inverse_rejects_singular():
    with pytest.raises(SingularOperatorError):
        inverse(np.diag([1.0, 0.0]))


def test_orthonormal_columns_drops_dependent():
    cols = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    q = orthonormal_columns(cols)
    assert q.shape == (3, 1)


def test_subspace_rejects_skewed_basis():
    with pytest.raises(DimensionError):
        Subspace(np.array([[1.0], [1.0]]))


@pytest.mark.parametrize("entry", [1e200, 1e200 + 1e200j])
def test_subspace_rejects_overflowing_basis(entry):
    """The Gram matrix overflows to inf (defect NaN) or to inf + NaN j (its SVD fails): rejected, no warning."""
    with pytest.raises(DimensionError, match="not orthonormal"):
        Subspace(np.array([[entry], [0.0], [0.0]]))


def test_from_vectors_spans_a_huge_vector():
    e0, e1, _ = np.eye(3)
    assert Subspace.from_vectors([e0, 1e200 * e0]).dim == 1
    assert Subspace.from_vectors([e0, 1e200 * e1]).dim == 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=7, max_size=7), st.integers(0, 2**32 - 1))
def test_from_vectors_does_not_depend_on_the_scale_of_each_vector(ks, seed):
    """Each vector scaled by its own ``2**k``: ``[a, 2a, b, 0]`` spans ``span{a, b}`` (the zero vector is dropped),
    and three generic vectors span three dimensions."""
    rng = np.random.default_rng(seed)
    a, b, *generic = (rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(5))
    s = Subspace.from_vectors([2.0**k * v for k, v in zip(ks, [a, 2 * a, b, np.zeros(5)])])
    q = np.linalg.qr(np.column_stack([a, b]))[0]
    assert s.dim == 2
    assert operator_norm(oracle_projection(_atom(s)) - q @ q.conj().T) < 1e-12
    assert Subspace.from_vectors([2.0**k * v for k, v in zip(ks[4:], generic)]).dim == 3


def test_from_vectors_of_zero_vectors_is_refused():
    with pytest.raises(DimensionError, match="^no linearly independent columns survived orthonormalization$"):
        Subspace.from_vectors([np.zeros(3), np.zeros(3)])


def _norm_calls(monkeypatch) -> list:
    calls, norm = [], np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    return calls


def test_an_orthonormalized_basis_is_checked_without_an_svd(monkeypatch):
    rng = np.random.default_rng(0)
    bases = [orthonormal_columns(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))) for n, r in [(3, 1), (8, 3), (24, 24)]]
    assert all((np.conj(b).T @ b - np.eye(b.shape[1])).any() for b in bases)  # each Gram residual is a rounding one
    calls = _norm_calls(monkeypatch)
    for b in bases:
        Subspace(b)
    assert calls == []


def test_the_defect_bound_neither_underflows_nor_overflows():
    """Unscaled squares would vanish (1e-170) or overflow (1e200) and pass both; the SVD defects fail them."""
    a = np.eye(2)
    a[0, 1] = 1e-170
    assert not is_positive(a, 1e-300)
    assert not is_positive(1e200 * np.array([[2.0, 1.0], [0.0, 2.0]]), 1e-8)


def test_an_exactly_zero_defect_is_compared_without_an_svd(monkeypatch):
    calls = _norm_calls(monkeypatch)
    z = np.zeros((3, 3))
    assert _defect_beyond(z, 0.0, np.eye(3)) is None
    assert _defect_beyond(z, -1.0) == 0.0
    assert calls == []


def _draw(rng, shape, k: int, extreme: bool, flat: bool) -> np.ndarray:
    """A random complex matrix times ``2**k``; ``extreme`` makes a bound inequality an equality.

    A flat one (a scale) has equal singular values, so ``norm = fro / sqrt(min(shape))``; any other
    extreme one (``x``) has rank one, so ``norm = fro``.
    """
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if extreme and flat:
        z = orthonormal_columns(z) if shape[0] >= shape[1] else orthonormal_columns(z.T).T
    elif extreme:
        z = np.outer(z[:, 0], z[0])
    return z * 2.0**k


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.integers(-1000, 1000), min_size=1, max_size=3),
    extreme=st.booleans(),
    tol=st.sampled_from([0.0, 1e-300, TOL_SAME, TOL_ORTH, TOL_HERM, TOL_COMM]),
    anchor=st.sampled_from(["defect", "bound"]),
    ratio=st.floats(0.25, 4.0),
)
def test_the_defect_bound_decides_as_the_svd_defect(seed, exponents, extreme, tol, anchor, ratio):
    """``_defect_beyond`` is ``None`` exactly when the SVD defect is within ``tol``, else that defect's bits.

    ``x`` and up to two scales are random complex matrices of random shapes, scaled by ``2**k``; ``x`` is then
    rescaled so that either its SVD defect or its Frobenius norm sits at ``ratio`` times its threshold.
    """
    rng = np.random.default_rng(seed)
    shapes = rng.integers(1, 6, size=(len(exponents), 2))
    x, *scale = [_draw(rng, shape, k, extreme, flat=i > 0) for i, (shape, k) in enumerate(zip(shapes, exponents))]
    if anchor == "defect":
        reference, target = _relative_defect(x, *scale), tol * ratio
    else:
        bound = math.prod(_frobenius(s) / math.sqrt(min(s.shape)) for s in scale)
        reference, target = _frobenius(x), tol * max(1.0, bound) / 2 * ratio
    if reference > 0:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            moved = x * (target / reference)
        if np.isfinite(moved).all() and moved.any():
            x = moved
    exact = _relative_defect(x, *scale)
    beyond = _defect_beyond(x, tol, *scale)
    assert (beyond is None) == (exact <= tol)
    assert beyond is None or np.float64(beyond).tobytes() == np.float64(exact).tobytes()


def test_the_defect_bound_divides_each_scale_by_the_root_of_its_rank():
    """A rank-one ``x`` against ``4 I_5``: its defect 1.1e-8 fails, though ``fro(x) <= TOL_COMM * fro(4 I_5) / 2``."""
    x = np.zeros((5, 5))
    x[0, 0] = 4.4e-8
    assert _defect_beyond(x, TOL_COMM, 4.0 * np.eye(5)) == pytest.approx(1.1e-8, rel=1e-12)


def test_factor_range_basis_holds_every_factor_range():
    """Orthonormal, one column per stacked row, and exact on a rank-deficient stack."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 20)) + 1j * rng.standard_normal((2, 20))
    factors = (x, 3.0 * x, x[::-1], rng.standard_normal((1, 20)))  # 7 rows spanning 3 dimensions
    q = _factor_range_basis(factors)
    assert q.shape == (20, 7)
    assert_allclose(np.conj(q).T @ q, np.eye(7), atol=1e-14)
    for f in factors:
        assert_allclose(q @ (np.conj(q).T @ np.conj(f).T), np.conj(f).T, atol=1e-13)
    assert _factor_range_basis(factors[:3]) is not None  # 2 m = 12 <= 20
    assert _factor_range_basis(factors + (x, x)) is None  # 2 m = 22 > 20
    assert _factor_range_basis((x, np.full((1, 20), np.inf))) is None  # left to the caller's n x n check


def test_from_vectors_reveals_the_rank_of_a_repeated_direction():
    """``[a, 2a, b]`` spans ``span{a, b}``: two columns, and that projection to rounding."""
    rng = np.random.default_rng(5)
    a, b = (rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(2))
    s = Subspace.from_vectors([a, 2 * a, b])
    q = np.linalg.qr(np.column_stack([a, b]))[0]
    assert s.dim == 2
    assert operator_norm(oracle_projection(_atom(s)) - q @ q.conj().T) < 1e-12


def test_only_linalg_calls_numpy_linalg():
    """``linalg`` is the one module that reaches LAPACK, so one thread pin covers every call."""
    src = Path(__file__).resolve().parent.parent / "src" / "gfusion"
    offenders = [
        p.name for p in sorted(src.glob("*.py"))
        if p.name != "linalg.py" and re.search(r"np\.linalg\.|numpy\.linalg|from numpy import linalg", p.read_text())
    ]
    assert offenders == []


def test_no_module_draws_random_numbers():
    """Every printed value is computed, never sampled, so no module reaches a random generator."""
    src = Path(__file__).resolve().parent.parent / "src" / "gfusion"
    offenders = [
        p.name for p in sorted(src.glob("*.py"))
        if re.search(r"np\.random|default_rng|import random", p.read_text())
    ]
    assert offenders == []


def test_no_module_has_an_unused_import():
    """Every name a module imports is read somewhere in it (``__init__`` re-exports, so it is left out)."""
    src = Path(__file__).resolve().parent.parent / "src" / "gfusion"
    unused = []
    for p in sorted(src.glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{p.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


@pytest.mark.parametrize("build, error, message", [
    (lambda: as_vector([]), DimensionError, "empty vector"),
    (lambda: as_vector([1.0, np.inf]), ValueError, "vector entries must be finite"),
    (lambda: as_operator(np.ones(3)), DimensionError, "expected a matrix, got shape (3,)"),
    (lambda: orthonormal_columns(np.zeros((3, 2))), DimensionError,
     "no linearly independent columns survived orthonormalization"),
    (lambda: Subspace(np.eye(3, 4)), DimensionError, "basis has 4 columns in ambient dimension 3"),
], ids=["empty-vector", "inf-vector", "not-a-matrix", "no-columns", "too-many-columns"])
def test_coercions_refuse_bad_values(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
