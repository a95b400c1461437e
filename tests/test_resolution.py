import importlib

import numpy as np
import pytest

from gfusion import (
    ControlledFamily,
    HypothesisError,
    MeasureAtom,
    NotAFrameError,
    OperatorFamily,
    Subspace,
    ball_partition_example,
    canonical_resolutions,
    dual_resolution_bounds,
    frame_operator,
    is_resolution,
    operator_norm,
    optimal_bounds,
    resolution_implies_frame,
)
from gfusion.tolerances import TOL_SLACK
from helpers import diag_family, lowrank_family, oracle_dual_form, oracle_resolution_terms

ANALYSIS = importlib.import_module("gfusion.analysis")  # the package attribute is the analysis map
RESOLUTION = importlib.import_module("gfusion.resolution")


def coordinate_projections(n, scale=1.0):
    """The coordinate projections of ``C^n``, as atoms with local operator ``scale * I`` under identity controls."""
    atoms = tuple(MeasureAtom(f"e{i}", 1.0, 1.0, Subspace.coordinate(n, [i]), scale * np.eye(n)) for i in range(n))
    return OperatorFamily(ControlledFamily(n, atoms, np.eye(n), np.eye(n)), np.eye(n), np.eye(n))


def test_coordinate_projections_resolve():
    rep = is_resolution(coordinate_projections(4))
    assert rep.holds
    assert rep.residual == 0.0


def test_scaled_projections_fail_with_unit_residual():
    rep = is_resolution(coordinate_projections(4, np.sqrt(2.0)))
    assert not rep.holds
    assert rep.residual == pytest.approx(1.0)


def test_resolution_invariant_under_atom_permutation():
    rng = np.random.default_rng(0)
    fam = lowrank_family(0, 4, atoms=6)
    left, right = rng.standard_normal((2, 4, 4))
    perm = rng.permutation(6)
    permuted = ControlledFamily(fam.dim, tuple(fam.atoms[i] for i in perm), fam.control_left, fam.control_right)
    residual = is_resolution(OperatorFamily(fam, left, right)).residual
    assert abs(residual - is_resolution(OperatorFamily(permuted, left, right)).residual) < 1e-14 * max(1.0, residual)


def test_frame_induces_resolution():
    fam = diag_family(1)
    s_inv = np.linalg.inv(frame_operator(fam))
    left, right = canonical_resolutions(fam)
    assert is_resolution(left).holds and is_resolution(right).holds
    # assemble the right resolution directly as a cross-check
    total = sum(oracle_resolution_terms(fam, right.left, right.right))
    assert operator_norm(total - np.eye(fam.dim)) < 1e-8 * np.linalg.cond(frame_operator(fam))
    assert operator_norm(s_inv @ frame_operator(fam) - np.eye(fam.dim)) < 1e-10


def test_canonical_resolutions_builtin():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    left, right = canonical_resolutions(fam)
    assert is_resolution(left, tol=1e-10).holds
    assert is_resolution(right, tol=1e-10).holds


def test_canonical_resolutions_parseval_family():
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.full(3), np.eye(3))
    fam = ControlledFamily(3, (atom,), np.eye(3), np.eye(3))
    left, right = canonical_resolutions(fam)
    for of in (left, right):
        assert is_resolution(of).residual < 1e-14


def test_canonical_resolutions_left_right_adjoint_on_diagonal_instances():
    fam = diag_family(2)
    left, right = canonical_resolutions(fam)
    for lt, rt in zip(oracle_resolution_terms(fam, left.left, left.right),
                      oracle_resolution_terms(fam, right.left, right.right)):
        assert np.max(np.abs(lt.conj().T - rt)) < 1e-12


def test_canonical_resolutions_require_frame():
    with pytest.raises(NotAFrameError):
        canonical_resolutions(ball_partition_example(3.0, 2.0, 1.5, reading="literal"))


def test_dual_resolution_bounds_builtin():
    rep = dual_resolution_bounds(ball_partition_example(3.0, 2.0, 1.5))
    assert rep.resolution_ok
    assert rep.sandwich_lower == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert rep.sandwich_upper == pytest.approx(4.0, abs=1e-11)
    assert rep.sandwich_ok


def test_dual_resolution_bounds_parseval_collapses():
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.full(3), np.eye(3))
    fam = ControlledFamily(3, (atom,), np.eye(3), np.eye(3))
    rep = dual_resolution_bounds(fam)
    assert rep.resolution_ok and rep.sandwich_ok
    assert (rep.form_min, rep.form_max) == (1.0, 1.0)


def test_dual_resolution_bounds_random_diagonal():
    for seed in range(4):
        rep = dual_resolution_bounds(diag_family(seed))
        assert rep.resolution_residual <= 1e-8
        assert rep.sandwich_ok


def test_dual_resolution_bounds_rejects_noncommuting():
    # rank-one atom along (1,1) makes the frame operator non-diagonal, so its
    # inverse cannot commute with the distinct-diagonal control
    atoms = (
        MeasureAtom("a0", 1.0, 1.0, Subspace.from_vectors([[1.0, 1.0]]), np.eye(2)),
        MeasureAtom("a1", 1.0, 1.0, Subspace.full(2), 0.5 * np.eye(2)),
    )
    fam = ControlledFamily(2, atoms, np.diag([1.0, 2.0]), np.diag([1.0, 2.0]))
    assert optimal_bounds(fam).is_frame
    with pytest.raises(HypothesisError):
        dual_resolution_bounds(fam)


def test_resolution_implies_frame_parseval():
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.full(3), np.eye(3))
    fam = ControlledFamily(3, (atom,), np.eye(3), np.eye(3))
    rep = resolution_implies_frame(fam, np.eye(3))
    assert rep.hypothesis_met
    assert rep.certified_lower == pytest.approx(1.0)
    assert rep.certified_upper == pytest.approx(1.0)
    assert rep.computed_lower == pytest.approx(1.0)
    assert rep.certificate_ok


def test_resolution_implies_frame_engineered_diagonal():
    # family with diagonal plain operator S; pick U = S^-1 T so the mixed
    # terms sum exactly to the identity
    fam = diag_family(7, equal_controls=True)
    t = fam.control_left
    s = frame_operator(fam)  # = T S_plain T, diagonal here
    s_plain = np.real(np.diag(np.diag(s))) @ np.linalg.inv(t @ t)
    u = np.linalg.inv(s_plain) @ np.linalg.inv(t)
    rep = resolution_implies_frame(fam, u)
    assert rep.hypothesis_met
    assert rep.resolution_residual < 1e-10
    assert rep.certificate_ok
    assert rep.certified_lower <= rep.computed_lower + 1e-9
    assert rep.computed_upper <= rep.certified_upper + 1e-9


def test_resolution_implies_frame_detects_failure():
    fam = diag_family(8, equal_controls=True)
    rep = resolution_implies_frame(fam, 1e-3 * np.eye(fam.dim))
    assert not rep.hypothesis_met
    assert rep.certified_lower is None


@pytest.mark.parametrize("family", [diag_family(5), lowrank_family(6, 10)], ids=["diagonal", "lowrank"])
def test_dual_form_sandwich_is_decided_on_the_spectrum_of_its_hermitian_part(monkeypatch, family):
    """The last ``n x n`` eigenvalue solve is of ``H(M)``; its extremes are the form's exact range."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def spy(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs)
        calls.append((np.array(a), w))
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rep = dual_resolution_bounds(family)
    m = oracle_dual_form(family)
    h = (m + m.conj().T) / 2
    decided, w = [c for c in calls if c[0].shape == (family.dim, family.dim)][-1]
    scale = np.abs(np.linalg.eigvalsh(h)).max()
    assert np.abs(decided - h).max() <= 1e-10 * scale
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), rtol=1e-10, atol=1e-10 * scale)
    assert rep.sandwich_ok == (w[0] >= rep.sandwich_lower - TOL_SLACK and w[-1] <= rep.sandwich_upper + TOL_SLACK)
    assert rep.sandwich_ok
    assert (rep.form_min, rep.form_max) == (w[0], w[-1])


def test_dual_bounds_forms_one_plain_sum_for_both_resolution_sums(monkeypatch):
    """``frame_operator`` forms ``S_plain`` for ``S``; the dual-atom resolution and the dual form share one more."""
    calls = []
    plain = ANALYSIS.plain_frame_operator

    def spy(family):
        calls.append(family)
        return plain(family)

    for module in (ANALYSIS, RESOLUTION):
        monkeypatch.setattr(module, "plain_frame_operator", spy)
    rep = dual_resolution_bounds(diag_family(3, equal_controls=True))
    assert rep.verdict == "pass"
    assert len(calls) == 2
