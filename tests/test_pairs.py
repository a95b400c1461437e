import numpy as np
import pytest

from gfusion import (
    BesselPair,
    ControlledFamily,
    MeasureAtom,
    MultiplierSymbol,
    PairingError,
    Subspace,
    adjoint,
    canonical_dual,
    frame_operator,
    multiplier,
    multiplier_frame_criterion,
    operator_norm,
    pair_bounded_below,
    pair_frame_operator,
    pair_operator_check,
    pair_sum_positivity,
)
from gfusion.linalg import _singular_values
from helpers import diag_family, lowrank_family, random_pair as _two_random_families, scale_local_ops


def _equal_control_family(seed, **kw):
    return diag_family(seed, equal_controls=True, **kw)


def _dual_pair(seed):
    fam = _equal_control_family(seed)
    return BesselPair(fam, canonical_dual(fam))


def parseval_pair(n=3):
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.full(n), np.eye(n))
    fam = ControlledFamily(n, (atom,), np.eye(n), np.eye(n))
    return BesselPair(fam, fam)


# ----------------------------------------------------------- pair operator

def test_positivity_takes_only_the_norms_of_the_printed_residual(monkeypatch):
    """Scalar controls commute exactly and both positivity tests settle on the bound: two SVDs, those of the residual."""
    fam = lowrank_family(0, 8)
    pair = BesselPair(fam, fam)
    calls, norm = [], np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    rep = pair_sum_positivity(pair)
    assert rep.verdict == "pass" and rep.factorization_residual > 0
    assert len(calls) == 2


def test_pair_collapses_to_frame_operator():
    fam = _equal_control_family(0)
    pair = BesselPair(fam, fam)
    assert operator_norm(pair_frame_operator(pair) - frame_operator(fam)) < 1e-12


def test_pair_norm_bound():
    for seed in range(8):
        pair = _two_random_families(seed)
        bound = np.sqrt(pair.lam_bounds.B_opt * pair.gam_bounds.B_opt)
        assert operator_norm(pair_frame_operator(pair)) <= bound + 1e-9


def test_pair_adjoint_swap():
    for seed in range(8):
        pair = _two_random_families(seed)
        s = pair_frame_operator(pair)
        swapped = pair_frame_operator(BesselPair(pair.gam, pair.lam))
        assert np.max(np.abs(adjoint(s) - swapped)) < 1e-10


def test_pair_operator_check_certifies_both_properties():
    """The printed norm is the pair operator's, and both comparisons pass on random pairs."""
    for seed in range(4):
        pair = _two_random_families(seed)
        rep = pair_operator_check(pair)
        assert rep.operator_norm == operator_norm(pair_frame_operator(pair))
        assert rep.norm_bound == np.sqrt(pair.lam_bounds.B_opt * pair.gam_bounds.B_opt)
        assert rep.norm_bound_ok and rep.adjoint_swap_ok
        assert rep.adjoint_swap_residual < 1e-10
        assert rep.verdict == "pass"


def test_pair_rejects_misaligned_atoms():
    lam = _equal_control_family(1, n=4, n_atoms=6)
    gam = _equal_control_family(2, n=4, n_atoms=7)
    with pytest.raises(PairingError):
        BesselPair(lam, gam)


def test_pair_rejects_distinct_controls_within_member():
    fam = diag_family(3, equal_controls=False)
    with pytest.raises(PairingError):
        BesselPair(fam, fam)


def test_pair_rejects_atoms_with_different_codomains():
    lam = _equal_control_family(1, n=4, n_atoms=5)
    first = lam.atoms[0]
    wider = MeasureAtom(first.id, first.weight, first.frame_weight, first.subspace,
                        np.vstack([first.local_op, np.zeros((1, 4))]))
    gam = ControlledFamily(4, (wider, *lam.atoms[1:]), lam.control_left, lam.control_right)
    with pytest.raises(PairingError, match="^atoms 'a0' and 'a0' map into codomains of different dimension$"):
        BesselPair(lam, gam)


def test_multiplier_rejects_a_symbol_of_another_length():
    pair = _dual_pair(0)
    count = len(pair.lam.atoms)
    with pytest.raises(PairingError, match=f"^symbol has {count + 1} values for {count} atoms$"):
        multiplier(MultiplierSymbol.constant(1.0, count + 1), pair)


# ----------------------------------------------------------- bounded below

def test_bounded_below_parseval():
    rep = pair_bounded_below(parseval_pair())
    assert rep.bounded_below
    assert rep.sigma_min == pytest.approx(1.0, abs=1e-12)
    assert rep.resolution_ok
    assert rep.certified_lower_ok


def test_bounded_below_dual_pair():
    for seed in range(4):
        rep = pair_bounded_below(_dual_pair(seed))
        assert rep.bounded_below
        assert rep.resolution_residual < 1e-8
        assert rep.certified_lower_ok


def test_bounded_below_detects_killed_direction():
    lam = _equal_control_family(5, n=4, n_atoms=6)
    # zero out every local operator's action on the last coordinate
    mask = np.diag([1.0, 1.0, 1.0, 0.0])
    gam = ControlledFamily(
        4,
        tuple(
            MeasureAtom(a.id, a.weight, a.frame_weight, a.subspace, a.local_op @ mask)
            for a in lam.atoms
        ),
        lam.control_left,
        lam.control_right,
    )
    rep = pair_bounded_below(BesselPair(lam, gam))
    assert not rep.bounded_below
    assert rep.sigma_min < 1e-10


def test_bounded_below_takes_one_svd_of_the_pair_operator(monkeypatch):
    """``sigma_min`` and the singularity test of the inverse read the same singular values."""
    fam = lowrank_family(1, 16)
    pair = BesselPair(fam, canonical_dual(fam))
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rep = pair_bounded_below(pair)
    assert shapes == [(16, 16)]
    assert rep.bounded_below and rep.resolution_ok
    assert rep.sigma_min == _singular_values(pair_frame_operator(pair))[-1]


# ------------------------------------------------------------ sum positivity

def test_sum_positivity_identity_controls():
    fam = diag_family(6, equal_controls=False)
    fam_id = ControlledFamily(fam.dim, fam.atoms, np.eye(fam.dim), np.eye(fam.dim))
    pair = BesselPair(fam_id, fam_id)
    rep = pair_sum_positivity(pair)
    assert rep.hypothesis_met
    assert rep.factorization_ok
    assert rep.positive


def test_sum_positivity_parallel_diagonal_pair():
    # atoms of the second family are positive rescalings of the first's, so
    # the uncontrolled pair sum is positive and everything commutes
    for seed in range(4):
        lam = _equal_control_family(seed, n=4, n_atoms=6)
        rng = np.random.default_rng(500 + seed)
        gam_atoms = tuple(
            MeasureAtom(
                a.id, a.weight, float(rng.uniform(0.4, 1.8)), a.subspace,
                float(rng.uniform(0.5, 1.5)) * a.local_op,
            )
            for a in lam.atoms
        )
        u = np.diag(rng.uniform(0.5, 2.0, 4))
        gam = ControlledFamily(4, gam_atoms, u, u)
        rep = pair_sum_positivity(BesselPair(lam, gam))
        assert rep.hypothesis_met
        assert rep.factorization_residual < 1e-10
        assert rep.positive


def test_sum_positivity_unrelated_pair_reports_hypothesis():
    rep = pair_sum_positivity(_two_random_families(0))
    assert not rep.hypothesis_met
    assert rep.hypothesis_notes


def test_sum_positivity_reports_noncommuting_hypothesis():
    n = 3
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.full(n), np.eye(n))
    t = np.diag([1.0, 2.0, 3.0])
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))[0]
    u = q @ np.diag([1.0, 2.0, 3.0]) @ q.T
    lam = ControlledFamily(n, (atom,), t, t)
    gam = ControlledFamily(n, (atom,), u, u)
    rep = pair_sum_positivity(BesselPair(lam, gam))
    assert not rep.hypothesis_met
    assert any("commute" in note for note in rep.hypothesis_notes)


# ---------------------------------------------------------------- multiplier

def test_multiplier_constant_one_collapses():
    fam = _equal_control_family(8)
    pair = BesselPair(fam, fam)
    m = MultiplierSymbol.constant(1.0, len(fam.atoms))
    assert operator_norm(multiplier(m, pair) - frame_operator(fam)) < 1e-11


def test_multiplier_linear_in_symbol():
    pair = _two_random_families(9)
    k = len(pair.lam.atoms)
    rng = np.random.default_rng(20)
    m1 = MultiplierSymbol(tuple(rng.standard_normal(k)))
    m2 = MultiplierSymbol(tuple(rng.standard_normal(k)))
    alpha = 1.3
    combo = MultiplierSymbol(tuple(alpha * a + b for a, b in zip(m1.values, m2.values)))
    lhs = multiplier(combo, pair)
    rhs = alpha * multiplier(m1, pair) + multiplier(m2, pair)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_multiplier_accepts_complex_symbol():
    pair = _two_random_families(14)
    k = len(pair.lam.atoms)
    ones = MultiplierSymbol.constant(1.0, k)
    rotated = MultiplierSymbol.constant(1j, k)
    assert np.max(np.abs(multiplier(rotated, pair) - 1j * multiplier(ones, pair))) < 1e-12


def test_multiplier_zero_symbol_is_zero_exactly():
    pair = _two_random_families(10)
    m = MultiplierSymbol.constant(0.0, len(pair.lam.atoms))
    assert np.all(multiplier(m, pair) == 0)


def test_multiplier_norm_bound():
    rng = np.random.default_rng(21)
    for seed in range(5):
        pair = _two_random_families(seed)
        m = MultiplierSymbol(tuple(rng.uniform(-2, 2, len(pair.lam.atoms))))
        bound = m.sup_norm * np.sqrt(pair.lam_bounds.B_opt * pair.gam_bounds.B_opt)
        assert operator_norm(multiplier(m, pair)) <= bound + 1e-9
        rep = multiplier_frame_criterion(m, pair)  # reports the norm of the one multiplier it assembles
        assert rep.operator_norm == operator_norm(multiplier(m, pair))
        assert rep.norm_bound == bound and rep.norm_bound_ok


def test_multiplier_adjoint_swap_real_symbol():
    pair = _two_random_families(11)
    rng = np.random.default_rng(22)
    m = MultiplierSymbol(tuple(rng.uniform(-1, 1, len(pair.lam.atoms))))
    lhs = adjoint(multiplier(m, pair))
    rhs = multiplier(m, BesselPair(pair.gam, pair.lam))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ------------------------------------------------------------ frame criterion

def test_criterion_dual_pair_certifies():
    for seed in range(4):
        pair = _dual_pair(seed)
        m = MultiplierSymbol.constant(1.0, len(pair.lam.atoms))
        rep = multiplier_frame_criterion(m, pair)
        assert rep.applicable
        assert rep.lambda_star < 1e-8
        assert rep.certified_lower_gam == pytest.approx(1.0 / pair.lam_bounds.B_opt, rel=1e-6)
        assert rep.certified_lower_gam_ok
        assert rep.certified_lower_lam_ok


def test_criterion_zero_symbol_inapplicable():
    pair = _dual_pair(5)
    m = MultiplierSymbol.constant(0.0, len(pair.lam.atoms))
    rep = multiplier_frame_criterion(m, pair)
    assert not rep.applicable
    assert rep.lambda_star == pytest.approx(1.0)


def test_criterion_perturbed_dual_still_certifies():
    fam = _equal_control_family(12)
    dual = canonical_dual(fam)
    pair = BesselPair(fam, scale_local_ops(dual, np.sqrt(1.02)))
    m = MultiplierSymbol.constant(1.0, len(fam.atoms))
    rep = multiplier_frame_criterion(m, pair)
    assert rep.applicable
    assert 0 < rep.lambda_star < 1
    assert rep.certified_lower_gam_ok
