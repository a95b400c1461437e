import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfusion import (
    ControlledFamily,
    MeasureAtom,
    NotAFrameError,
    PairingError,
    PerturbationParams,
    ValidationError,
    ball_partition_example,
    optimal_bounds,
    perturb_check,
    perturb_check_simple,
    total_v2,
)
from helpers import (
    diag_family,
    generic_family,
    oracle_atom_term,
    oracle_simple_perturbation,
    scale_local_ops,
)


def test_params_validate_ranges():
    with pytest.raises(ValueError):
        PerturbationParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PerturbationParams(0.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        PerturbationParams(0.0, 0.0, -1.0)


def test_non_finite_perturbed_term_names_its_atom():
    fam = ball_partition_example(3, 2, 1.5)
    op = np.array(fam.atoms[0].local_op)
    op[0, 0] = 1e200
    atoms = (MeasureAtom(fam.atoms[0].id, 3.0, 1.0, fam.atoms[0].subspace, op),) + fam.atoms[1:]
    gam = ControlledFamily(fam.dim, atoms, fam.control_left, fam.control_right)
    for check in (lambda: perturb_check_simple(fam, gam, 0.1),
                  lambda: perturb_check(fam, gam, PerturbationParams(0.1, 0.0, 0.0))):
        with pytest.raises(ValidationError, match="atom 'B1': frame operator term is not finite"):
            check()


def test_zero_perturbation_certifies_exact_bounds():
    for seed in range(4):
        fam = diag_family(seed)
        rep = perturb_check(fam, fam, PerturbationParams(0.0, 0.0, 0.0))
        assert rep.hypothesis_met and rep.applicable and rep.inside
        assert abs(rep.certified_lower - rep.computed_lower) <= 1e-12
        assert abs(rep.certified_upper - rep.computed_upper) <= 1e-12


@pytest.mark.parametrize("delta", [0.01, 0.1])
def test_scaled_perturbation(delta):
    fam = diag_family(3)
    gam = scale_local_ops(fam, np.sqrt(1.0 + delta))
    rep = perturb_check(fam, gam, PerturbationParams(delta, 0.0, 0.0))
    assert rep.hypothesis_met
    assert rep.applicable
    assert rep.inside
    bounds = optimal_bounds(fam)
    assert rep.certified_lower == pytest.approx((1.0 - delta) * bounds.A_opt, rel=1e-12)
    assert rep.certified_upper == pytest.approx((1.0 + delta) * bounds.B_opt, rel=1e-12)
    # the scaled family's bounds are (1+delta) times the originals
    assert rep.computed_lower == pytest.approx((1.0 + delta) * bounds.A_opt, rel=1e-9)


def test_sign_flipped_perturbation_names_atom():
    fam = diag_family(4)
    gam = scale_local_ops(fam, np.sqrt(0.9))  # shrinks the form: lower bound 0 fails
    rep = perturb_check(fam, gam, PerturbationParams(0.1, 0.0, 0.0))
    assert not rep.hypothesis_met
    assert rep.failing_atom == fam.atoms[0].id


def test_perturb_requires_frame_reference():
    fam = ball_partition_example(3.0, 2.0, 1.5, reading="literal")
    with pytest.raises(NotAFrameError):
        perturb_check(fam, fam, PerturbationParams(0.0, 0.0, 0.0))


def test_perturb_rejects_misaligned_weights():
    fam = diag_family(5, n=4, n_atoms=6)
    other = ControlledFamily(
        4,
        tuple(
            MeasureAtom(a.id, a.weight + 0.5, a.frame_weight, a.subspace, a.local_op)
            for a in fam.atoms
        ),
        fam.control_left,
        fam.control_right,
    )
    with pytest.raises(PairingError):
        perturb_check(fam, other, PerturbationParams(0.0, 0.0, 0.0))


def test_certified_interval_monotone_in_params():
    fam = diag_family(6)
    lows, highs = [], []
    for lam1, lam2, eps in [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.1, 0.2, 0.0), (0.1, 0.2, 0.01)]:
        rep = perturb_check(fam, fam, PerturbationParams(lam1, lam2, eps))
        assert rep.hypothesis_met  # zero difference satisfies any budget
        if rep.applicable:
            lows.append(rep.certified_lower)
            highs.append(rep.certified_upper)
    assert all(a >= b for a, b in zip(lows, lows[1:]))
    assert all(a <= b for a, b in zip(highs, highs[1:]))


def test_simple_check_identical_families():
    fam = diag_family(7)
    bounds = optimal_bounds(fam)
    d = 0.5 * bounds.A_opt / total_v2(fam)
    rep = perturb_check_simple(fam, fam, d)
    assert rep.hypothesis_met and rep.applicable and rep.inside
    assert rep.certified_lower <= bounds.A_opt <= bounds.B_opt <= rep.certified_upper


def test_simple_check_rank_one_bump_threshold():
    fam = diag_family(8, n=4, n_atoms=6)
    bump = 1e-3
    first = fam.atoms[0]
    # enlarge one local operator so the controlled difference is a small bump
    bumped = MeasureAtom(
        first.id,
        first.weight,
        first.frame_weight,
        first.subspace,
        np.sqrt(1.0 + bump) * first.local_op,
    )
    gam = ControlledFamily(4, (bumped,) + fam.atoms[1:], fam.control_left, fam.control_right)
    # the supremum of the per-atom difference form, computed independently
    lh = fam.control_left.conj().T
    p = first.subspace.basis @ first.subspace.basis.conj().T
    core = p @ first.local_op.conj().T @ first.local_op @ p
    delta = bump * (lh @ core @ fam.control_right)
    d0 = float(np.linalg.eigvalsh((delta + delta.conj().T) / 2)[-1])
    assert perturb_check_simple(fam, gam, d0 + 1e-12).hypothesis_met
    assert not perturb_check_simple(fam, gam, d0 * 0.9).hypothesis_met


def test_simple_check_inapplicable_boundary():
    fam = diag_family(9)
    bounds = optimal_bounds(fam)
    threshold = bounds.A_opt / total_v2(fam)
    assert not perturb_check_simple(fam, fam, threshold * 1.001).applicable
    assert perturb_check_simple(fam, fam, threshold * 0.999).applicable


_SIMPLE_D_RULES = [("ratio", 0.5), ("ratio", 0.999), ("ratio", 1.001), ("upper", 0.5), ("upper", 2.0)]


@settings(max_examples=40, deadline=None)
@example(seed=1, dense=False, grow=[True] * 6, shrink=0, d_rule=("ratio", 0.5))
@example(seed=2, dense=True, grow=[False, True] * 3, shrink=None, d_rule=("upper", 0.5))
@example(seed=3, dense=True, grow=[False] * 6, shrink=None, d_rule=("ratio", 0.999))
@example(seed=4, dense=False, grow=[False] * 6, shrink=None, d_rule=("ratio", 1.001))
@example(seed=5, dense=True, grow=[True] * 6, shrink=None, d_rule=("upper", 2.0))
@given(
    seed=st.integers(0, 2**20),
    dense=st.booleans(),
    grow=st.lists(st.booleans(), min_size=6, max_size=6),
    shrink=st.none() | st.integers(0, 5),
    d_rule=st.sampled_from(_SIMPLE_D_RULES),
)
def test_simple_check_matches_oracle(seed, dense, grow, shrink, d_rule):
    """The verdict, failing atom, applicability and interval agree with the oracle.

    Atom ``i`` has its local operator scaled by ``sqrt(1.01)`` where
    ``grow[i]``, and atom ``shrink`` by ``sqrt(0.99)``, which breaks the lower
    ordering.  ``ratio`` puts the constant at that multiple of ``A / total_v2``
    (the applicability threshold); ``upper`` at that multiple of the largest
    per-atom difference, so 0.5 breaks the upper ordering.
    """
    lam = generic_family(seed, n=4, n_atoms=6) if dense else diag_family(seed, n=4, n_atoms=6)
    factors = [1.01 if g else 1.0 for g in grow]
    if shrink is not None:
        factors[shrink] = 0.99
    gam = ControlledFamily(
        lam.dim,
        tuple(
            MeasureAtom(a.id, a.weight, a.frame_weight, a.subspace, np.sqrt(f) * a.local_op)
            for a, f in zip(lam.atoms, factors)
        ),
        lam.control_left,
        lam.control_right,
    )
    rule, c = d_rule
    diffs = [oracle_atom_term(lam, b) - oracle_atom_term(lam, a) for a, b in zip(lam.atoms, gam.atoms)]
    largest = max(np.linalg.eigvalsh((d + d.conj().T) / 2)[-1] for d in diffs)
    if rule == "ratio" or largest < 1e-6:
        d = c * optimal_bounds(lam).A_opt / total_v2(lam)
    else:
        d = c * largest
    met, failing, applicable, interval, inside = oracle_simple_perturbation(lam, gam, d)
    rep = perturb_check_simple(lam, gam, d)
    assert rep.hypothesis_met == met
    assert rep.failing_atom == failing
    assert rep.applicable == applicable
    if interval is None:
        assert rep.certified_lower is None and rep.certified_upper is None
    else:
        assert rep.certified_lower == pytest.approx(interval[0], rel=1e-9, abs=1e-12)
        assert rep.certified_upper == pytest.approx(interval[1], rel=1e-9, abs=1e-12)
    assert rep.inside == inside
