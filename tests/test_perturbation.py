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
    Subspace,
    ValidationError,
    ball_partition_example,
    optimal_bounds,
    replace_controls,
    perturb_check,
    perturb_check_simple,
    total_v2,
)
from gfusion.perturbation import _atom_terms
from gfusion.tolerances import TOL_PD
from helpers import (
    diag_family,
    generic_family,
    lowrank_family,
    oracle_atom_term,
    oracle_perturbation,
    oracle_simple_perturbation,
    perturbed_family,
    positive_control,
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


def _largest_difference(lam, gam):
    diffs = [oracle_atom_term(lam, b) - oracle_atom_term(lam, a) for a, b in zip(lam.atoms, gam.atoms)]
    return max(np.linalg.eigvalsh((d + d.conj().T) / 2)[-1] for d in diffs)


_PARAM_RULES = [
    ("eps", 0.5), ("eps", 2.0),
    ("lambda1", 0.005), ("lambda1", 0.02),
    ("lambda2", 0.005), ("lambda2", 0.02),
    ("mixed", 0.5), ("mixed", 2.0),
]


@settings(max_examples=40, deadline=None)
@example(seed=1, kind="lowrank", control="scalar", size=24, grow="none", shrink=0, extra=False,
         rule=("lambda1", 0.02))
@example(seed=2, kind="lowrank", control="dense", size=30, grow="all", shrink=None, extra=False,
         rule=("lambda1", 0.005))
@example(seed=3, kind="lowrank", control="scalar", size=40, grow="some", shrink=None, extra=True,
         rule=("eps", 0.5))
@example(seed=4, kind="lowrank", control="dense", size=28, grow="all", shrink=None, extra=False,
         rule=("lambda2", 0.02))
@example(seed=5, kind="dense", control="scalar", size=12, grow="all", shrink=None, extra=False,
         rule=("lambda1", 0.005))
@example(seed=6, kind="lowrank", control="dense", size=32, grow="some", shrink=None, extra=True,
         rule=("mixed", 2.0))
@given(
    seed=st.integers(0, 2**20),
    kind=st.sampled_from(["lowrank", "dense"]),
    control=st.sampled_from(["scalar", "dense"]),
    size=st.integers(12, 40),
    grow=st.sampled_from(["none", "some", "all"]),
    shrink=st.none() | st.integers(0, 11),
    extra=st.booleans(),
    rule=st.sampled_from(_PARAM_RULES),
)
def test_two_fraction_check_matches_oracle(seed, kind, control, size, grow, shrink, extra, rule):
    """Verdict, failing atom, applicability and ``inside`` agree with the full-``eigvalsh`` oracle.

    ``lowrank`` instances have ``size`` atoms of rank and codomain at most 3
    in dimension ``size`` under ``control`` (see :func:`lowrank_family`), so
    every atom pair with ``2 m <= n`` takes the ``m x m`` blocks; ``dense``
    ones have ``n`` in 4..7, codomains up to ``n + 1`` and a diagonal control,
    so ``2 m > n`` and every term is ``n x n``.  Grown atoms have
    their local operator scaled by ``sqrt(1.01)`` (``some``: every other
    atom), so ``lambda1`` or ``lambda2`` of 0.005 breaks the upper ordering
    and 0.02 keeps it; ``extra`` adds a codomain row to grown atoms, a term
    that a fraction of the reference form need not dominate.  Atom ``shrink``
    is scaled by ``sqrt(0.99)``, which breaks the lower ordering.  ``eps``
    puts the absolute term at that multiple of the largest per-atom
    difference, so 0.5 breaks the upper ordering; ``mixed`` is
    ``(0.005, 0.005, that eps)``, where 2.0 covers the extra rows.
    """
    if kind == "lowrank":
        lam = lowrank_family(seed, size, control)
    else:
        lam = generic_family(seed, n=4 + size % 4, n_atoms=6)
    count = len(lam.atoms)
    grown = {"none": set(), "some": set(range(0, count, 2)), "all": set(range(count))}[grow]
    factors = [1.01 if i in grown else 1.0 for i in range(count)]
    if shrink is not None:
        factors[shrink % count] = 0.99
    gam = perturbed_family(lam, factors, grown if extra else ())
    name, c = rule
    largest = _largest_difference(lam, gam)
    eps = c * (largest if largest > 1e-6 else optimal_bounds(lam).A_opt / total_v2(lam))
    lambda1, lambda2, eps = {
        "eps": (0.0, 0.0, eps),
        "lambda1": (c, 0.0, 0.0),
        "lambda2": (0.0, c, 0.0),
        "mixed": (0.005, 0.005, eps),
    }[name]
    met, failing, applicable, _, inside, margin = oracle_perturbation(lam, gam, lambda1, lambda2, eps)
    rep = perturb_check(lam, gam, PerturbationParams(lambda1, lambda2, eps))
    assert rep.hypothesis_met == met
    assert rep.failing_atom == failing
    assert rep.applicable == applicable
    assert rep.inside == inside
    assert (rep.min_margin is None) == (margin is None)
    if margin is not None:
        assert rep.min_margin == pytest.approx(margin + TOL_PD, rel=0, abs=1e-12 * _term_scale(lam, gam))


def _term_scale(lam, gam):
    """The largest norm of a per-atom term of either family, the scale of their rounding."""
    return max(np.linalg.norm(oracle_atom_term(lam, x), 2) for x in (*lam.atoms, *gam.atoms))


def test_blocks_carry_the_full_terms():
    """``Q (block) Q*`` is the ``n x n`` Hermitian term, also when ``(Y L)*`` and ``(Y R)*`` span different ranges.

    The controls ``L != R`` make no frame, so the per-atom terms are checked
    directly; the frame checks above only reach control pairs whose forms are real.
    """
    lam = lowrank_family(11, 30, "dense")
    rng = np.random.default_rng(11)
    right = lam.control_left + 0.1 * positive_control(rng, lam.dim)
    lam = ControlledFamily(lam.dim, lam.atoms, lam.control_left, right)
    gam = perturbed_family(lam, [1.01] * len(lam.atoms), extra_rows=range(0, len(lam.atoms), 2))
    compressed = 0
    for (atom_id, q, *blocks), a, b in zip(_atom_terms(lam, gam), lam.atoms, gam.atoms):
        ref, per = (oracle_atom_term(lam, x) for x in (a, b))
        ref, per = (ref + ref.conj().T) / 2, (per + per.conj().T) / 2
        compressed += q is not None
        for block, full in zip(blocks, (ref, per, per - ref)):
            lifted = block if q is None else q @ block @ q.conj().T
            np.testing.assert_allclose(lifted, full, atol=1e-12, err_msg=atom_id)
    assert compressed > len(lam.atoms) // 2


def _rank_one_family():
    return lowrank_family(0, 64, "scalar", max_rank=1, atoms=80)


def test_rank_one_atoms_never_reach_an_n_by_n_eigenproblem(monkeypatch):
    """Per atom only ``m x m`` blocks (``m = 4``) are decomposed.

    The ``n x n`` calls are exactly those the two frame-operator bound
    computations make (the bounds, and the control checks of validation).
    """
    lam = _rank_one_family()
    gam = perturbed_family(lam, [1.01] * len(lam.atoms))
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    optimal_bounds(lam)
    optimal_bounds(gam)
    bounds_shapes = list(shapes)
    shapes.clear()
    rep = perturb_check(lam, gam, PerturbationParams(0.02, 0.0, 0.0))
    assert rep.hypothesis_met and rep.applicable and rep.inside  # both frame-operator bounds were computed
    assert set(bounds_shapes) == {(64, 64)}
    assert shapes.count((64, 64)) == len(bounds_shapes)
    assert sorted(set(shapes) - {(64, 64)}) == [(4, 4)]
    assert shapes.count((4, 4)) == 2 * len(lam.atoms)  # difference, and dominator minus difference


def test_rank_deficient_stack_matches_oracle():
    """Scalar controls and ``Y_b = s Y_a``: the ``4 d`` stacked rows span only ``d`` dimensions.

    The verdicts agree with the oracle, and the margin, read on the blocks,
    agrees with the smallest eigenvalue of the ``n x n`` differences.
    """
    lam = lowrank_family(5, 48, "scalar")
    gam = scale_local_ops(lam, 1.05)
    for params in [(0.2, 0.0, 0.0), (0.05, 0.0, 0.0), (0.0, 0.1, 0.0), (0.0, 0.0, 1.0)]:
        met, failing, applicable, _, inside, margin = oracle_perturbation(lam, gam, *params)
        rep = perturb_check(lam, gam, PerturbationParams(*params))
        assert (rep.hypothesis_met, rep.failing_atom, rep.applicable, rep.inside) == (met, failing, applicable, inside)
        if params == (0.2, 0.0, 0.0):
            assert rep.min_margin == pytest.approx(margin + TOL_PD, rel=0, abs=1e-12 * _term_scale(lam, gam))


def test_min_margin_is_the_lowest_eigenvalue_of_the_differences():
    """Full-rank atoms (``2 m > n``) grown by 1-3 %: each difference is positive definite.

    So the margin is a positive number well above ``TOL_PD``, set by the
    atom whose difference has the lowest eigenvalue, not a rounded zero.
    """
    rng = np.random.default_rng(4)
    n = 4
    atoms = tuple(MeasureAtom(f"a{i}", 1.0, 1.0, Subspace.full(n), rng.standard_normal((n + 1, n))) for i in range(3))
    control = positive_control(rng, n)
    lam = ControlledFamily(n, atoms, control, control)
    gam = perturbed_family(lam, [1.03, 1.01, 1.02])
    rep = perturb_check(lam, gam, PerturbationParams(0.05, 0.0, 0.0))
    margin = oracle_perturbation(lam, gam, 0.05, 0.0, 0.0)[-1]
    assert rep.hypothesis_met and margin > 1e3 * TOL_PD
    assert rep.min_margin == pytest.approx(margin + TOL_PD, rel=1e-10)


@pytest.mark.parametrize("overflow", ["block", "factor"])
def test_overflowing_compressed_atom_is_named(overflow):
    """A rank-one atom (``2 m <= n``) whose term overflows: one error naming it, no warning.

    ``block``: a ``1e200`` local-operator entry keeps the factors finite, and
    the ``m x m`` block overflows.  ``factor``: ``Y = 1.5e308 e_0*`` on a
    coordinate subspace, so ``Y L`` (``L = 2 I``) is already not finite.
    """
    lam = _rank_one_family()
    lam = replace_controls(lam, 2.0 * np.eye(lam.dim), 2.0 * np.eye(lam.dim))
    atoms = list(lam.atoms)
    a = atoms[3]
    op = np.array(a.local_op)
    if overflow == "block":
        op[0, 0] = 1e200
        atoms[3] = MeasureAtom(a.id, a.weight, a.frame_weight, a.subspace, op)
    else:
        op = np.zeros_like(op)
        op[0, 0] = 1.5e308
        atoms[3] = MeasureAtom(a.id, a.weight, a.frame_weight, Subspace.coordinate(lam.dim, [0]), op)
    gam = ControlledFamily(lam.dim, tuple(atoms), lam.control_left, lam.control_right)
    for params in [(0.0, 0.0, 0.1), (0.1, 0.0, 0.0)]:  # a RuntimeWarning would fail the test (pyproject.toml)
        with pytest.raises(ValidationError, match="atom 'a3': frame operator term is not finite"):
            perturb_check(lam, gam, PerturbationParams(*params))


@pytest.mark.parametrize("bound", [0.0, -1.0, float("nan")])
def test_simple_check_refuses_a_bound_that_is_not_positive(bound):
    fam = ball_partition_example(3, 2, 1.5)
    with pytest.raises(ValueError, match="^the perturbation constant must be positive, got "):
        perturb_check_simple(fam, fam, bound)
