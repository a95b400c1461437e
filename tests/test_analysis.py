import importlib
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gfusion import (
    ControlledFamily,
    HypothesisError,
    MeasureAtom,
    NotAFrameError,
    Subspace,
    analysis,
    ball_partition_example,
    canonical_dual,
    controlled_plain_equivalence,
    cross_duality_check,
    frame_operator,
    gram_form,
    gram_form_samples,
    hermitian_part,
    operator_norm,
    optimal_bounds,
    plain_frame_operator,
    recontrol_balanced,
    recontrol_product,
    synthesis,
    synthesis_matrix,
    transform_family,
)
from helpers import (
    diag_family,
    generic_family,
    lowrank_family,
    oracle_frame_operator,
    oracle_gram,
    oracle_plain_operator,
    scale_local_ops,
    unit_vectors,
)


def identity_family(n=3):
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.full(n), np.eye(n))
    return ControlledFamily(n, (atom,), np.eye(n), np.eye(n))


# ----------------------------------------------------------------- gram form

def test_gram_form_builtin_value():
    fam = ball_partition_example(2.0, 1.5, 1.2)
    assert gram_form(fam, [1, 1, 1], [1, 1, 1]) == pytest.approx(6.25, abs=1e-12)


def test_gram_form_zero_vector():
    fam = ball_partition_example(2.0, 1.5, 1.2)
    assert gram_form(fam, [0, 0, 0], [0, 0, 0]) == 0


def test_gram_form_matches_independent_summation():
    rng = np.random.default_rng(10)
    for seed in range(5):
        fam = diag_family(seed)
        f = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        g = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        assert gram_form(fam, f, g) == pytest.approx(oracle_gram(fam, f, g), rel=1e-12, abs=1e-12)


def test_gram_form_pairs_with_frame_operator():
    fam = diag_family(3)
    rng = np.random.default_rng(11)
    s = frame_operator(fam)
    for _ in range(5):
        f = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        g = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        assert gram_form(fam, f, g) == pytest.approx(complex(np.vdot(g, s @ f)), abs=1e-10)


def test_gram_form_samples_agrees_with_scalar_calls():
    fam = generic_family(12)
    cols = unit_vectors(np.random.default_rng(1), fam.dim, 7)
    batch = gram_form_samples(fam, cols)
    for k in range(7):
        assert batch[k] == pytest.approx(gram_form(fam, cols[:, k], cols[:, k]), abs=1e-11)


# ------------------------------------------------------------ frame operator

def test_frame_operator_builtin_diagonal():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    assert_allclose(frame_operator(fam), np.diag([1.0, 4.0, 1.25]), atol=1e-14)


def test_frame_operator_identity_family():
    assert_allclose(frame_operator(identity_family()), np.eye(3))


def test_frame_operator_matches_oracle_and_factorization():
    for seed in range(6):
        fam = diag_family(seed)
        s = frame_operator(fam)
        assert_allclose(s, oracle_frame_operator(fam), atol=1e-12)
        s_plain = plain_frame_operator(fam)
        assert operator_norm(s - fam.control_left @ s_plain @ fam.control_right) < 1e-12


def test_frame_operator_additive_and_v_homogeneous():
    fam = diag_family(21, n=4, n_atoms=6)
    half_a = ControlledFamily(4, fam.atoms[:3], fam.control_left, fam.control_right)
    half_b = ControlledFamily(4, fam.atoms[3:], fam.control_left, fam.control_right)
    assert_allclose(frame_operator(half_a) + frame_operator(half_b), frame_operator(fam), atol=1e-13)
    doubled = ControlledFamily(
        4,
        tuple(
            MeasureAtom(a.id, a.weight, 2.0 * a.frame_weight, a.subspace, a.local_op)
            for a in fam.atoms
        ),
        fam.control_left,
        fam.control_right,
    )
    assert_allclose(frame_operator(doubled), 4.0 * frame_operator(fam), atol=1e-12)


def test_plain_frame_operator_builtin():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    assert_allclose(plain_frame_operator(fam), np.diag([1.0, 4.0, 1.0]), atol=1e-14)
    assert_allclose(plain_frame_operator(fam), oracle_plain_operator(fam), atol=1e-14)


def test_plain_frame_operator_zero_weight_atom_contributes_nothing():
    base = identity_family()
    extra = MeasureAtom("z", 1.0, 0.0, Subspace.full(3), 7.0 * np.eye(3))
    fam = ControlledFamily(3, base.atoms + (extra,), np.eye(3), np.eye(3))
    assert_allclose(plain_frame_operator(fam), np.eye(3))


def test_plain_frame_operator_hermitian():
    for seed in range(4):
        s = plain_frame_operator(generic_family(seed))
        assert operator_norm(s - s.conj().T) < 1e-12 * max(1.0, operator_norm(s))


# ------------------------------------------------------------- optimal bounds

def test_optimal_bounds_builtin():
    rep = optimal_bounds(ball_partition_example(3.0, 2.0, 1.5))
    assert rep.verdict == "frame"
    assert rep.A_opt == pytest.approx(1.0, abs=1e-12)
    assert rep.B_opt == pytest.approx(4.0, abs=1e-12)


def test_optimal_bounds_parseval_identity_family():
    rep = optimal_bounds(identity_family())
    assert (rep.A_opt, rep.B_opt) == (1.0, 1.0)
    assert rep.verdict == "frame"


def test_optimal_bounds_literal_reading_is_not_a_frame():
    rep = optimal_bounds(ball_partition_example(3.0, 2.0, 1.5, reading="literal"))
    assert rep.verdict == "bessel-only"
    assert rep.B_opt == pytest.approx(0.0, abs=1e-14)


def test_optimal_bounds_flags_non_real_form():
    # left control commutes with nothing here, so the form picks up an
    # imaginary part and the family must be declared non-conforming
    rng = np.random.default_rng(13)
    m = rng.standard_normal((3, 3))
    spd = m @ m.T + 3 * np.eye(3)
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.coordinate(3, [0, 1]), np.diag([1.0, 2.0, 0.0]))
    fam = ControlledFamily(3, (atom,), spd, np.eye(3))
    rep = optimal_bounds(fam)
    assert rep.verdict == "not-bessel-diagnostic"
    assert rep.herm_defect > 1e-8


def test_gram_sandwich_at_optimal_bounds():
    rng = np.random.default_rng(14)
    for seed in range(5):
        fam = generic_family(seed)
        rep = optimal_bounds(fam)
        vals = gram_form_samples(fam, unit_vectors(rng, fam.dim, 200)).real
        assert vals.min() >= rep.A_opt - 1e-9
        assert vals.max() <= rep.B_opt + 1e-9


# --------------------------------------------------------- analysis/synthesis

def test_analysis_identity_family_returns_input():
    fam = identity_family()
    f = np.array([1.0, 2.0, -1.0])
    bundle = analysis(fam, f)
    for phi in bundle.vectors:
        assert_allclose(phi, f)


def test_analysis_builtin_single_component():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    bundle = analysis(fam, [0.0, 1.0, 0.0])
    norms = [float(np.linalg.norm(v)) for v in bundle.vectors]
    assert norms[0] == pytest.approx(0.0, abs=1e-14)
    assert norms[2] == pytest.approx(0.0, abs=1e-14)
    assert bundle.norm_sq == pytest.approx(4.0, abs=1e-9)


def test_analysis_norm_reproduces_gram_form():
    rng = np.random.default_rng(15)
    for seed in range(5):
        fam = diag_family(seed)
        f = rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
        bundle = analysis(fam, f)
        s = frame_operator(fam)
        assert bundle.norm_sq == pytest.approx(float(np.vdot(f, s @ f).real), abs=1e-9)


def test_analysis_rejects_incompatible_controls():
    from gfusion import ControlledStructureError

    # rank-one atom along (1,1) does not commute with the right control, so
    # the per-atom controlled product is not positive
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.from_vectors([[1.0, 1.0]]), np.eye(2))
    fam = ControlledFamily(2, (atom,), np.eye(2), np.diag([1.0, 2.0]))
    with pytest.raises(ControlledStructureError):
        analysis(fam, [1.0, 0.0])


def test_synthesis_zero_bundle():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    bundle = analysis(fam, [0.0, 0.0, 0.0])
    assert_allclose(synthesis(fam, bundle), np.zeros(3))


def test_synthesis_of_analysis_identity_family_reconstructs():
    fam = identity_family()
    f = np.array([0.3, -1.2, 2.0 + 1j])
    assert_allclose(synthesis(fam, analysis(fam, f)), f, atol=1e-12)


def test_synthesis_of_analysis_is_frame_operator():
    for seed in range(5):
        fam = diag_family(seed, n=5)
        s = frame_operator(fam)
        assembled = np.column_stack(
            [synthesis(fam, analysis(fam, col)) for col in np.eye(fam.dim)]
        )
        assert operator_norm(assembled - s) < 1e-9


def test_synthesis_matrix_builtin():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    sm = synthesis_matrix(fam)
    assert_allclose(sm @ sm.conj().T, np.diag([1.0, 4.0, 1.25]), atol=1e-12)
    assert operator_norm(sm) <= 2.0 + 1e-9  # sqrt of the upper bound


# ----------------------------------------------------------------- transforms

def test_transform_identity_preserves_frame_operator():
    fam = diag_family(30)
    fam2 = transform_family(fam, np.eye(fam.dim))
    assert operator_norm(frame_operator(fam2) - frame_operator(fam)) < 1e-10


def test_transform_scalar_scales_quadratically():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    c = 1.7
    fam2 = transform_family(fam, c * np.eye(3))
    assert_allclose(frame_operator(fam2), c**2 * np.diag([1.0, 4.0, 1.25]), atol=1e-10)


def test_transform_conjugates_frame_operator():
    for seed in range(4):
        fam = diag_family(seed, n=4)
        rng = np.random.default_rng(100 + seed)
        v = np.diag(rng.uniform(0.5, 2.0, 4))  # diagonal commutes with diagonal controls
        fam2 = transform_family(fam, v)
        s = frame_operator(fam)
        assert operator_norm(frame_operator(fam2) - v @ s @ v.conj().T) < 1e-8


def test_transform_enforces_commutation():
    fam = diag_family(31, n=3)
    rot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(HypothesisError):
        transform_family(fam, rot)


# ------------------------------------------------------------- canonical dual

def test_canonical_dual_builtin():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    dual = canonical_dual(fam)
    assert_allclose(frame_operator(dual), np.diag([1.0, 0.25, 0.8]), atol=1e-10)
    rep = optimal_bounds(dual)
    assert rep.A_opt == pytest.approx(0.25, abs=1e-10)
    assert rep.B_opt == pytest.approx(1.0, abs=1e-10)


def test_canonical_dual_of_parseval_family():
    fam = identity_family()
    dual = canonical_dual(fam)
    assert operator_norm(frame_operator(dual) - frame_operator(fam)) < 1e-12


def test_canonical_dual_twice_returns_original_operator():
    for seed in range(4):
        fam = diag_family(seed)
        s = frame_operator(fam)
        again = canonical_dual(canonical_dual(fam))
        assert operator_norm(frame_operator(again) - s) < 1e-7 * max(1.0, operator_norm(s))


def test_canonical_dual_requires_frame():
    fam = ball_partition_example(3.0, 2.0, 1.5, reading="literal")
    with pytest.raises(NotAFrameError):
        canonical_dual(fam)


@pytest.mark.parametrize("k", [20, 30, 40])
def test_the_dual_keeps_every_subspace_at_any_scale(k):
    """Scaling the local operators by ``2**k`` scales ``S^-1`` by ``2**-2k``; each transported basis keeps its
    dimension (the rank rule is relative), and the dual's bounds stay the reciprocals of the family's."""
    fam = scale_local_ops(diag_family(0, equal_controls=True), 2.0**k)
    dual = canonical_dual(fam)
    assert [a.subspace.dim for a in dual.atoms] == [a.subspace.dim for a in fam.atoms]
    rep, rep_dual = optimal_bounds(fam), optimal_bounds(dual)
    assert rep.A_opt * rep_dual.B_opt == pytest.approx(1.0, abs=1e-9)
    assert rep.B_opt * rep_dual.A_opt == pytest.approx(1.0, abs=1e-9)


def test_dual_inverse_spectrum_bounds():
    for seed in range(4):
        fam = generic_family(seed)
        rep = optimal_bounds(fam)
        s_inv = np.linalg.inv(frame_operator(fam))
        eigs = np.linalg.eigvalsh(hermitian_part(s_inv))
        assert eigs.min() >= 1.0 / rep.B_opt - 1e-9
        assert eigs.max() <= 1.0 / rep.A_opt + 1e-9


# ----------------------------------------------------------------- recontrol

def test_recontrol_product_builtin():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    merged = recontrol_product(fam)
    assert_allclose(merged.control_left, np.diag([1.0, 1.0, 1.25]), atol=1e-14)
    assert_allclose(merged.control_right, np.eye(3))
    rep = optimal_bounds(merged)
    assert rep.A_opt == pytest.approx(1.0, abs=1e-12)
    assert rep.B_opt == pytest.approx(4.0, abs=1e-12)


def test_recontrol_balanced_builtin():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    balanced = recontrol_balanced(fam)
    assert_allclose(balanced.control_left, np.diag([1.0, 1.0, np.sqrt(1.25)]), atol=1e-12)
    assert_allclose(balanced.control_left, balanced.control_right)
    rep = optimal_bounds(balanced)
    assert rep.A_opt == pytest.approx(1.0, abs=1e-9)
    assert rep.B_opt == pytest.approx(4.0, abs=1e-9)


def test_recontrol_noop_for_identity_controls():
    fam = identity_family()
    for op in (recontrol_product, recontrol_balanced):
        out = op(fam)
        assert_allclose(out.control_left, np.eye(3))
        assert operator_norm(frame_operator(out) - frame_operator(fam)) < 1e-12


@pytest.mark.parametrize("op", [recontrol_product, recontrol_balanced])
def test_recontrol_preserves_gram_form(op):
    rng = np.random.default_rng(16)
    for seed in range(5):
        fam = diag_family(seed)
        out = op(fam)
        f = unit_vectors(rng, fam.dim, 50)
        before = gram_form_samples(fam, f)
        after = gram_form_samples(out, f)
        assert np.max(np.abs(before - after)) < 1e-9


def test_recontrol_bound_preservation_diagonal():
    for seed in range(6):
        fam = diag_family(seed)
        rep = optimal_bounds(fam)
        for op in (recontrol_product, recontrol_balanced):
            out = optimal_bounds(op(fam))
            assert out.A_opt == pytest.approx(rep.A_opt, abs=1e-10)
            assert out.B_opt == pytest.approx(rep.B_opt, abs=1e-10)


def test_recontrol_rejects_noncommuting_plain_operator():
    # control with distinct eigenvalues in a basis the atoms do not respect
    basis = np.linalg.qr(np.random.default_rng(17).standard_normal((3, 3)))[0]
    t = basis @ np.diag([1.0, 2.0, 3.0]) @ basis.T
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.coordinate(3, [0]), np.diag([1.0, 0.0, 0.0]))
    fam = ControlledFamily(3, (atom,), t, t)
    with pytest.raises(HypothesisError):
        recontrol_product(fam)


# ------------------------------------------------- controlled/plain sandwich

def test_equivalence_builtin():
    rep = controlled_plain_equivalence(ball_partition_example(3.0, 2.0, 1.5))
    assert rep.plain_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.plain_upper == pytest.approx(4.0, abs=1e-12)
    assert rep.ok


def test_equivalence_identity_controls_collapse():
    fam = diag_family(18, equal_controls=False)
    fam_id = ControlledFamily(fam.dim, fam.atoms, np.eye(fam.dim), np.eye(fam.dim))
    rep = controlled_plain_equivalence(fam_id)
    assert rep.controlled_lower == pytest.approx(rep.plain_lower, abs=1e-12)
    assert rep.controlled_upper == pytest.approx(rep.plain_upper, abs=1e-12)
    assert rep.ok


def test_equivalence_random_diagonal_instances():
    for seed in range(6):
        assert controlled_plain_equivalence(diag_family(seed)).ok


# -------------------------------------------------------------- cross duality

def test_cross_duality_parseval_self_pair():
    fam = identity_family()
    rep = cross_duality_check(fam, fam)
    assert rep.is_identity
    assert rep.certified_lower_a == pytest.approx(1.0)
    assert rep.lower_ok_a and rep.lower_ok_b


def test_cross_duality_frame_and_dual():
    for seed in range(4):
        fam = diag_family(seed)
        dual = canonical_dual(fam)
        rep = cross_duality_check(fam, dual)
        assert rep.residual < 1e-8
        assert rep.is_identity
        assert rep.lower_ok_a and rep.lower_ok_b


def test_cross_duality_unrelated_families():
    from helpers import scale_local_ops

    fam = diag_family(40, n=4, n_atoms=6)
    other = scale_local_ops(fam, 2.0)  # same measure, different coefficient maps
    rep = cross_duality_check(fam, other)
    assert not rep.is_identity
    assert rep.certified_lower_a is None


def test_canonical_dual_makes_one_n_by_n_svd_and_no_vdot(monkeypatch):
    """The dual's bases come from thin SVDs of ``n x r`` images, and ``S^-1`` is checked once, in ``inverse``."""
    fam = lowrank_family(4, 12)
    svd, vdot, shapes, vdots = np.linalg.svd, np.vdot, [], []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
    monkeypatch.setattr(np, "vdot", lambda *args: vdots.append(1) or vdot(*args))
    canonical_dual(fam)
    assert shapes.count((12, 12)) == 1
    assert sorted(set(shapes) - {(12, 12)}) == sorted({(12, a.subspace.dim) for a in fam.atoms})
    assert vdots == []


def test_exact_commutation_takes_no_norm(monkeypatch):
    """A commutator with no nonzero entry passes before any SVD; a failing one reports the SVD value."""
    from gfusion.analysis import _commutation_failure
    from gfusion.linalg import _defect_beyond
    from gfusion.tolerances import TOL_COMM

    s = frame_operator(generic_family(3))
    n = s.shape[0]
    skew = np.diag(np.arange(1.0, n + 1)) + np.eye(n, k=1)
    expected = operator_norm(skew @ s - s @ skew) / max(1.0, operator_norm(skew) * operator_norm(s))
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    assert _commutation_failure(1.5 * np.eye(n), s, "they") is None
    assert calls == []
    assert _commutation_failure(skew, s, "they") == f"they do not commute (defect {expected:.3e} > 1.000e-08)"
    defect = _defect_beyond(skew @ s - s @ skew, TOL_COMM, skew, s)
    assert defect > TOL_COMM and np.float64(defect).tobytes() == np.float64(expected).tobytes()


# --------------------------------------------------------------- refused inputs

def _with_vector(bundle, i, vector):
    vectors = list(bundle.vectors)
    vectors[i] = vector
    return replace(bundle, vectors=tuple(vectors))


@pytest.mark.parametrize("call, message", [
    (lambda fam: gram_form(fam, np.ones(4), np.ones(3)), "vector dimension does not match the family"),
    (lambda fam: gram_form(fam, np.ones(3), np.ones(2)), "vector dimension does not match the family"),
    (lambda fam: gram_form_samples(fam, np.ones((4, 2))), r"expected shape \(3, k\), got \(4, 2\)"),
    (lambda fam: gram_form_samples(fam, np.ones(3)), r"expected shape \(3, k\), got \(3,\)"),
    (lambda fam: analysis(fam, np.ones(4)), "vector dimension does not match the family"),
    (lambda fam: synthesis(fam, _with_vector(analysis(fam, np.ones(3)), 1, np.ones(2))),
     "atom 'B2': coefficient vector has wrong dimension"),
], ids=["gram-f", "gram-g", "samples-rows", "samples-1d", "analysis", "synthesis-vector"])
def test_mis_shaped_vectors_are_refused(call, message):
    from gfusion import DimensionError

    with pytest.raises(DimensionError, match=message):
        call(ball_partition_example(3.0, 2.0, 1.5))


def test_synthesis_refuses_a_bundle_of_other_atoms():
    from gfusion import PairingError

    fam = ball_partition_example(3.0, 2.0, 1.5)
    bundle = analysis(fam, np.ones(3))
    with pytest.raises(PairingError, match="coefficient bundle does not match the family's atoms"):
        synthesis(fam, replace(bundle, atom_ids=("B1", "B3", "B2")))


def _non_positive_product_family():
    """Plain frame operator ``I`` (it commutes with every control), but ``L R`` is not Hermitian."""
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.full(2), np.eye(2))
    return ControlledFamily(2, (atom,), np.diag([1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 2.0]]))


@pytest.mark.parametrize("op", [recontrol_product, recontrol_balanced, controlled_plain_equivalence])
def test_every_product_form_caller_refuses_a_non_positive_product(op):
    with pytest.raises(HypothesisError, match="^the product of the controls is not positive$"):
        op(_non_positive_product_family())


def test_overflowing_sum_of_finite_terms_names_the_frame_operator():
    """Each atom's term is finite and only their sum overflows, so no atom is named."""
    from gfusion import ValidationError

    atoms = tuple(MeasureAtom(f"a{i}", 1.0, 1.0, Subspace.full(1), [[1e154]]) for i in range(2))
    fam = ControlledFamily(1, atoms, np.eye(1), np.eye(1))
    with pytest.raises(ValidationError, match="^frame operator is not finite$"):
        frame_operator(fam)


@pytest.mark.parametrize("equal_controls, sides", [(True, ["left"]), (False, ["left", "right"])])
def test_a_repeated_control_is_one_commutator(monkeypatch, equal_controls, sides):
    """``canonical_dual`` tests ``S^-1`` against the left control, and against the right one only if it differs."""
    module = importlib.import_module("gfusion.analysis")  # the package attribute is the analysis map
    tested = []
    failure = module._commutation_failure
    monkeypatch.setattr(module, "_commutation_failure", lambda a, b, what: tested.append(what) or failure(a, b, what))
    canonical_dual(diag_family(3, equal_controls=equal_controls))
    assert tested == [f"the inverse frame operator and the {side} control" for side in sides]
