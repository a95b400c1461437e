"""Controlled quadratic forms, frame operators, duals, and control changes.

The central object is the controlled frame operator

    S = sum_i  weight_i * v_i^2 * L* P_i A_i* A_i P_i R

with ``L, R`` the control pair, ``P_i`` the subspace projections and ``A_i``
the local operators.  Its quadratic form is the controlled Gram form; the
optimal bounds of the family are the extreme eigenvalues of its Hermitian
part.  If the form is not real (Hermiticity defect above tolerance) the
family is declared non-conforming rather than silently symmetrized: hiding
the asymmetry would mask a modeling error.

Every per-atom sum in the package is formed from the factors
``Y_i = A_i P_i`` (:func:`atom_factor`, built from the subspace basis, never
from the ``n x n`` projection) and accumulated one small product
``c_i X_i* Y_i`` at a time in ascending atom order (:func:`atom_sum`).  The
frame operator is ``S = L* (sum_i weight_i v_i^2 Y_i* Y_i) R``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ControlledStructureError,
    DimensionError,
    HypothesisError,
    NotAFrameError,
    NotPositiveError,
    PairingError,
    ValidationError,
)
from .family import (
    ControlledFamily, FrameReport, _distinct_controls, _require_aligned, _require_real, replace_controls, require_valid,
)
from .linalg import (
    Subspace,
    _defect_beyond,
    _nonsingular_operator,
    adjoint,
    as_vector,
    inverse,
    is_positive,
    operator_norm,
    operator_sqrt,
    orthonormal_columns,
    spectral_summary,
)
from .tolerances import TOL_COMM, TOL_DUAL, TOL_FRAME, TOL_HERM, TOL_PD, TOL_SLACK, _require_tolerances

__all__ = [
    "CoefficientBundle",
    "CrossDualityReport",
    "EquivalenceReport",
    "analysis",
    "canonical_dual",
    "controlled_atom_term",
    "controlled_plain_equivalence",
    "cross_duality_check",
    "frame_operator",
    "gram_form",
    "gram_form_samples",
    "optimal_bounds",
    "plain_frame_operator",
    "recontrol_balanced",
    "recontrol_product",
    "synthesis",
    "synthesis_matrix",
    "transform_family",
]


def atom_factor(atom) -> np.ndarray:
    """``A P`` for one atom, formed through the subspace basis ``B`` as ``(A B) B*``.

    Costs ``O(d r n)`` and never builds the ``n x n`` projection.  Every
    per-atom term in the package is a product of two such factors, possibly
    composed with fixed operators on the right.
    """
    b = atom.subspace.basis
    return (atom.local_op @ b) @ adjoint(b)


def atom_sum(dim: int, terms) -> np.ndarray:
    """``sum_i c_i X_i* Y_i`` over ``(c_i, X_i, Y_i)`` triples, in the order given.

    Callers pass the triples in ascending atom order.  Each term is one small
    product of ``d x n`` factors added to the running total.  The sum over
    atoms is never handed to BLAS as one long inner dimension, whose split
    between threads could change the rounding, so the result has the same
    bits at every BLAS thread count.
    """
    total = np.zeros((dim, dim), dtype=np.complex128)
    for c, x, y in terms:
        total += np.conj(x).T @ (c * y)
    return total


def _gram_terms(family):
    for atom in family.atoms:
        y = atom_factor(atom)
        try:
            c = atom.weight * atom.frame_weight**2
        except OverflowError:  # v**2 is beyond the double range
            raise ValidationError([f"atom {atom.id!r}: weight * v**2 is not finite"]) from None
        yield c, y, y


def controlled_atom_term(family: ControlledFamily, atom) -> np.ndarray:
    """``L* (P A* A P) R`` for one atom of a controlled family."""
    y = atom_factor(atom)
    return adjoint(y @ family.control_left) @ (y @ family.control_right)


def gram_form(family: ControlledFamily, f, g) -> complex:
    """The controlled Gram form, summed atom by atom.

    Returns ``sum_i weight_i * v_i^2 * <A_i P_i R f, A_i P_i L g>`` with the
    inner product linear in its first slot.  Evaluating at ``g = f`` gives
    the quadratic form whose two-sided bounds define the frame property.
    """
    f = as_vector(f)
    g = as_vector(g)
    if f.size != family.dim or g.size != family.dim:
        raise DimensionError("vector dimension does not match the family")
    return complex(_gram_columns(family, f[:, None], g[:, None])[0])


def gram_form_samples(family: ControlledFamily, vectors: np.ndarray) -> np.ndarray:
    """Vectorized Gram form values for a batch of column vectors.

    Equivalent to ``[gram_form(family, f, f) for f in vectors.T]`` but
    evaluated per atom on the whole batch at once.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    if vectors.ndim != 2 or vectors.shape[0] != family.dim:
        raise DimensionError(f"expected shape ({family.dim}, k), got {vectors.shape}")
    return _gram_columns(family, vectors, vectors)


def _gram_columns(family: ControlledFamily, fs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """The Gram form at each column pair ``(f, g)`` of ``fs`` and ``gs``: the one loop of both Gram functions."""
    rf = family.control_right @ fs
    lg = family.control_left @ gs
    vals = np.zeros(fs.shape[1], dtype=np.complex128)
    for c, ap, _ in _gram_terms(family):
        vals += c * np.sum(np.conj(ap @ lg) * (ap @ rf), axis=0)
    return vals


def frame_operator(family: ControlledFamily, *, tol_herm: float = TOL_HERM) -> np.ndarray:
    """Assemble the controlled frame operator ``L* (sum_i w_i v_i^2 Y_i* Y_i) R``.

    Callers that reach ``S`` validate their family here, under ``tol_herm``, and nowhere else.
    A non-finite ``S`` raises :class:`ValidationError` naming the first atom whose term is not finite.
    """
    require_valid(family, tol_herm)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite S is rejected just below
        s = adjoint(family.control_left) @ plain_frame_operator(family) @ family.control_right
        if not np.isfinite(s).all():
            raise ValidationError([_non_finite_term(family)])
    return s


def _non_finite_term(family: ControlledFamily) -> str:
    """Name the first atom whose frame-operator term, formed as in ``S``, is not finite (scanned only on failure)."""
    left, right = adjoint(family.control_left), family.control_right
    for atom, term in zip(family.atoms, _gram_terms(family)):
        if not np.isfinite(left @ atom_sum(family.dim, [term]) @ right).all():
            return f"atom {atom.id!r}: frame operator term is not finite"
    return "frame operator is not finite"


def plain_frame_operator(family: ControlledFamily) -> np.ndarray:
    """The uncontrolled sum ``sum_i w_i v_i^2 Y_i* Y_i``, Hermitian PSD by construction: the core of ``S``."""
    return atom_sum(family.dim, _gram_terms(family))


def optimal_bounds(
    family: ControlledFamily,
    tol_frame: float = TOL_FRAME,
    tol_herm: float = TOL_HERM,
) -> FrameReport:
    """Optimal two-sided bounds of the controlled quadratic form.

    The bounds are the extreme eigenvalues of the Hermitian part of the
    frame operator.  Verdicts: ``frame`` when the lower bound clears
    ``tol_frame`` and the form is real within ``tol_herm``; ``bessel-only``
    when only the upper bound is meaningful; ``not-bessel-diagnostic`` when
    the form is not real, in which case the bounds reported are those of the
    Hermitian part and the notes say so.
    """
    _require_tolerances(tol_frame=tol_frame, tol_herm=tol_herm)
    return _bounds_of(frame_operator(family, tol_herm=tol_herm), tol_frame, tol_herm)


def _bounds_of(s: np.ndarray, tol_frame: float, tol_herm: float) -> FrameReport:
    """The :func:`optimal_bounds` verdict read from an already assembled frame operator."""
    summary = spectral_summary(s)
    notes: list[str] = []
    if summary.herm_defect > tol_herm:
        verdict = "not-bessel-diagnostic"
        notes.append(
            f"quadratic form is not real: Hermiticity defect {summary.herm_defect:.3e} "
            f"exceeds {tol_herm:.3e}"
        )
    elif summary.lambda_min > tol_frame:
        verdict = "frame"
    else:
        verdict = "bessel-only"
        notes.append(f"lower bound {summary.lambda_min:.3e} does not clear tol_frame")
    return FrameReport(
        verdict=verdict,
        A_opt=summary.lambda_min,
        B_opt=summary.lambda_max,
        herm_defect=summary.herm_defect,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class CoefficientBundle:
    """Per-atom coefficient vectors produced by the analysis map.

    The squared norm is weighted by the atom masses, matching the inner
    product of the coefficient space the synthesis map acts on.
    """

    atom_ids: tuple[str, ...]
    weights: tuple[float, ...]
    vectors: tuple[np.ndarray, ...]

    @property
    def norm_sq(self) -> float:
        return float(sum(w * float((np.conj(v) @ v).real) for w, v in zip(self.weights, self.vectors)))


def _atom_root(family: ControlledFamily, atom) -> np.ndarray:
    term = controlled_atom_term(family, atom)
    try:
        return operator_sqrt(term, TOL_PD)
    except NotPositiveError as exc:
        raise ControlledStructureError(
            f"atom {atom.id!r}: controlled product is not positive ({exc}); "
            "the control pair is incompatible with this family"
        ) from exc


def analysis(family: ControlledFamily, f) -> CoefficientBundle:
    """Coefficients of ``f``: one vector ``v_i * root_i f`` per atom.

    ``root_i`` is the positive square root of the controlled per-atom
    product, which must be positive within tolerance for the map to exist.
    The weighted squared norm of the bundle reproduces the Gram form at ``f``.
    """
    require_valid(family)
    f = as_vector(f)
    if f.size != family.dim:
        raise DimensionError("vector dimension does not match the family")
    vectors = []
    for atom in family.atoms:
        root = _atom_root(family, atom)
        vectors.append(atom.frame_weight * (root @ f))
    return CoefficientBundle(
        atom_ids=tuple(a.id for a in family.atoms),
        weights=tuple(a.weight for a in family.atoms),
        vectors=tuple(vectors),
    )


def synthesis(family: ControlledFamily, bundle: CoefficientBundle) -> np.ndarray:
    """Adjoint of the analysis map: weighted sum of ``v_i * root_i`` applied per atom.

    Composing synthesis with analysis reproduces the frame operator.
    """
    require_valid(family)
    if bundle.atom_ids != tuple(a.id for a in family.atoms):
        raise PairingError("coefficient bundle does not match the family's atoms")
    out = np.zeros(family.dim, dtype=np.complex128)
    for atom, phi in zip(family.atoms, bundle.vectors):
        phi = as_vector(phi)
        if phi.size != family.dim:
            raise DimensionError(f"atom {atom.id!r}: coefficient vector has wrong dimension")
        root = _atom_root(family, atom)
        out += atom.weight * atom.frame_weight * (root @ phi)
    return out


def synthesis_matrix(family: ControlledFamily) -> np.ndarray:
    """Synthesis as a single matrix on the weighted coefficient space.

    Columns are grouped per atom and scaled by ``sqrt(weight_i)``, which
    turns the weighted coefficient inner product into the plain one; the
    operator norm of the result is then the norm of the synthesis map.
    """
    require_valid(family)
    blocks = []
    for atom in family.atoms:
        root = _atom_root(family, atom)
        blocks.append(np.sqrt(atom.weight) * atom.frame_weight * root)
    return np.hstack(blocks)


def _commutation_failure(a: np.ndarray, b: np.ndarray, what: str) -> str | None:
    """``None`` if ``a`` and ``b`` commute within ``TOL_COMM``; otherwise why not, naming ``what`` and the defect.

    The one commutation test of every hypothesis, raised or reported.  Its
    defect is ``norm(ab - ba) / max(1, norm(a) norm(b))``; exactly commuting
    operators take no SVD.
    """
    defect = _defect_beyond(a @ b - b @ a, TOL_COMM, a, b)
    return None if defect is None else f"{what} do not commute (defect {defect:.3e} > {TOL_COMM:.3e})"


def _raise_failure(failure: str | None) -> None:
    """Raise a :func:`_commutation_failure` that is not ``None`` as a :class:`HypothesisError`."""
    if failure is not None:
        raise HypothesisError(failure)


def transform_family(family: ControlledFamily, v: np.ndarray) -> ControlledFamily:
    """Push a family forward along an invertible operator ``v``.

    Subspaces are transported to their images, local operators become
    ``A_i P_i v*``, and weights and controls are unchanged.  ``v`` must be a
    finite, nonsingular ``n x n`` matrix, checked before anything else, and
    ``v*`` must commute with both controls (checked), so that the new frame
    operator is ``v S v*``.
    """
    v = _nonsingular_operator(v, family.dim)
    require_valid(family)
    _require_commuting(adjoint(v), family, "the adjoint of the transform")
    return _transform(family, v)


def _transform(family: ControlledFamily, v: np.ndarray) -> ControlledFamily:
    """:func:`transform_family` of a validated family along a checked ``v``: nonsingular, ``v*`` commuting."""
    vh = adjoint(v)
    new_atoms = []
    for atom in family.atoms:
        new_atoms.append(
            type(atom)(
                id=atom.id,
                weight=atom.weight,
                frame_weight=atom.frame_weight,
                subspace=Subspace(orthonormal_columns(v @ atom.subspace.basis)),
                local_op=atom_factor(atom) @ vh,
            )
        )
    return ControlledFamily(family.dim, tuple(new_atoms), family.control_left, family.control_right)


def canonical_dual(family: ControlledFamily) -> ControlledFamily:
    """Transform a frame along the inverse of its frame operator.

    The result is again a frame; its frame operator is the inverse of the
    original one, provided that inverse commutes with the controls (checked).
    """
    return _canonical_dual(family, TOL_FRAME, TOL_HERM)[0]


def _canonical_dual(family: ControlledFamily, tol_frame: float, tol_herm: float) -> tuple[ControlledFamily, np.ndarray]:
    """:func:`canonical_dual` and the inverse frame operator it transforms along."""
    _, s_inv = _frame_inverse(family, "cannot dualize:", tol_frame, tol_herm)
    _require_commuting(s_inv, family, "the inverse frame operator")
    return _transform(family, s_inv), s_inv


def _frame_inverse(
    family: ControlledFamily, refusal: str, tol_frame: float, tol_herm: float
) -> tuple[FrameReport, np.ndarray]:
    """The bounds verdict and the inverse frame operator, from one assembly of ``S``.

    Unless the verdict is ``frame``, raises :class:`NotAFrameError` as ``"<refusal> verdict is '...'"``.
    """
    s = frame_operator(family, tol_herm=tol_herm)
    report = _bounds_of(s, tol_frame, tol_herm)
    if not report.is_frame:
        raise NotAFrameError(f"{refusal} verdict is {report.verdict!r}")
    return report, inverse(s)


def _require_commuting(op: np.ndarray, family: ControlledFamily, name: str) -> None:
    """Raise :class:`HypothesisError` unless ``op`` commutes with both controls (a repeated one is tested once).

    The error names the control.
    """
    for side, control in zip(("left", "right"), _distinct_controls(family)):
        _raise_failure(_commutation_failure(op, control, f"{name} and the {side} control"))


def _product_form(family: ControlledFamily) -> tuple[np.ndarray, np.ndarray]:
    """The plain frame operator and the merged control ``L R``, under the product-form hypotheses.

    ``L`` must commute with the plain frame operator and ``L R`` must be
    positive within ``TOL_HERM``; otherwise :class:`HypothesisError`.
    """
    s_plain = plain_frame_operator(family)
    _raise_failure(_commutation_failure(family.control_left, s_plain, "the left control and the plain frame operator"))
    product = family.control_left @ family.control_right
    if not is_positive(product, TOL_HERM):
        raise HypothesisError("the product of the controls is not positive")
    return s_plain, product


def recontrol_product(family: ControlledFamily) -> ControlledFamily:
    """Merge the control pair into (left @ right, identity).

    Requires the product-form hypotheses (:func:`_product_form`); under
    them the Gram form, and hence the optimal bounds, are unchanged.
    """
    require_valid(family)
    _, product = _product_form(family)
    return replace_controls(family, product, np.eye(family.dim))


def recontrol_balanced(family: ControlledFamily) -> ControlledFamily:
    """Split the merged control evenly: both controls become its square root.

    On top of the product-form hypotheses this needs the merged control to
    commute with the plain frame operator, so that its positive square root
    commutes too.
    """
    require_valid(family)
    s_plain, product = _product_form(family)
    _raise_failure(_commutation_failure(product, s_plain, "the merged control and the plain frame operator"))
    root = operator_sqrt(product, TOL_HERM)
    return replace_controls(family, root, root)


@dataclass(frozen=True)
class EquivalenceReport:
    """Sandwich between controlled and uncontrolled optimal bounds."""

    plain_lower: float
    plain_upper: float
    controlled_lower: float
    controlled_upper: float
    product_lambda_max: float
    product_lambda_min: float
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def controlled_plain_equivalence(family: ControlledFamily) -> EquivalenceReport:
    """Compare controlled and plain bounds through the merged control.

    Verifies the two inequalities that link them: the controlled lower bound
    divided by the largest eigenvalue of the merged control is below the
    plain lower bound, and the plain upper bound is below the controlled
    upper bound divided by the smallest eigenvalue.
    """
    controlled = optimal_bounds(family)
    s_plain, product = _product_form(family)
    prod_summary = spectral_summary(product)
    plain_summary = spectral_summary(s_plain)
    lower_ok = controlled.A_opt / prod_summary.lambda_max <= plain_summary.lambda_min + TOL_SLACK
    upper_ok = plain_summary.lambda_max <= controlled.B_opt / prod_summary.lambda_min + TOL_SLACK
    return EquivalenceReport(
        plain_lower=plain_summary.lambda_min,
        plain_upper=plain_summary.lambda_max,
        controlled_lower=controlled.A_opt,
        controlled_upper=controlled.B_opt,
        product_lambda_max=prod_summary.lambda_max,
        product_lambda_min=prod_summary.lambda_min,
        lower_ok=bool(lower_ok),
        upper_ok=bool(upper_ok),
    )


@dataclass(frozen=True)
class CrossDualityReport:
    """Result of composing the coefficient maps of two families."""

    residual: float
    is_identity: bool
    certified_lower_a: float | None
    certified_lower_b: float | None
    lower_ok_a: bool
    lower_ok_b: bool


def cross_duality_check(fam_a: ControlledFamily, fam_b: ControlledFamily) -> CrossDualityReport:
    """Test whether two families reconstruct each other.

    Assembles ``sum_i weight_i v_i w_i root_b_i root_a_i`` from the two
    coefficient maps and compares it with the identity.  If they match, each
    family is certified to have a lower bound equal to the reciprocal of the
    other's upper bound, and those certificates are checked against the
    computed optimal bounds.  The composite may differ from the identity by ``TOL_DUAL``.
    """
    bounds_a = optimal_bounds(fam_a)
    bounds_b = optimal_bounds(fam_b)
    _require_aligned(fam_a, fam_b)
    _require_real(bounds_a, "first family")
    _require_real(bounds_b, "second family")
    composite = np.zeros((fam_a.dim, fam_a.dim), dtype=np.complex128)
    for a, b in zip(fam_a.atoms, fam_b.atoms):
        root_a = _atom_root(fam_a, a)
        root_b = _atom_root(fam_b, b)
        composite += a.weight * a.frame_weight * b.frame_weight * (root_b @ root_a)
    residual = operator_norm(composite - np.eye(fam_a.dim))
    is_identity = residual <= TOL_DUAL
    cert_a = cert_b = None
    ok_a = ok_b = False
    if is_identity:
        cert_a = 1.0 / bounds_b.B_opt
        cert_b = 1.0 / bounds_a.B_opt
        ok_a = cert_a <= bounds_a.A_opt + TOL_SLACK
        ok_b = cert_b <= bounds_b.A_opt + TOL_SLACK
    return CrossDualityReport(
        residual=float(residual),
        is_identity=bool(is_identity),
        certified_lower_a=cert_a,
        certified_lower_b=cert_b,
        lower_ok_a=bool(ok_a),
        lower_ok_b=bool(ok_b),
    )
