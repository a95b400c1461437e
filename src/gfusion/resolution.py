"""Resolutions of the identity built from controlled families.

For atomic measures the weak, form-level identity defining a resolution is
equivalent to the operator identity ``sum_i weight_i T_i = I``, which is
what gets tested: it is exact and basis-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import _frame_inverse, _require_commuting, atom_factor, atom_sum, optimal_bounds
from .errors import DimensionError
from .family import ControlledFamily, _require_real, _require_same_operator, replace_controls
from .linalg import adjoint, as_operator, hermitian_eigenvalues, hermitian_part, inverse, operator_norm
from .tolerances import TOL_FRAME, TOL_HERM, TOL_RES, TOL_SLACK, _require_tolerances

__all__ = [
    "CanonicalResolutions",
    "DualResolutionReport",
    "OperatorFamily",
    "ResolutionFrameReport",
    "ResolutionReport",
    "canonical_resolutions",
    "dual_resolution_bounds",
    "is_resolution",
    "resolution_implies_frame",
]


@dataclass(frozen=True, init=False)
class OperatorFamily:
    """Weighted operators ``X_i* Y_i`` on a common space, kept as read-only ``d_i x n`` factor pairs.

    Memory is ``O(atoms d n)`` and the weighted sum is one :func:`~gfusion.analysis.atom_sum`.
    ``OperatorFamily(terms, weights)`` takes finite square matrices, each kept as the pair
    ``(I, t)``, and finite positive weights.
    """

    factors: tuple[tuple[np.ndarray, np.ndarray], ...]
    weights: tuple[float, ...]

    def __init__(self, terms, weights):
        terms = tuple(as_operator(t) for t in terms)
        if not terms:
            raise ValueError("an operator family needs at least one term")
        n = terms[0].shape[0]
        if any(t.shape != (n, n) for t in terms):
            raise DimensionError("terms must be square and share one shape")
        eye = as_operator(np.eye(n))
        self._set(tuple((eye, t) for t in terms), weights)

    @classmethod
    def _from_factors(cls, factors, weights) -> "OperatorFamily":
        """Pairs computed from a checked family, frozen in place rather than copied."""
        for pair in factors:
            for f in pair:
                f.setflags(write=False)
        fam = cls.__new__(cls)
        fam._set(tuple(factors), weights)
        return fam

    def _set(self, factors, weights) -> None:
        weights = tuple(float(w) for w in weights)
        if len(factors) != len(weights):
            raise DimensionError("terms and weights have different lengths")
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise ValueError("weights must be finite and positive")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return int(self.factors[0][1].shape[1])

    @property
    def terms(self) -> tuple[np.ndarray, ...]:
        """The ``n x n`` terms ``X_i* Y_i``, built on demand for inspection."""
        return tuple(adjoint(x) @ y for x, y in self.factors)

    def weighted_sum(self) -> np.ndarray:
        return atom_sum(self.dim, ((w, x, y) for w, (x, y) in zip(self.weights, self.factors)))


def _resolution_families(family: ControlledFamily, controls) -> list[OperatorFamily]:
    """Per control pair ``(A, B)``, the terms ``w_i (y_i A)* (y_i B)`` with ``y_i = v_i A_i P_i``.

    Each ``y_i`` is formed once, however many pairs are given.
    """
    factors = [[] for _ in controls]
    for atom in family.atoms:
        y = atom.frame_weight * atom_factor(atom)
        for out, (a, b) in zip(factors, controls):
            out.append((y @ a, y @ b))
    return [OperatorFamily._from_factors(f, [atom.weight for atom in family.atoms]) for f in factors]


@dataclass(frozen=True)
class ResolutionReport:
    holds: bool
    residual: float
    tol: float

    @property
    def verdict(self) -> str:
        return "pass" if self.holds else "fail"


def is_resolution(fam: OperatorFamily, tol: float = TOL_RES) -> ResolutionReport:
    """Whether the weighted sum of the terms is the identity within ``tol``."""
    _require_tolerances(tol=tol)
    residual = operator_norm(fam.weighted_sum() - np.eye(fam.dim))
    return ResolutionReport(bool(residual <= tol), float(residual), float(tol))


class CanonicalResolutions(NamedTuple):
    left: OperatorFamily
    right: OperatorFamily


def canonical_resolutions(
    family: ControlledFamily, tol_frame: float = TOL_FRAME, tol_herm: float = TOL_HERM
) -> CanonicalResolutions:
    """The two resolutions a frame induces through its inverse frame operator.

    The right one multiplies each weighted atom term by the inverse on the
    right, the left one on the left; both sum to the identity up to the
    conditioning of the frame operator.
    """
    _require_tolerances(tol_frame=tol_frame, tol_herm=tol_herm)
    _, s_inv = _frame_inverse(family, "resolutions need a frame,", tol_frame, tol_herm)
    lc, rc = family.controls  # left terms S^-1 L* y* y R, right terms L* y* y R S^-1
    return CanonicalResolutions(*_resolution_families(family, ((lc @ adjoint(s_inv), rc), (lc, rc @ s_inv))))


@dataclass(frozen=True)
class DualResolutionReport:
    """Resolution through the dual atoms, and the exact range ``form_*`` of the dual form that decides its sandwich."""

    resolution_ok: bool
    resolution_residual: float
    sandwich_lower: float
    sandwich_upper: float
    form_min: float
    form_max: float
    sandwich_ok: bool

    @property
    def verdict(self) -> str:
        return "pass" if (self.resolution_ok and self.sandwich_ok) else "fail"


def dual_resolution_bounds(
    family: ControlledFamily,
    tol_res: float = TOL_RES,
    tol_frame: float = TOL_FRAME,
    tol_herm: float = TOL_HERM,
) -> DualResolutionReport:
    """Bounds for the form built from the dual atoms ``A_i P_i S^-1``.

    Requires a frame under ``tol_frame`` and ``tol_herm``, and the inverse
    frame operator to commute with both controls within ``TOL_COMM``.  The
    family ``weight_i v_i^2 L* P_i A_i* (A_i P_i S^-1) R`` must sum to the
    identity, and the form ``Re f* M f``, ``M = sum_i weight_i v_i^2 (A_i P_i S^-1 L)* (A_i P_i S^-1 R)``,
    must lie between ``A/B^2`` and ``B/A^2`` on the unit sphere: decided on the spectrum of ``H(M)``,
    whose extremes ``form_min`` and ``form_max`` are its exact range there.
    """
    _require_tolerances(tol_res=tol_res, tol_frame=tol_frame, tol_herm=tol_herm)
    report, s_inv = _frame_inverse(family, "dual bounds need a frame,", tol_frame, tol_herm)
    _require_commuting(s_inv, family, "the inverse frame operator")
    sl, sr = s_inv @ family.control_left, s_inv @ family.control_right
    fam_ops, dual_form = _resolution_families(family, ((family.control_left, sr), (sl, sr)))
    res = is_resolution(fam_ops, tol_res)
    w = hermitian_eigenvalues(hermitian_part(dual_form.weighted_sum()))
    lower = report.A_opt / report.B_opt**2
    upper = report.B_opt / report.A_opt**2
    sandwich_ok = bool(w[0] >= lower - TOL_SLACK and w[-1] <= upper + TOL_SLACK)
    return DualResolutionReport(
        resolution_ok=res.holds,
        resolution_residual=res.residual,
        sandwich_lower=float(lower),
        sandwich_upper=float(upper),
        form_min=float(w[0]),
        form_max=float(w[-1]),
        sandwich_ok=sandwich_ok,
    )


@dataclass(frozen=True)
class ResolutionFrameReport:
    """Frame certificate for a re-controlled family, given a resolution."""

    hypothesis_met: bool
    resolution_residual: float
    certified_lower: float | None
    certified_upper: float | None
    computed_lower: float | None
    computed_upper: float | None
    certificate_ok: bool


def resolution_implies_frame(family: ControlledFamily, new_control: np.ndarray) -> ResolutionFrameReport:
    """Upgrade a Bessel family to a frame under the new control.

    The input must carry one repeated control ``T``.  If the mixed terms
    ``v_i^2 T* P_i A_i* A_i P_i U`` resolve the identity, the family with
    both controls replaced by ``U`` is a frame, with certified bounds
    ``1/B`` and ``B norm(T^-1)^2 norm(U)^2``; the certificate is compared
    with the computed bounds of the re-controlled family.  ``U`` must be a
    finite ``n x n`` matrix, checked before anything else.
    """
    recontrolled = replace_controls(family, new_control, new_control)
    new_control = recontrolled.control_left
    bessel = optimal_bounds(family)
    _require_same_operator(
        family.control_left, family.control_right, "the family must carry one repeated control"
    )
    _require_real(bessel, "the input family")
    t = family.control_left
    (fam_ops,) = _resolution_families(family, ((t, new_control),))
    res = is_resolution(fam_ops)
    if not res.holds:
        return ResolutionFrameReport(
            hypothesis_met=False,
            resolution_residual=res.residual,
            certified_lower=None,
            certified_upper=None,
            computed_lower=None,
            computed_upper=None,
            certificate_ok=False,
        )
    computed = optimal_bounds(recontrolled)
    t_inv_norm = operator_norm(inverse(t))
    u_norm = operator_norm(new_control)
    cert_lower = 1.0 / bessel.B_opt
    cert_upper = bessel.B_opt * t_inv_norm**2 * u_norm**2
    ok = bool(
        cert_lower <= computed.A_opt + TOL_SLACK and computed.B_opt <= cert_upper + TOL_SLACK
    )
    return ResolutionFrameReport(
        hypothesis_met=True,
        resolution_residual=res.residual,
        certified_lower=float(cert_lower),
        certified_upper=float(cert_upper),
        computed_lower=computed.A_opt,
        computed_upper=computed.B_opt,
        certificate_ok=ok,
    )
