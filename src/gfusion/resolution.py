"""Resolutions of the identity built from controlled families.

For atomic measures the weak, form-level identity defining a resolution is
equivalent to the operator identity ``sum_i T_i = I``, which is what gets
tested: it is exact and basis-free.  Every resolution here is a family
between two operators ``(A, B)``, with terms
``T_i = A* (w_i v_i^2 P_i Lambda_i* Lambda_i P_i) B``, so its sum is
``A* S_plain B`` from the family's one uncontrolled sum ``S_plain``:
``(L, R S^-1)`` and ``(L S^-*, R)`` for the canonical resolutions,
``(L, S^-1 R)`` for the dual atoms, and ``(T, U)`` for
:func:`resolution_implies_frame`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import _controlled_sum, _frame_inverse, _require_commuting, optimal_bounds, plain_frame_operator
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


@dataclass(frozen=True)
class OperatorFamily:
    """The terms ``T_i = A* (w_i v_i^2 P_i Lambda_i* Lambda_i P_i) B`` of ``family`` between ``A = left``, ``B = right``.

    Every resolution the package builds has this form, so it keeps only the family and the two
    ``n x n`` operators, coerced to finite read-only copies: memory is ``O(n^2)`` beyond the family.
    The sum ``sum_i T_i`` is ``A* S_plain B``, with ``S_plain`` the family's uncontrolled sum
    (:func:`~gfusion.analysis.plain_frame_operator`), formed as the frame operator ``S = L* S_plain R`` is.
    """

    family: ControlledFamily
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        n = self.family.dim
        for name in ("left", "right"):
            op = as_operator(getattr(self, name))
            if op.shape != (n, n):
                raise DimensionError(f"{name} has shape {op.shape}, expected ({n}, {n})")
            object.__setattr__(self, name, op)

    @property
    def dim(self) -> int:
        return self.family.dim

    def weighted_sum(self) -> np.ndarray:
        return _controlled_sum(plain_frame_operator(self.family), self.left, self.right)


@dataclass(frozen=True)
class ResolutionReport:
    holds: bool
    residual: float
    tol: float

    @property
    def verdict(self) -> str:
        return "pass" if self.holds else "fail"


def is_resolution(fam: OperatorFamily, tol: float = TOL_RES) -> ResolutionReport:
    """Whether the sum of the terms is the identity within ``tol``."""
    _require_tolerances(tol=tol)
    return _resolution(fam.weighted_sum(), tol)


def _resolution(total: np.ndarray, tol: float) -> ResolutionReport:
    """The one test of a resolution sum: its residual ``norm(total - I)`` against ``tol``."""
    residual = operator_norm(total - np.eye(total.shape[0]))
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
    lc, rc = family.controls  # left sum S^-1 L* S_plain R, right sum L* S_plain R S^-1
    return CanonicalResolutions(
        OperatorFamily(family, lc @ adjoint(s_inv), rc), OperatorFamily(family, lc, rc @ s_inv)
    )


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
    lc, rc = family.controls
    s_plain = plain_frame_operator(family)  # one uncontrolled sum for the resolution and the dual form
    res = _resolution(_controlled_sum(s_plain, lc, s_inv @ rc), tol_res)
    w = hermitian_eigenvalues(hermitian_part(_controlled_sum(s_plain, s_inv @ lc, s_inv @ rc)))
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
    res = is_resolution(OperatorFamily(family, t, new_control))
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
