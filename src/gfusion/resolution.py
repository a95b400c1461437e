"""Resolutions of the identity built from controlled families.

For atomic measures the weak, form-level identity defining a resolution is
equivalent to the operator identity ``sum_i weight_i T_i = I``, which is
what gets tested: it is exact and basis-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import _bounds_of, atom_factor, frame_operator, optimal_bounds
from .errors import DimensionError, HypothesisError, NotAFrameError
from .family import (
    ControlledFamily,
    _require_same_operator,
    _weighted_sum,
    replace_controls,
    require_valid,
)
from .linalg import adjoint, inverse, operator_norm, random_unit_vectors
from .tolerances import DEFAULT_SEED, TOL_COMM, TOL_FRAME, TOL_RES

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
    """Weighted square operators on a common space."""

    terms: tuple[np.ndarray, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("an operator family needs at least one term")
        if len(self.terms) != len(self.weights):
            raise DimensionError("terms and weights have different lengths")
        shape = np.asarray(self.terms[0]).shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionError(f"terms must be square, got shape {shape}")
        frozen = []
        for t in self.terms:
            t = np.array(t, dtype=np.complex128, copy=True)
            if t.shape != shape:
                raise DimensionError("terms do not share a common shape")
            t.setflags(write=False)
            frozen.append(t)
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "terms", tuple(frozen))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def dim(self) -> int:
        return int(self.terms[0].shape[0])

    def weighted_sum(self) -> np.ndarray:
        return _weighted_sum(self.weights, self.terms)


@dataclass(frozen=True)
class ResolutionReport:
    holds: bool
    residual: float
    tol: float


def is_resolution(fam: OperatorFamily, tol: float = TOL_RES) -> ResolutionReport:
    """Whether the weighted sum of the terms is the identity within ``tol``."""
    residual = operator_norm(fam.weighted_sum() - np.eye(fam.dim))
    return ResolutionReport(bool(residual <= tol), float(residual), float(tol))


class CanonicalResolutions(NamedTuple):
    left: OperatorFamily
    right: OperatorFamily


def canonical_resolutions(family: ControlledFamily, tol_frame: float = TOL_FRAME) -> CanonicalResolutions:
    """The two resolutions a frame induces through its inverse frame operator.

    The right one multiplies each weighted atom term by the inverse on the
    right, the left one on the left; both sum to the identity up to the
    conditioning of the frame operator.
    """
    s = frame_operator(family)
    report = _bounds_of(s, tol_frame=tol_frame)
    if not report.is_frame:
        raise NotAFrameError(f"resolutions need a frame, verdict is {report.verdict!r}")
    s_inv = inverse(s)
    left_terms = []
    right_terms = []
    for atom in family.atoms:  # S^-1 L* Y* Y R and L* Y* Y R S^-1, with Y = v A P
        y = atom.frame_weight * atom_factor(atom)
        yl = adjoint(y @ family.control_left)
        yr = y @ family.control_right
        left_terms.append((s_inv @ yl) @ yr)
        right_terms.append(yl @ (yr @ s_inv))
    weights = tuple(a.weight for a in family.atoms)
    return CanonicalResolutions(
        left=OperatorFamily(tuple(left_terms), weights),
        right=OperatorFamily(tuple(right_terms), weights),
    )


@dataclass(frozen=True)
class DualResolutionReport:
    """Resolution through the dual atoms, with its sampled two-sided bound."""

    resolution_ok: bool
    resolution_residual: float
    sandwich_lower: float
    sandwich_upper: float
    sampled_min: float
    sampled_max: float
    sandwich_ok: bool
    samples: int
    seed: int


def dual_resolution_bounds(
    family: ControlledFamily,
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
    tol_comm: float = TOL_COMM,
    tol_res: float = TOL_RES,
    slack: float = 1e-9,
) -> DualResolutionReport:
    """Bounds for the form built from the dual atoms ``A_i P_i S^-1``.

    Requires the inverse frame operator to commute with both controls.  The
    family ``weight_i v_i^2 L* P_i A_i* (A_i P_i S^-1) R`` must sum to the
    identity, and the sampled dual form must lie between ``A/B^2`` and
    ``B/A^2`` on the unit sphere.
    """
    s = frame_operator(family)
    report = _bounds_of(s)
    if not report.is_frame:
        raise NotAFrameError(f"dual bounds need a frame, verdict is {report.verdict!r}")
    s_inv = inverse(s)
    for name, c in (("left", family.control_left), ("right", family.control_right)):
        defect = operator_norm(s_inv @ c - c @ s_inv) / max(1.0, operator_norm(c))
        if defect > tol_comm:
            raise HypothesisError(
                f"inverse frame operator does not commute with the {name} control "
                f"(defect {defect:.3e})"
            )
    r_dual = s_inv @ family.control_right
    terms = []
    for atom in family.atoms:
        y = atom.frame_weight * atom_factor(atom)
        terms.append(adjoint(y @ family.control_left) @ (y @ r_dual))
    fam_ops = OperatorFamily(tuple(terms), tuple(a.weight for a in family.atoms))
    res = is_resolution(fam_ops, tol_res)

    f = random_unit_vectors(family.dim, samples, seed)
    rf = family.control_right @ f
    lf = family.control_left @ f
    vals = np.zeros(samples, dtype=np.complex128)
    for atom in family.atoms:
        dual_op = atom_factor(atom) @ s_inv
        x = dual_op @ rf
        y = dual_op @ lf
        vals += atom.weight * atom.frame_weight**2 * np.sum(np.conj(y) * x, axis=0)
    lower = report.A_opt / report.B_opt**2
    upper = report.B_opt / report.A_opt**2
    re_vals = vals.real
    sandwich_ok = bool(re_vals.min() >= lower - slack and re_vals.max() <= upper + slack)
    return DualResolutionReport(
        resolution_ok=res.holds,
        resolution_residual=res.residual,
        sandwich_lower=float(lower),
        sandwich_upper=float(upper),
        sampled_min=float(re_vals.min()),
        sampled_max=float(re_vals.max()),
        sandwich_ok=sandwich_ok,
        samples=samples,
        seed=seed,
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


def resolution_implies_frame(
    family: ControlledFamily,
    new_control: np.ndarray,
    tol_res: float = TOL_RES,
    slack: float = 1e-9,
) -> ResolutionFrameReport:
    """Upgrade a Bessel family to a frame under the new control.

    The input must carry one repeated control ``T``.  If the mixed terms
    ``v_i^2 T* P_i A_i* A_i P_i U`` resolve the identity, the family with
    both controls replaced by ``U`` is a frame, with certified bounds
    ``1/B`` and ``B norm(T^-1)^2 norm(U)^2``; the certificate is compared
    with the computed bounds of the re-controlled family.
    """
    require_valid(family)
    _require_same_operator(
        family.control_left, family.control_right, "the family must carry one repeated control"
    )
    new_control = np.asarray(new_control, dtype=np.complex128)
    bessel = optimal_bounds(family)
    if bessel.verdict == "not-bessel-diagnostic":
        raise HypothesisError("the quadratic form of the input family is not real")
    t = family.control_left
    terms = []
    for atom in family.atoms:
        y = atom.frame_weight * atom_factor(atom)
        terms.append(adjoint(y @ t) @ (y @ new_control))
    fam_ops = OperatorFamily(tuple(terms), tuple(a.weight for a in family.atoms))
    res = is_resolution(fam_ops, tol_res)
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
    recontrolled = replace_controls(family, new_control, new_control)
    computed = optimal_bounds(recontrolled)
    t_inv_norm = operator_norm(inverse(t))
    u_norm = operator_norm(new_control)
    cert_lower = 1.0 / bessel.B_opt
    cert_upper = bessel.B_opt * t_inv_norm**2 * u_norm**2
    ok = bool(
        cert_lower <= computed.A_opt + slack and computed.B_opt <= cert_upper + slack
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
