"""Frame operators and multipliers for pairs of Bessel families.

A pair couples one family with equal controls ``(T, T)`` to another with
equal controls ``(U, U)``, aligned atom by atom against the same measure.
The pair operator mixes the two coefficient structures; the multiplier
additionally weighs each atom with a bounded symbol.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .analysis import _commutation_defect, atom_factor, atom_sum, optimal_bounds
from .errors import PairingError
from .family import (
    ControlledFamily,
    FrameReport,
    MultiplierSymbol,
    _require_same_operator,
    _require_same_weights,
)
from .linalg import adjoint, inverse, is_positive, operator_norm, sigma_min
from .tolerances import TOL_COMM, TOL_FACT, TOL_FRAME, TOL_HERM, TOL_RES, TOL_SLACK

__all__ = [
    "BesselPair",
    "MultiplierReport",
    "PairBoundedBelowReport",
    "PairSumReport",
    "multiplier",
    "multiplier_frame_criterion",
    "pair_frame_operator",
    "pair_bounded_below",
    "pair_sum_positivity",
]

@dataclass(frozen=True)
class BesselPair:
    """Two atom-aligned Bessel families sharing the same measure.

    Alignment requires identical atom weights; frame weights, subspaces and
    local operators may differ.  Both members are validated and bounded once,
    under ``tol_frame`` and ``tol_herm``, and their bounds are kept with the
    pair; both quadratic forms must be real for the pair to make sense.
    """

    lam: ControlledFamily
    gam: ControlledFamily
    tol_frame: InitVar[float] = TOL_FRAME
    tol_herm: InitVar[float] = TOL_HERM
    lam_bounds: FrameReport = field(init=False)
    gam_bounds: FrameReport = field(init=False)

    def __post_init__(self, tol_frame, tol_herm):
        object.__setattr__(self, "lam_bounds", optimal_bounds(self.lam, tol_frame, tol_herm))
        object.__setattr__(self, "gam_bounds", optimal_bounds(self.gam, tol_frame, tol_herm))
        for name, fam in (("first", self.lam), ("second", self.gam)):
            _require_same_operator(
                fam.control_left, fam.control_right, f"{name} family must carry one repeated control"
            )
        if self.lam.dim != self.gam.dim:
            raise PairingError("families live in different dimensions")
        if len(self.lam.atoms) != len(self.gam.atoms):
            raise PairingError("families have different atom counts")
        _require_same_weights(self.lam, self.gam)
        for a, b in zip(self.lam.atoms, self.gam.atoms):
            if a.codomain_dim != b.codomain_dim:
                raise PairingError(
                    f"atoms {a.id!r} and {b.id!r} map into codomains of different dimension"
                )
        for name, report in (("first", self.lam_bounds), ("second", self.gam_bounds)):
            if report.verdict == "not-bessel-diagnostic":
                raise PairingError(f"{name} family has a non-real quadratic form")

    @property
    def dim(self) -> int:
        return int(self.lam.dim)


def _cross_sum(first: ControlledFamily, second: ControlledFamily) -> np.ndarray:
    """Uncontrolled pair sum ``sum_i weight_i v_i w_i P_Gi Gam_i* Lam_i P_Fi``.

    ``Lam, v`` come from ``first`` and ``Gam, w`` from ``second``; the
    measure weights are those of ``first``.
    """
    terms = (
        (a.weight * a.frame_weight * b.frame_weight, atom_factor(b), atom_factor(a))
        for a, b in zip(first.atoms, second.atoms)
    )
    return atom_sum(first.dim, terms)


def _pair_operator(first: ControlledFamily, second: ControlledFamily) -> np.ndarray:
    """The pair operator of ``BesselPair(first, second)``, without building the pair.

    Swapping the arguments assembles the swapped operator independently of
    the unswapped one, so comparing it with the adjoint is a real check.
    """
    return second.control_left @ _cross_sum(first, second) @ first.control_left


def pair_frame_operator(pair: BesselPair) -> np.ndarray:
    """``sum_i weight_i v_i w_i U P_Gi Gam_i* Lam_i P_Fi T``.

    The operator norm never exceeds the geometric mean of the two Bessel
    bounds, and its adjoint is the pair operator with the roles swapped.
    """
    return _pair_operator(pair.lam, pair.gam)


@dataclass(frozen=True)
class PairBoundedBelowReport:
    """Invertibility of the pair operator and the induced resolution."""

    bounded_below: bool
    sigma_min: float
    resolution_residual: float | None
    resolution_ok: bool
    certified_lower: float | None
    certified_lower_ok: bool


def pair_bounded_below(
    pair: BesselPair,
    tol: float = TOL_FRAME,
    tol_res: float = TOL_RES,
) -> PairBoundedBelowReport:
    """Decide whether the pair operator is bounded below.

    When it is, its inverse turns the weighted atom terms into a resolution
    of the identity, and the squared smallest singular value over the second
    family's Bessel bound certifies a lower frame bound for the first
    family; both claims are checked numerically.
    """
    s = pair_frame_operator(pair)
    smin = sigma_min(s)
    if smin <= tol:
        return PairBoundedBelowReport(False, smin, None, False, None, False)
    k = inverse(s)
    # The weighted atom terms K U P_Gi Gam_i* Lam_i P_Fi T sum to K times the pair operator.
    residual = operator_norm(k @ s - np.eye(pair.dim))
    certified = smin**2 / pair.gam_bounds.B_opt
    return PairBoundedBelowReport(
        bounded_below=True,
        sigma_min=smin,
        resolution_residual=float(residual),
        resolution_ok=bool(residual <= tol_res),
        certified_lower=float(certified),
        certified_lower_ok=bool(certified <= pair.lam_bounds.A_opt + TOL_SLACK),
    )


@dataclass(frozen=True)
class PairSumReport:
    """Positivity of the symmetrized pair operator via its factorization."""

    hypothesis_met: bool
    hypothesis_notes: tuple[str, ...]
    factorization_residual: float | None
    factorization_ok: bool
    positive: bool


def pair_sum_positivity(pair: BesselPair, tol_herm: float = TOL_HERM) -> PairSumReport:
    """Check that the pair operator plus its swap is positive.

    Hypotheses (reported, not raised): the two controls and the uncontrolled
    symmetrized pair operator commute with each other, and the latter is
    positive.  Under them, the controlled sum factors as
    ``U (uncontrolled sum) T`` and is positive; both are verified.
    """
    t = pair.lam.control_left
    u = pair.gam.control_left
    s_lam_gam = _cross_sum(pair.lam, pair.gam)
    s_sum = s_lam_gam + adjoint(s_lam_gam)
    notes: list[str] = []
    if _commutation_defect(t, u) > TOL_COMM:
        notes.append("controls do not commute with each other")
    if _commutation_defect(t, s_sum) > TOL_COMM:
        notes.append("first control does not commute with the uncontrolled pair sum")
    if _commutation_defect(u, s_sum) > TOL_COMM:
        notes.append("second control does not commute with the uncontrolled pair sum")
    if not is_positive(s_sum, tol_herm):
        notes.append("uncontrolled pair sum is not positive")
    if notes:
        return PairSumReport(False, tuple(notes), None, False, False)
    controlled_sum = u @ s_lam_gam @ t + _pair_operator(pair.gam, pair.lam)
    factored = u @ s_sum @ t
    residual = operator_norm(controlled_sum - factored) / max(1.0, operator_norm(factored))
    return PairSumReport(
        hypothesis_met=True,
        hypothesis_notes=(),
        factorization_residual=float(residual),
        factorization_ok=bool(residual <= TOL_FACT),
        positive=bool(is_positive(controlled_sum, tol_herm)),
    )


def multiplier(m: MultiplierSymbol, pair: BesselPair) -> np.ndarray:
    """``sum_i weight_i m_i v_i w_i T P_Fi Lam_i* Gam_i P_Gi U``.

    Linear in the symbol; the zero symbol gives the zero operator exactly,
    and the norm is bounded by the symbol's sup norm times the geometric
    mean of the Bessel bounds.
    """
    if len(m.values) != len(pair.lam.atoms):
        raise PairingError(
            f"symbol has {len(m.values)} values for {len(pair.lam.atoms)} atoms"
        )
    terms = (
        (a.weight * mi * a.frame_weight * b.frame_weight, atom_factor(a), atom_factor(b))
        for mi, a, b in zip(m.values, pair.lam.atoms, pair.gam.atoms)
    )
    return pair.lam.control_left @ atom_sum(pair.dim, terms) @ pair.gam.control_left


@dataclass(frozen=True)
class MultiplierReport:
    """Frame certification extracted from an invertibility estimate."""

    lambda_star: float
    applicable: bool
    claimed_lambda_ok: bool | None
    certified_lower_gam: float | None
    certified_lower_gam_ok: bool
    certified_lower_lam: float | None
    certified_lower_lam_ok: bool
    lam_is_frame: bool
    gam_is_frame: bool
    symmetric_bound_inferred: bool = True


def multiplier_frame_criterion(
    m: MultiplierSymbol,
    pair: BesselPair,
    claimed_lambda: float | None = None,
) -> MultiplierReport:
    """Certify both families as frames from the multiplier's deviation from identity.

    ``lambda_star`` is the computed norm of ``I - M``; the criterion applies
    when it is below one.  The certified lower bound for the second family is
    ``(1 - lambda_star)^2 / (B * sup|m|^2)`` with ``B`` the first family's
    Bessel bound; the bound for the first family swaps the roles and is
    flagged as inferred by symmetry.
    """
    mat = multiplier(m, pair)
    lambda_star = operator_norm(np.eye(pair.dim) - mat)
    claimed_ok = None if claimed_lambda is None else bool(lambda_star <= claimed_lambda + TOL_SLACK)
    if lambda_star >= 1.0 or m.sup_norm == 0.0:
        return MultiplierReport(
            lambda_star=float(lambda_star),
            applicable=False,
            claimed_lambda_ok=claimed_ok,
            certified_lower_gam=None,
            certified_lower_gam_ok=False,
            certified_lower_lam=None,
            certified_lower_lam_ok=False,
            lam_is_frame=pair.lam_bounds.is_frame,
            gam_is_frame=pair.gam_bounds.is_frame,
        )
    msq = m.sup_norm**2
    cert_gam = (1.0 - lambda_star) ** 2 / (pair.lam_bounds.B_opt * msq)
    cert_lam = (1.0 - lambda_star) ** 2 / (pair.gam_bounds.B_opt * msq)
    return MultiplierReport(
        lambda_star=float(lambda_star),
        applicable=True,
        claimed_lambda_ok=claimed_ok,
        certified_lower_gam=float(cert_gam),
        certified_lower_gam_ok=bool(cert_gam <= pair.gam_bounds.A_opt + TOL_SLACK),
        certified_lower_lam=float(cert_lam),
        certified_lower_lam_ok=bool(cert_lam <= pair.lam_bounds.A_opt + TOL_SLACK),
        lam_is_frame=pair.lam_bounds.is_frame,
        gam_is_frame=pair.gam_bounds.is_frame,
    )
