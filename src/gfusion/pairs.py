"""Frame operators and multipliers for pairs of Bessel families.

A pair couples one family with equal controls ``(T, T)`` to another with
equal controls ``(U, U)``, aligned atom by atom against the same measure.
The pair operator mixes the two coefficient structures; the multiplier
additionally weighs each atom with a bounded symbol.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .analysis import _commutation_failure, atom_factor, atom_sum, optimal_bounds
from .errors import PairingError
from .family import (
    ControlledFamily,
    FrameReport,
    MultiplierSymbol,
    _require_aligned,
    _require_real,
    _require_same_operator,
)
from .linalg import _inverse, _relative_defect, _singular, _singular_values, adjoint, is_positive, operator_norm
from .tolerances import TOL_FACT, TOL_FRAME, TOL_HERM, TOL_RES, TOL_SLACK, TOL_SWAP, _require_tolerances

__all__ = [
    "BesselPair",
    "MultiplierReport",
    "PairBoundedBelowReport",
    "PairOperatorReport",
    "PairSumReport",
    "multiplier",
    "multiplier_frame_criterion",
    "pair_frame_operator",
    "pair_bounded_below",
    "pair_operator_check",
    "pair_sum_positivity",
]

@dataclass(frozen=True)
class BesselPair:
    """Two atom-aligned Bessel families sharing the same measure.

    Alignment requires identical atom weights; frame weights, subspaces and
    local operators may differ.  Both members are validated and bounded once,
    under ``tol_frame`` and ``tol_herm``, and their bounds are kept with the
    pair; both quadratic forms must be real for the pair to make sense
    (:class:`~gfusion.errors.HypothesisError` otherwise).
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
        _require_aligned(self.lam, self.gam)
        for a, b in zip(self.lam.atoms, self.gam.atoms):
            if a.codomain_dim != b.codomain_dim:
                raise PairingError(f"atoms {a.id!r} and {b.id!r} map into codomains of different dimension")
        _require_real(self.lam_bounds, "first family")
        _require_real(self.gam_bounds, "second family")

    @property
    def dim(self) -> int:
        return int(self.lam.dim)


def _cross_sum(first: ControlledFamily, second: ControlledFamily, m: MultiplierSymbol | None = None) -> np.ndarray:
    """Uncontrolled pair sum ``sum_i weight_i m_i v_i w_i P_Gi Gam_i* Lam_i P_Fi``, ``m_i = 1`` without a symbol.

    ``Lam, v`` come from ``first`` and ``Gam, w`` from ``second``; the
    measure weights are those of ``first``.
    """
    values = (1.0,) * len(first.atoms) if m is None else m.values
    terms = (
        (a.weight * mi * a.frame_weight * b.frame_weight, atom_factor(b), atom_factor(a))
        for mi, a, b in zip(values, first.atoms, second.atoms)
    )
    return atom_sum(first.dim, terms)


def _pair_operator(first: ControlledFamily, second: ControlledFamily, m: MultiplierSymbol | None = None) -> np.ndarray:
    """The pair operator of ``BesselPair(first, second)`` (atoms weighed by ``m``, if given), without building the pair.

    Swapping the arguments assembles the swapped operator independently of
    the unswapped one, so comparing it with the adjoint is a real check.
    """
    return second.control_left @ _cross_sum(first, second, m) @ first.control_left


def pair_frame_operator(pair: BesselPair) -> np.ndarray:
    """``sum_i weight_i v_i w_i U P_Gi Gam_i* Lam_i P_Fi T``.

    The operator norm never exceeds the geometric mean of the two Bessel
    bounds, and its adjoint is the pair operator with the roles swapped.
    """
    return _pair_operator(pair.lam, pair.gam)


def _bessel_mean(pair: BesselPair) -> float:
    """``sqrt(B_lam B_gam)``: it bounds the pair operator's norm, and times ``sup|m|`` the multiplier's."""
    return float(np.sqrt(pair.lam_bounds.B_opt * pair.gam_bounds.B_opt))


@dataclass(frozen=True)
class PairOperatorReport:
    """The pair operator's norm against ``sqrt(B_lam B_gam)`` and its adjoint against the swapped pair operator."""

    operator_norm: float
    norm_bound: float
    norm_bound_ok: bool
    adjoint_swap_residual: float
    adjoint_swap_ok: bool

    @property
    def verdict(self) -> str:
        return "pass" if (self.norm_bound_ok and self.adjoint_swap_ok) else "fail"


def pair_operator_check(pair: BesselPair) -> PairOperatorReport:
    """Certify the two properties of the pair operator stated at :func:`pair_frame_operator`.

    The norm may exceed ``sqrt(B_lam B_gam)`` by ``TOL_SLACK``; the swapped
    operator, assembled on its own, may differ from the adjoint by ``TOL_SWAP``
    relative to ``max(1, norm)``.
    """
    s = pair_frame_operator(pair)
    norm = operator_norm(s)
    bound = _bessel_mean(pair)
    swap_residual = operator_norm(adjoint(s) - _pair_operator(pair.gam, pair.lam))
    return PairOperatorReport(
        operator_norm=float(norm),
        norm_bound=bound,
        norm_bound_ok=bool(norm <= bound + TOL_SLACK),
        adjoint_swap_residual=float(swap_residual),
        adjoint_swap_ok=bool(swap_residual <= TOL_SWAP * max(1.0, norm)),
    )


@dataclass(frozen=True)
class PairBoundedBelowReport:
    """Invertibility of the pair operator and the induced resolution."""

    bounded_below: bool
    sigma_min: float
    resolution_residual: float | None
    resolution_ok: bool
    certified_lower: float | None
    certified_lower_ok: bool

    @property
    def verdict(self) -> str:
        return "pass" if (self.bounded_below and self.resolution_ok and self.certified_lower_ok) else "fail"


def pair_bounded_below(
    pair: BesselPair,
    tol_frame: float = TOL_FRAME,
    tol_res: float = TOL_RES,
) -> PairBoundedBelowReport:
    """Decide whether the pair operator is bounded below.

    When it is, its inverse turns the weighted atom terms into a resolution
    of the identity, and the squared smallest singular value over the second
    family's Bessel bound certifies a lower frame bound for the first
    family; both claims are checked numerically.
    """
    _require_tolerances(tol_frame=tol_frame, tol_res=tol_res)
    s = pair_frame_operator(pair)
    sv = _singular_values(s)  # one SVD gives sigma_min and the singularity test of the inverse
    smin = float(sv[-1])
    if smin <= tol_frame or _singular(sv):
        return PairBoundedBelowReport(False, smin, None, False, None, False)
    k = _inverse(s, sv)
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

    @property
    def verdict(self) -> str:
        if not self.hypothesis_met:
            return "hypothesis-not-met"
        return "pass" if (self.positive and self.factorization_ok) else "fail"


def pair_sum_positivity(pair: BesselPair, tol_herm: float = TOL_HERM) -> PairSumReport:
    """Check that the pair operator plus its swap is positive.

    Hypotheses (reported, not raised): the two controls and the uncontrolled
    symmetrized pair operator commute with each other, and the latter is
    positive.  Under them, the controlled sum factors as
    ``U (uncontrolled sum) T`` and is positive; both are verified.
    """
    _require_tolerances(tol_herm=tol_herm)
    t = pair.lam.control_left
    u = pair.gam.control_left
    s_lam_gam = _cross_sum(pair.lam, pair.gam)
    s_sum = s_lam_gam + adjoint(s_lam_gam)
    failures = (
        _commutation_failure(t, u, "the two controls"),
        _commutation_failure(t, s_sum, "the first control and the uncontrolled pair sum"),
        _commutation_failure(u, s_sum, "the second control and the uncontrolled pair sum"),
    )
    notes = [f for f in failures if f is not None]
    if not is_positive(s_sum, tol_herm):
        notes.append("uncontrolled pair sum is not positive")
    if notes:
        return PairSumReport(False, tuple(notes), None, False, False)
    controlled_sum = u @ s_lam_gam @ t + _pair_operator(pair.gam, pair.lam)
    factored = u @ s_sum @ t
    residual = _relative_defect(controlled_sum - factored, factored)
    return PairSumReport(
        hypothesis_met=True,
        hypothesis_notes=(),
        factorization_residual=float(residual),
        factorization_ok=bool(residual <= TOL_FACT),
        positive=bool(is_positive(controlled_sum, tol_herm)),
    )


def multiplier(m: MultiplierSymbol, pair: BesselPair) -> np.ndarray:
    """``sum_i weight_i m_i v_i w_i T P_Fi Lam_i* Gam_i P_Gi U``: the swapped pair operator, each atom weighed by ``m``.

    Linear in the symbol; the zero symbol gives the zero operator exactly,
    and the norm is bounded by the symbol's sup norm times the geometric
    mean of the Bessel bounds.
    """
    if len(m.values) != len(pair.lam.atoms):
        raise PairingError(f"symbol has {len(m.values)} values for {len(pair.lam.atoms)} atoms")
    return _pair_operator(pair.gam, pair.lam, m)


@dataclass(frozen=True)
class MultiplierReport:
    """The multiplier's norm bound, and frame certification extracted from an invertibility estimate.

    The verdict reads the certification alone; ``norm_bound_ok`` is reported beside it.
    """

    operator_norm: float
    norm_bound: float
    norm_bound_ok: bool
    lambda_star: float
    applicable: bool
    certified_lower_gam: float | None
    certified_lower_gam_ok: bool
    certified_lower_lam: float | None
    certified_lower_lam_ok: bool
    lam_is_frame: bool
    gam_is_frame: bool

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "inapplicable"
        frames = self.lam_is_frame and self.gam_is_frame
        return "pass" if (self.certified_lower_gam_ok and self.certified_lower_lam_ok and frames) else "fail"


def multiplier_frame_criterion(m: MultiplierSymbol, pair: BesselPair) -> MultiplierReport:
    """Certify both families as frames from the multiplier's deviation from identity.

    ``lambda_star`` is the computed norm of ``I - M``; the criterion applies
    when it is below one.  The certified lower bound for the second family is
    ``(1 - lambda_star)^2 / (B * sup|m|^2)`` with ``B`` the first family's
    Bessel bound; the bound for the first family swaps the roles.  The same ``M`` gives ``operator_norm``,
    checked against ``sup|m| sqrt(B_lam B_gam)`` plus ``TOL_SLACK``.
    """
    mat = multiplier(m, pair)
    norm = operator_norm(mat)
    norm_bound = m.sup_norm * _bessel_mean(pair)
    lambda_star = operator_norm(np.eye(pair.dim) - mat)
    applicable = not (lambda_star >= 1.0 or m.sup_norm == 0.0)

    def certify(other: FrameReport, own: FrameReport) -> tuple[float | None, bool]:
        """The lower bound certified for ``own``'s family from ``other``'s Bessel bound, and its check."""
        if not applicable:
            return None, False
        cert = (1.0 - lambda_star) ** 2 / (other.B_opt * m.sup_norm**2)
        return float(cert), bool(cert <= own.A_opt + TOL_SLACK)

    cert_gam, cert_gam_ok = certify(pair.lam_bounds, pair.gam_bounds)
    cert_lam, cert_lam_ok = certify(pair.gam_bounds, pair.lam_bounds)
    return MultiplierReport(
        operator_norm=float(norm),
        norm_bound=float(norm_bound),
        norm_bound_ok=bool(norm <= norm_bound + TOL_SLACK),
        lambda_star=float(lambda_star),
        applicable=applicable,
        certified_lower_gam=cert_gam,
        certified_lower_gam_ok=cert_gam_ok,
        certified_lower_lam=cert_lam,
        certified_lower_lam_ok=cert_lam_ok,
        lam_is_frame=pair.lam_bounds.is_frame,
        gam_is_frame=pair.gam_bounds.is_frame,
    )
