"""Stability of the frame property under atomwise perturbation.

Given a frame and a perturbed family sharing its atoms' weights and control
pair, the perturbation hypothesis bounds, atom by atom, the controlled form
of the difference between the two atom cores: from below by zero and from
above by a mix of both forms plus an absolute term.  The hypothesis is
quantified over all vectors, which at desk scale is decided exactly as a
pair of semidefinite orderings per atom.  The one-constant check is the
two-fraction check with both fractions zero, so both share one code path.

Each per-atom term is the Hermitian part of ``(Y L)* (Y R)``, with ``Y``
the atom's ``d x n`` factor and ``L, R`` the reference controls, so the
reference, perturbed and difference terms of an atom pair all have their
range in the span of the ``m = 2 (d_a + d_b)`` columns of ``(Y_a L)*``,
``(Y_a R)*``, ``(Y_b L)*`` and ``(Y_b R)*``.  When ``2 m <= n`` the terms are
formed on an orthonormal basis ``Q`` of ``m`` columns containing that span
(the Householder QR factor of the stack), as ``m x m`` blocks.  Each full
term has the spectrum of its block plus ``n - m >= 1`` zeros
(Courant-Fischer), and the dominator's ``eps * I`` adds ``eps`` to every
eigenvalue; a zero clears the ``-TOL_PD`` slack and ``eps >= 0``, so the
blocks' extreme eigenvalues decide both orderings exactly, on ``m x m``
eigenproblems.  Otherwise the terms are the ``n x n`` matrices themselves.
The report's ``min_margin`` comes from the same eigenvalues: the smallest
eigenvalue of any atom's ``n x n`` difference, which on a block is
``min(lambda_min, 0)``.
A term (``n x n`` or block) that is not finite raises
:class:`~gfusion.errors.ValidationError` naming the atom whose term it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import atom_factor, optimal_bounds
from .errors import NotAFrameError, PairingError, ValidationError
from .family import (
    ControlledFamily,
    _require_aligned,
    _require_same_operator,
    _require_same_weights,
    require_valid,
    total_v2,
)
from .linalg import _factor_range_basis, adjoint, hermitian_eigenvalues, hermitian_part
from .tolerances import TOL_FRAME, TOL_HERM, TOL_PD, TOL_SLACK

__all__ = [
    "PerturbationParams",
    "PerturbationReport",
    "perturb_check",
    "perturb_check_simple",
]


@dataclass(frozen=True)
class PerturbationParams:
    """Relative fractions ``lambda1, lambda2`` in [0, 1) and absolute term ``eps``."""

    lambda1: float
    lambda2: float
    eps: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            val = float(getattr(self, name))
            if not (0.0 <= val < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {val}")
            object.__setattr__(self, name, val)
        eps = float(self.eps)
        if not (math.isfinite(eps) and eps >= 0.0):
            raise ValueError(f"eps must be finite and nonnegative, got {eps}")
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of a perturbation check.

    ``verdict`` reads ``applicable`` before ``hypothesis_met``: when no
    certified interval can exist it is ``"inapplicable"``, whatever the atoms give.
    """

    hypothesis_met: bool
    failing_atom: str | None
    applicable: bool
    certified_lower: float | None
    certified_upper: float | None
    computed_lower: float | None
    computed_upper: float | None
    inside: bool
    min_margin: float | None
    total_v2: float

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "inapplicable"
        if not self.hypothesis_met:
            return "hypothesis-not-met"
        return "pass" if self.inside else "fail"


def _align(lam: ControlledFamily, gam: ControlledFamily) -> None:
    """:func:`~gfusion.family._require_aligned`, plus the same frame weights and the same control pair."""
    _require_aligned(lam, gam)
    _require_same_weights(lam, gam, "frame_weight")
    for a, b in zip(lam.controls, gam.controls):
        _require_same_operator(a, b, "families must share the control pair")


def _atom_terms(lam: ControlledFamily, gam: ControlledFamily):
    """Per atom: ``Q`` and the Hermitian reference, perturbed and difference terms on span ``Q``.

    ``Q`` is ``None`` when the terms are the ``n x n`` matrices themselves
    (``2 m > n``, or a factor is not finite); otherwise each full term also
    has ``n - m >= 1`` zero eigenvalues.  A term that is not finite
    raises :class:`ValidationError` naming its atom.
    """
    left, right = lam.control_left, lam.control_right  # both families carry the control pair of lam
    for a, b in zip(lam.atoms, gam.atoms):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term is rejected just below
            ya, yb = atom_factor(a), atom_factor(b)
            factors = (ya @ left, ya @ right, yb @ left, yb @ right)
            q = _factor_range_basis(factors)  # None keeps the n x n terms, also for a non-finite factor
            if q is not None:
                factors = tuple(x @ q for x in factors)
            xal, xar, xbl, xbr = factors
            ref = hermitian_part(adjoint(xal) @ xar)
            per = hermitian_part(adjoint(xbl) @ xbr)
            delta = per - ref
        if not np.isfinite(delta).all():  # also when ref or per is not finite
            atom = a if not np.isfinite(ref).all() else b
            raise ValidationError([f"atom {atom.id!r}: frame operator term is not finite"])
        yield a.id, q, ref, per, delta


def perturb_check(
    lam: ControlledFamily,
    gam: ControlledFamily,
    params: PerturbationParams,
    tol_frame: float = TOL_FRAME,
    tol_herm: float = TOL_HERM,
) -> PerturbationReport:
    """Two-fraction perturbation check.

    Per atom the difference of the controlled Hermitian parts must be
    positive semidefinite and dominated by ``lambda1 * (reference form) +
    lambda2 * (perturbed form) + eps * I``.  When the hypothesis holds and
    ``A (1 - lambda1) - eps * total_v2`` is positive, the perturbed family
    is certified as a frame on an explicit interval, which the computed
    bounds must fall inside.  ``min_margin`` is the smallest eigenvalue of
    the ``n x n`` differences over all atoms, plus ``TOL_PD``, when the
    hypothesis holds (``None`` otherwise).  Both bounds
    verdicts, and the validation they make, use ``tol_frame`` and ``tol_herm``.
    """
    bounds = optimal_bounds(lam, tol_frame, tol_herm)
    if not bounds.is_frame:
        raise NotAFrameError(f"the reference family must be a frame, verdict {bounds.verdict!r}")
    try:
        _align(lam, gam)
    except PairingError:
        require_valid(gam, tol_herm)  # an invalid control pair is named as such, not as a mismatch
        raise
    tv2 = total_v2(lam)

    hypothesis_met = True
    failing_atom = None
    margin = math.inf
    for atom_id, q, ref, per, delta in _atom_terms(lam, gam):
        # On span Q the n - m zero eigenvalues outside it are left out: 0 clears
        # -TOL_PD, and eps >= 0, so the block's extreme eigenvalues decide each test.
        w = hermitian_eigenvalues(delta)
        if w[0] < -TOL_PD:
            hypothesis_met, failing_atom = False, atom_id
            break
        upper_margin = params.eps + hermitian_eigenvalues(params.lambda1 * ref + params.lambda2 * per - delta)[0]
        if upper_margin < -TOL_PD:  # eps * I shifts every eigenvalue of the dominator
            hypothesis_met, failing_atom = False, atom_id
            break
        lowest = float(w[0])
        margin = min(margin, lowest if q is None else min(lowest, 0.0))  # a block leaves out the zeros

    applicable = bool(bounds.A_opt * (1.0 - params.lambda1) - params.eps * tv2 > 0)
    certified = computed = (None, None)
    inside = False
    if hypothesis_met and applicable:
        cert_lower = ((1.0 - params.lambda1) * bounds.A_opt - params.eps * tv2) / (1.0 + params.lambda2)
        cert_upper = ((1.0 + params.lambda1) * bounds.B_opt + params.eps * tv2) / (1.0 - params.lambda2)
        certified = (float(cert_lower), float(cert_upper))
        perturbed = optimal_bounds(gam, tol_frame, tol_herm)
        computed = (perturbed.A_opt, perturbed.B_opt)
        inside = bool(
            perturbed.is_frame
            and cert_lower <= perturbed.A_opt + TOL_SLACK
            and perturbed.B_opt <= cert_upper + TOL_SLACK
        )
    return PerturbationReport(
        hypothesis_met=hypothesis_met,
        failing_atom=failing_atom,
        applicable=applicable,
        certified_lower=certified[0],
        certified_upper=certified[1],
        computed_lower=computed[0],
        computed_upper=computed[1],
        inside=inside,
        min_margin=margin + TOL_PD if hypothesis_met else None,
        total_v2=float(tv2),
    )


def perturb_check_simple(
    lam: ControlledFamily,
    gam: ControlledFamily,
    bound: float,
) -> PerturbationReport:
    """One-constant perturbation check: :func:`perturb_check` with parameters ``(0, 0, bound)``.

    Per atom the controlled difference must sit between zero and
    ``bound * I`` as quadratic forms.  Applicability requires
    ``bound * total_v2 < A``; the certified interval is then
    ``[A - bound * total_v2, B + bound * total_v2]``.  ``bound`` must be
    positive and finite.
    """
    if not bound > 0:
        raise ValueError(f"the perturbation constant must be positive, got {bound}")
    return perturb_check(lam, gam, PerturbationParams(0.0, 0.0, bound))
