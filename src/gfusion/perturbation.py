"""Stability of the frame property under atomwise perturbation.

Given a frame and a perturbed family sharing its atoms' weights and control
pair, the perturbation hypothesis bounds, atom by atom, the controlled form
of the difference between the two atom cores: from below by zero and from
above by a mix of both forms plus an absolute term.  The hypothesis is
quantified over all vectors, which at desk scale is decided exactly as a
pair of semidefinite orderings per atom; random sampling of the lower
ordering is kept as a secondary diagnostic.  The one-constant check is the
two-fraction check with both fractions zero, so both share one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import controlled_atom_term, optimal_bounds
from .errors import NotAFrameError, PairingError
from .family import ControlledFamily, _require_same_operator, _require_same_weights, total_v2
from .linalg import hermitian_part, random_unit_vectors
from .tolerances import DEFAULT_SEED, TOL_PD

__all__ = [
    "PerturbationParams",
    "PerturbationReport",
    "perturb_check",
    "perturb_check_simple",
]


@dataclass(frozen=True)
class PerturbationParams:
    """Relative fractions ``lambda1, lambda2`` in [0, 1) and absolute term ``eps``.

    ``total_v2`` is the integral of the squared frame weight; leave it None
    to have it computed from the reference family.
    """

    lambda1: float
    lambda2: float
    eps: float
    total_v2: float | None = None

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
        if self.total_v2 is not None and float(self.total_v2) <= 0:
            raise ValueError("total_v2 must be positive")


@dataclass(frozen=True)
class PerturbationReport:
    """Outcome of a perturbation check."""

    hypothesis_met: bool
    failing_atom: str | None
    applicable: bool
    certified_lower: float | None
    certified_upper: float | None
    computed_lower: float | None
    computed_upper: float | None
    inside: bool
    sampled_min_margin: float | None
    samples: int
    seed: int
    total_v2: float


def _align(lam: ControlledFamily, gam: ControlledFamily) -> None:
    if lam.dim != gam.dim:
        raise PairingError("families live in different dimensions")
    if len(lam.atoms) != len(gam.atoms):
        raise PairingError("families have different atom counts")
    _require_same_weights(lam, gam)
    _require_same_weights(lam, gam, "frame_weight")
    for a, b in zip(lam.controls, gam.controls):
        _require_same_operator(a, b, "families must share the control pair")


def _atom_deltas(lam: ControlledFamily, gam: ControlledFamily):
    """Per atom: Hermitian parts of the controlled reference, perturbed, and difference terms."""
    for a, b in zip(lam.atoms, gam.atoms):  # both families carry the control pair of lam
        ref = hermitian_part(controlled_atom_term(lam, a))
        per = hermitian_part(controlled_atom_term(lam, b))
        yield a.id, ref, per, per - ref


def perturb_check(
    lam: ControlledFamily,
    gam: ControlledFamily,
    params: PerturbationParams,
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
    tol: float = TOL_PD,
    slack: float = 1e-9,
) -> PerturbationReport:
    """Two-fraction perturbation check.

    Per atom the difference of the controlled Hermitian parts must be
    positive semidefinite and dominated by ``lambda1 * (reference form) +
    lambda2 * (perturbed form) + eps * I``.  When the hypothesis holds and
    ``A (1 - lambda1) - eps * total_v2`` is positive, the perturbed family
    is certified as a frame on an explicit interval, which the computed
    bounds must fall inside.  ``sampled_min_margin`` is the smallest sampled
    value of the difference form plus ``tol``, over all atoms.
    """
    bounds = optimal_bounds(lam)
    if not bounds.is_frame:
        raise NotAFrameError(f"the reference family must be a frame, verdict {bounds.verdict!r}")
    _align(lam, gam)
    tv2 = params.total_v2 if params.total_v2 is not None else total_v2(lam)

    hypothesis_met = True
    failing_atom = None
    deltas = []
    for atom_id, ref, per, delta in _atom_deltas(lam, gam):
        deltas.append(delta)
        w = np.linalg.eigvalsh(delta)
        if w[0] < -tol:
            hypothesis_met, failing_atom = False, atom_id
            break
        if params.lambda1 == params.lambda2 == 0.0:  # dominator eps * I: lambda_min(eps I - delta) = eps - w[-1]
            upper_margin = params.eps - w[-1]
        else:
            dominator = params.lambda1 * ref + params.lambda2 * per + params.eps * np.eye(lam.dim)
            upper_margin = np.linalg.eigvalsh(dominator - delta)[0]
        if upper_margin < -tol:
            hypothesis_met, failing_atom = False, atom_id
            break

    sampled_margin = None
    if hypothesis_met and samples > 0:
        f = random_unit_vectors(lam.dim, samples, seed)
        margin = math.inf
        for delta in deltas:
            h = np.sum(np.conj(f) * (delta @ f), axis=0).real
            margin = min(margin, float(h.min()) + tol)
        sampled_margin = margin

    applicable = bool(bounds.A_opt * (1.0 - params.lambda1) - params.eps * tv2 > 0)
    certified = computed = (None, None)
    inside = False
    if hypothesis_met and applicable:
        cert_lower = ((1.0 - params.lambda1) * bounds.A_opt - params.eps * tv2) / (1.0 + params.lambda2)
        cert_upper = ((1.0 + params.lambda1) * bounds.B_opt + params.eps * tv2) / (1.0 - params.lambda2)
        certified = (float(cert_lower), float(cert_upper))
        perturbed = optimal_bounds(gam)
        computed = (perturbed.A_opt, perturbed.B_opt)
        inside = bool(
            perturbed.is_frame
            and cert_lower <= perturbed.A_opt + slack
            and perturbed.B_opt <= cert_upper + slack
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
        sampled_min_margin=sampled_margin,
        samples=samples,
        seed=seed,
        total_v2=float(tv2),
    )


def perturb_check_simple(
    lam: ControlledFamily,
    gam: ControlledFamily,
    bound: float,
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
    tol: float = TOL_PD,
    slack: float = 1e-9,
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
    return perturb_check(lam, gam, PerturbationParams(0.0, 0.0, bound), samples, seed, tol, slack)
