"""Stability of the frame property under atomwise perturbation.

Given a frame and a perturbed family sharing its atoms' weights and control
pair, the perturbation hypothesis bounds, atom by atom, the controlled form
of the difference between the two atom cores: from below by zero and from
above by a mix of both forms plus an absolute term.  The hypothesis is
quantified over all vectors, which at desk scale is decided exactly as a
pair of semidefinite orderings per atom; random sampling is kept as a
secondary diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import controlled_atom_term, optimal_bounds
from .errors import NotAFrameError, PairingError
from .family import ControlledFamily, total_v2
from .linalg import hermitian_part, operator_norm, random_unit_vectors
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
            raise ValueError(f"eps must be nonnegative, got {eps}")
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
    for a, b in zip(lam.atoms, gam.atoms):
        if abs(a.weight - b.weight) > 1e-12 * max(1.0, a.weight):
            raise PairingError(f"atoms {a.id!r} and {b.id!r} carry different measure weights")
        if abs(a.frame_weight - b.frame_weight) > 1e-12 * max(1.0, a.frame_weight):
            raise PairingError(f"atoms {a.id!r} and {b.id!r} carry different frame weights")
    for name in ("control_left", "control_right"):
        d = operator_norm(getattr(lam, name) - getattr(gam, name))
        if d > 1e-12 * max(1.0, operator_norm(getattr(lam, name))):
            raise PairingError("families must share the control pair")


def _atom_deltas(lam: ControlledFamily, gam: ControlledFamily):
    """Per atom: Hermitian parts of the controlled reference, perturbed, and difference terms."""
    for a, b in zip(lam.atoms, gam.atoms):  # both families carry the control pair of lam
        ref = hermitian_part(controlled_atom_term(lam, a))
        per = hermitian_part(controlled_atom_term(lam, b))
        yield a.id, ref, per, per - ref


def _lambda_min(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


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
    bounds must fall inside.
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
        if _lambda_min(delta) < -tol:
            hypothesis_met, failing_atom = False, atom_id
            break
        dominator = params.lambda1 * ref + params.lambda2 * per + params.eps * np.eye(lam.dim)
        if _lambda_min(dominator - delta) < -tol:
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

    applicable = bounds.A_opt * (1.0 - params.lambda1) - params.eps * tv2 > 0
    if not (hypothesis_met and applicable):
        return PerturbationReport(
            hypothesis_met=hypothesis_met,
            failing_atom=failing_atom,
            applicable=bool(applicable),
            certified_lower=None,
            certified_upper=None,
            computed_lower=None,
            computed_upper=None,
            inside=False,
            sampled_min_margin=sampled_margin,
            samples=samples,
            seed=seed,
            total_v2=float(tv2),
        )
    cert_lower = ((1.0 - params.lambda1) * bounds.A_opt - params.eps * tv2) / (1.0 + params.lambda2)
    cert_upper = ((1.0 + params.lambda1) * bounds.B_opt + params.eps * tv2) / (1.0 - params.lambda2)
    perturbed = optimal_bounds(gam)
    inside = bool(
        perturbed.is_frame
        and cert_lower <= perturbed.A_opt + slack
        and perturbed.B_opt <= cert_upper + slack
    )
    return PerturbationReport(
        hypothesis_met=True,
        failing_atom=None,
        applicable=True,
        certified_lower=float(cert_lower),
        certified_upper=float(cert_upper),
        computed_lower=perturbed.A_opt,
        computed_upper=perturbed.B_opt,
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
    """One-constant perturbation check.

    Per atom the controlled difference must sit between zero and
    ``bound * I`` as quadratic forms.  Applicability requires
    ``bound * total_v2 < A``; the certified interval is then
    ``[A - bound * total_v2, B + bound * total_v2]``.
    """
    if bound <= 0:
        raise ValueError(f"the perturbation constant must be positive, got {bound}")
    bounds = optimal_bounds(lam)
    if not bounds.is_frame:
        raise NotAFrameError(f"the reference family must be a frame, verdict {bounds.verdict!r}")
    _align(lam, gam)
    tv2 = total_v2(lam)

    hypothesis_met = True
    failing_atom = None
    deltas = []
    for atom_id, _ref, _per, delta in _atom_deltas(lam, gam):
        deltas.append(delta)
        w = np.linalg.eigvalsh(delta)
        if w[0] < -tol or w[-1] > bound + tol:
            hypothesis_met, failing_atom = False, atom_id
            break

    sampled_margin = None
    if hypothesis_met and samples > 0:
        f = random_unit_vectors(lam.dim, samples, seed)
        margin = math.inf
        for delta in deltas:
            h = np.sum(np.conj(f) * (delta @ f), axis=0).real
            margin = min(margin, float(h.min()) + tol, float(bound + tol - h.max()))
        sampled_margin = margin

    applicable = bound * tv2 < bounds.A_opt
    if not (hypothesis_met and applicable):
        return PerturbationReport(
            hypothesis_met=hypothesis_met,
            failing_atom=failing_atom,
            applicable=bool(applicable),
            certified_lower=None,
            certified_upper=None,
            computed_lower=None,
            computed_upper=None,
            inside=False,
            sampled_min_margin=sampled_margin,
            samples=samples,
            seed=seed,
            total_v2=float(tv2),
        )
    cert_lower = bounds.A_opt - bound * tv2
    cert_upper = bounds.B_opt + bound * tv2
    perturbed = optimal_bounds(gam)
    inside = bool(
        perturbed.is_frame
        and cert_lower <= perturbed.A_opt + slack
        and perturbed.B_opt <= cert_upper + slack
    )
    return PerturbationReport(
        hypothesis_met=True,
        failing_atom=None,
        applicable=True,
        certified_lower=float(cert_lower),
        certified_upper=float(cert_upper),
        computed_lower=perturbed.A_opt,
        computed_upper=perturbed.B_opt,
        inside=inside,
        sampled_min_margin=sampled_margin,
        samples=samples,
        seed=seed,
        total_v2=float(tv2),
    )
