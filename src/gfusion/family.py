"""Data model for discretized measure spaces and controlled families.

A family is a finite list of weighted measure atoms, each carrying a closed
subspace, a local operator into its own codomain, and a frame weight, plus a
pair of positive invertible control operators.  Integrals over the index
space become exact weighted sums over the atoms, so every identity checked
downstream is exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, HypothesisError, PairingError, ValidationError
from .linalg import Subspace, _defect_beyond, _hermitian_spectrum, _singular, as_operator
from .tolerances import TOL_HERM, TOL_SAME, _require_tolerances

__all__ = [
    "ControlledFamily",
    "FamilyDiagnostics",
    "FrameReport",
    "MeasureAtom",
    "MultiplierSymbol",
    "ball_partition_example",
    "replace_controls",
    "require_valid",
    "total_v2",
    "validate",
]


@dataclass(frozen=True)
class MeasureAtom:
    """One quadrature point of the index space.

    ``weight`` is the measure mass of the atom (positive), ``frame_weight``
    the family weight that enters formulas squared (nonnegative).  The local
    operator is stored as a full ``d x n`` matrix; restriction to the
    subspace is realized by composing with its projection in formulas, never
    by truncating the matrix.
    """

    id: str
    weight: float
    frame_weight: float
    subspace: Subspace
    local_op: np.ndarray

    def __post_init__(self):
        op = as_operator(self.local_op)
        w = float(self.weight)
        v = float(self.frame_weight)
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"atom {self.id!r}: weight must be positive, got {w}")
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"atom {self.id!r}: frame weight must be nonnegative, got {v}")
        if op.shape[1] != self.subspace.ambient_dim:
            raise DimensionError(
                f"atom {self.id!r}: local operator acts on dimension {op.shape[1]}, "
                f"subspace lives in dimension {self.subspace.ambient_dim}"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "frame_weight", v)
        object.__setattr__(self, "local_op", op)

    @property
    def codomain_dim(self) -> int:
        return int(self.local_op.shape[0])


@dataclass(frozen=True)
class ControlledFamily:
    """A weighted family of (subspace, local operator) atoms with a control pair.

    The controls enter every formula as ``adjoint(control_left) ... control_right``;
    both are expected to be positive and invertible (checked by :func:`validate`,
    not at construction, so that invalid inputs can still be diagnosed).
    """

    dim: int
    atoms: tuple[MeasureAtom, ...]
    control_left: np.ndarray
    control_right: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("a family needs at least one atom")
        for atom in atoms:
            if atom.subspace.ambient_dim != self.dim:
                raise DimensionError(
                    f"atom {atom.id!r} lives in dimension {atom.subspace.ambient_dim}, family in {self.dim}"
                )
        object.__setattr__(self, "atoms", atoms)
        for name in ("control_left", "control_right"):
            c = as_operator(getattr(self, name))
            if c.shape != (self.dim, self.dim):
                raise DimensionError(f"{name} has shape {c.shape}, expected ({self.dim}, {self.dim})")
            object.__setattr__(self, name, c)

    @property
    def controls(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.control_left, self.control_right)


def _distinct_controls(family: ControlledFamily) -> tuple[np.ndarray, ...]:
    """``(T, U)``, or ``(T,)`` when ``U`` repeats ``T`` entrywise, so that a repeated control is tested once."""
    return family.controls[:1] if np.array_equal(*family.controls) else family.controls


def replace_controls(family: ControlledFamily, left, right) -> ControlledFamily:
    """Same atoms, different control pair."""
    return replace(family, control_left=as_operator(left), control_right=as_operator(right))


@dataclass(frozen=True)
class MultiplierSymbol:
    """A bounded symbol: one scalar per atom, with its sup norm."""

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        if not vals:
            raise ValueError("symbol needs at least one value")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
            raise ValueError("symbol values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values)

    @classmethod
    def constant(cls, value, count: int) -> "MultiplierSymbol":
        return cls((complex(value),) * count)


@dataclass(frozen=True)
class FrameReport:
    """Verdict and optimal bounds for one family.

    ``verdict`` is one of ``"frame"``, ``"bessel-only"``,
    ``"not-bessel-diagnostic"`` (the quadratic form is not real, so the
    two-sided inequality cannot hold as stated).
    """

    verdict: str
    A_opt: float
    B_opt: float
    herm_defect: float
    notes: tuple[str, ...] = ()

    @property
    def is_frame(self) -> bool:
        return self.verdict == "frame"


@dataclass(frozen=True)
class FamilyDiagnostics:
    """Outcome of structural validation."""

    ok: bool
    failures: tuple[str, ...]


def validate(family: ControlledFamily, tol_herm: float = TOL_HERM) -> FamilyDiagnostics:
    """Check the structural hypotheses on a controlled family.

    Controls must be positive with a bounded inverse, both read from one eigenvalue solve per control (one
    for a repeated control, whose failures are listed for both sides): within ``tol_herm`` of Hermitian, its
    absolute eigenvalues are its singular values; otherwise it is not positive, and not tested further.
    Subspace bases need no check here: :class:`Subspace` rejects a non-orthonormal
    basis when it is built and keeps a read-only copy.
    """
    _require_tolerances(tol_herm=tol_herm)
    failures: list[str] = []
    spectra = [_hermitian_spectrum(c, tol_herm) for c in _distinct_controls(family)]
    for name, w in (("left control", spectra[0]), ("right control", spectra[-1])):
        if w is None or not w[0] >= -tol_herm:
            failures.append(f"{name} is not positive within tolerance")
        if w is not None and _singular(np.abs(w)):
            failures.append(f"{name} is not invertible")
    return FamilyDiagnostics(not failures, tuple(failures))


def require_valid(family: ControlledFamily, tol_herm: float = TOL_HERM) -> None:
    """Raise :class:`ValidationError` listing every failed invariant."""
    diag = validate(family, tol_herm)
    if not diag.ok:
        raise ValidationError(diag.failures)


def _require_aligned(first: ControlledFamily, second: ControlledFamily) -> None:
    """Raise :class:`PairingError` unless the families align atom by atom over one measure.

    That is one dimension, one atom count, and the same measure weights at every aligned atom pair.
    """
    if first.dim != second.dim:
        raise PairingError("families live in different dimensions")
    if len(first.atoms) != len(second.atoms):
        raise PairingError("families have different atom counts")
    _require_same_weights(first, second)


def _require_real(report: FrameReport, name: str) -> None:
    """Raise :class:`HypothesisError` if ``report`` found the quadratic form of the family ``name`` not real."""
    if report.verdict == "not-bessel-diagnostic":
        raise HypothesisError(
            f"{name} has a non-real quadratic form (Hermiticity defect {report.herm_defect:.3e})"
        )


def _require_same_weights(first, second, attr: str = "weight") -> None:
    """Raise :class:`PairingError` at the first aligned atom pair whose ``attr`` differ.

    ``attr`` is ``"weight"`` (measure weights) or ``"frame_weight"``; two
    values count as the same within ``TOL_SAME`` relative to the first.
    """
    kind = "measure" if attr == "weight" else "frame"
    for a, b in zip(first.atoms, second.atoms):
        x = getattr(a, attr)
        if abs(x - getattr(b, attr)) > TOL_SAME * max(1.0, x):
            raise PairingError(f"atoms {a.id!r} and {b.id!r} carry different {kind} weights")


def _require_same_operator(a: np.ndarray, b: np.ndarray, message: str) -> None:
    """Raise :class:`PairingError` unless the relative defect of ``a - b`` against ``a`` is within ``TOL_SAME``."""
    defect = _defect_beyond(a - b, TOL_SAME, a)
    if defect is not None:
        raise PairingError(f"{message} (defect {defect:.3e} > {TOL_SAME:.3e})")


def total_v2(family) -> float:
    """Integral of the squared frame weight: sum of weight * frame_weight**2."""
    return float(sum(a.weight * a.frame_weight**2 for a in family.atoms))


def ball_partition_example(
    mu1: float, mu2: float, mu3: float, reading: str = "consistent"
) -> ControlledFamily:
    """The builtin three-atom family on R^3.

    The index space is the unit ball split into three cells of masses
    ``mu1 >= mu2 >= mu3 > 1``.  Atom ``k`` carries frame weight
    ``(1, 2, 1)[k]`` and the rank-one local operator
    ``f -> (1/sqrt(mu_k)) <f, e_k> e_k``; the controls are
    ``diag(2, 3, 5)`` and ``diag(1/2, 1/3, 1/4)``.

    ``reading`` selects the subspace assignment.  ``"consistent"`` puts atom
    ``k`` on ``span{e_k}``, so the local operator acts on its own subspace
    and the quadratic form comes out as ``f1^2 + 4 f2^2 + (5/4) f3^2``,
    independent of the cell masses.  ``"literal"`` instead assigns the
    complementary coordinate plane, which each local operator annihilates:
    the form is identically zero.  Both are kept for inspection.
    """
    if not (mu1 >= mu2 >= mu3 > 1):
        raise ValueError(f"cell masses must satisfy mu1 >= mu2 >= mu3 > 1, got ({mu1}, {mu2}, {mu3})")
    if reading not in ("consistent", "literal"):
        raise ValueError(f"reading must be 'consistent' or 'literal', got {reading!r}")
    masses = (float(mu1), float(mu2), float(mu3))
    frame_weights = (1.0, 2.0, 1.0)  # the sign of a weight never enters: only its square does
    atoms = []
    for k in range(3):
        selector = np.zeros((3, 3))
        selector[k, k] = 1.0 / math.sqrt(masses[k])
        if reading == "consistent":
            sub = Subspace.coordinate(3, [k])
        else:
            sub = Subspace.coordinate(3, [j for j in range(3) if j != k])
        atoms.append(
            MeasureAtom(
                id=f"B{k + 1}",
                weight=masses[k],
                frame_weight=frame_weights[k],
                subspace=sub,
                local_op=selector,
            )
        )
    return ControlledFamily(
        dim=3,
        atoms=tuple(atoms),
        control_left=np.diag([2.0, 3.0, 5.0]),
        control_right=np.diag([0.5, 1.0 / 3.0, 0.25]),
    )
