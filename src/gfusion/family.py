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

from .errors import DimensionError, PairingError, ValidationError
from .linalg import Subspace, as_operator, is_positive, operator_norm
from .tolerances import TOL_HERM, TOL_SAME, TOL_SING_REL

__all__ = [
    "ControlledFamily",
    "FamilyDiagnostics",
    "FrameReport",
    "MeasureAtom",
    "MultiplierSymbol",
    "PlainFamily",
    "ball_partition_example",
    "integrate",
    "replace_controls",
    "require_valid",
    "strip_controls",
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


def _check_atoms(dim: int, atoms) -> tuple[MeasureAtom, ...]:
    atoms = tuple(atoms)
    if not atoms:
        raise ValueError("a family needs at least one atom")
    for atom in atoms:
        if atom.subspace.ambient_dim != dim:
            raise DimensionError(
                f"atom {atom.id!r} lives in dimension {atom.subspace.ambient_dim}, family in {dim}"
            )
    return atoms


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
        object.__setattr__(self, "atoms", _check_atoms(self.dim, self.atoms))
        for name in ("control_left", "control_right"):
            c = as_operator(getattr(self, name))
            if c.shape != (self.dim, self.dim):
                raise DimensionError(f"{name} has shape {c.shape}, expected ({self.dim}, {self.dim})")
            object.__setattr__(self, name, c)

    @property
    def controls(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.control_left, self.control_right)


@dataclass(frozen=True)
class PlainFamily:
    """A family with both controls equal to the identity."""

    dim: int
    atoms: tuple[MeasureAtom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", _check_atoms(self.dim, self.atoms))


def strip_controls(family: ControlledFamily) -> PlainFamily:
    """Forget the control pair."""
    return PlainFamily(family.dim, family.atoms)


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

    @property
    def is_real(self) -> bool:
        return all(v.imag == 0.0 for v in self.values)

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
    """Outcome of structural validation, with the control commutation defect."""

    ok: bool
    failures: tuple[str, ...]
    commutation_defect: float


def validate(family: ControlledFamily, tol_herm: float = TOL_HERM) -> FamilyDiagnostics:
    """Check the structural hypotheses on a controlled family.

    Controls must be positive with a bounded inverse.  Subspace bases need
    no check here: :class:`Subspace` rejects a non-orthonormal basis when it
    is built and keeps a read-only copy.  The commutation defect
    ``norm(LR - RL)`` of the control pair is reported for information: some
    results need it, the definition itself does not.
    """
    failures: list[str] = []
    for name, c in (("left control", family.control_left), ("right control", family.control_right)):
        if not is_positive(c, tol_herm):
            failures.append(f"{name} is not positive within tolerance")
        s = np.linalg.svd(c, compute_uv=False)
        if s[-1] <= TOL_SING_REL * max(s[0], 1.0):
            failures.append(f"{name} is not invertible")
    with np.errstate(over="ignore", invalid="ignore"):  # a product beyond the double range: defect inf
        commutator = family.control_left @ family.control_right - family.control_right @ family.control_left
    defect = operator_norm(commutator) if np.isfinite(commutator).all() else math.inf
    return FamilyDiagnostics(not failures, tuple(failures), defect)


def require_valid(family: ControlledFamily, tol_herm: float = TOL_HERM) -> None:
    """Raise :class:`ValidationError` listing every failed invariant."""
    diag = validate(family, tol_herm)
    if not diag.ok:
        raise ValidationError(diag.failures)


def integrate(family, per_atom) -> np.ndarray:
    """Weighted sum of per-atom matrices, in ascending atom order.

    This is the exact discretization of an integral against the atomic
    measure.  The reduction order is fixed, so results are reproducible to
    the bit.
    """
    terms = [np.asarray(t, dtype=np.complex128) for t in per_atom]
    if len(terms) != len(family.atoms):
        raise DimensionError(f"expected {len(family.atoms)} per-atom values, got {len(terms)}")
    shape = terms[0].shape
    for atom, term in zip(family.atoms, terms):
        if term.shape != shape:
            raise DimensionError(f"atom {atom.id!r}: value has shape {term.shape}, expected {shape}")
    return _weighted_sum([a.weight for a in family.atoms], terms)


def _weighted_sum(weights, terms) -> np.ndarray:
    """``sum_i w_i t_i`` over equally shaped arrays, added one term at a time in the order given."""
    total = np.zeros(np.shape(terms[0]), dtype=np.complex128)
    for w, t in zip(weights, terms):
        total += w * t
    return total


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
    """Raise :class:`PairingError` unless ``norm(a - b) <= TOL_SAME * max(1, norm(a))``."""
    defect = operator_norm(a - b)
    if defect > TOL_SAME * max(1.0, operator_norm(a)):
        raise PairingError(f"{message} (defect {defect:.3e})")


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
