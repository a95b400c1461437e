"""Dense complex linear algebra substrate.

Everything in the package reduces to operations on dense complex matrices:
adjoints, positivity tests, operator square roots, orthogonal projections,
and spectral bounds of Hermitian parts.  Spectra are computed by dense
Hermitian eigendecomposition; dimensions are capped at desk scale
(:data:`~gfusion.tolerances.MAX_DIM`), trading scalability for exactness.

All helpers treat their inputs as immutable and return freshly allocated,
write-protected arrays, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotPositiveError, SingularOperatorError
from .tolerances import (
    DEFAULT_SEED,
    DROP_TOL,
    MAX_DIM,
    TOL_ORTH,
    TOL_PD,
    TOL_SING_REL,
)

__all__ = [
    "SpectralSummary",
    "Subspace",
    "adjoint",
    "as_operator",
    "as_vector",
    "herm_defect",
    "hermitian_part",
    "inner",
    "inverse",
    "is_positive",
    "operator_norm",
    "operator_sqrt",
    "orthonormal_columns",
    "projection",
    "random_unit_vectors",
    "sigma_min",
    "spectral_summary",
    "transport_subspace",
]


def as_operator(a) -> np.ndarray:
    """Coerce ``a`` to an immutable complex matrix, checking finiteness."""
    m = np.array(a, dtype=np.complex128, copy=True, order="C")
    if m.ndim != 2 or min(m.shape) < 1:
        raise DimensionError(f"expected a matrix, got shape {m.shape}")
    if max(m.shape) > MAX_DIM:
        raise DimensionError(f"matrix of shape {m.shape} exceeds desk scale {MAX_DIM}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to an immutable complex vector, checking finiteness."""
    w = np.array(v, dtype=np.complex128, copy=True).reshape(-1)
    if w.size < 1:
        raise DimensionError("empty vector")
    if not np.isfinite(w).all():
        raise ValueError("vector entries must be finite")
    w.setflags(write=False)
    return w


def inner(f, g) -> complex:
    """Inner product, linear in the first slot and conjugate-linear in the second."""
    return complex(np.vdot(np.asarray(g), np.asarray(f)))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  ``adjoint(adjoint(a))`` equals ``a`` entrywise."""
    return np.conj(np.asarray(a)).T.copy()


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value (the operator 2-norm)."""
    return float(np.linalg.norm(np.asarray(a), 2))


def sigma_min(a: np.ndarray) -> float:
    """Smallest singular value."""
    return float(np.linalg.svd(np.asarray(a), compute_uv=False)[-1])


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2, halved first so that no finite ``a`` overflows."""
    h = _require_square(a) / 2.0
    return h + np.conj(h).T


def herm_defect(a: np.ndarray) -> float:
    """``norm(a - a*) / max(1, norm(a))``, a scale-aware asymmetry measure."""
    a = _require_square(a)
    return operator_norm(a - np.conj(a).T) / max(1.0, operator_norm(a))


def is_positive(a: np.ndarray, tol: float = TOL_PD) -> bool:
    """Whether ``a`` is positive within ``tol``.

    True iff the Hermiticity defect is at most ``tol`` and the smallest
    eigenvalue of the Hermitian part is at least ``-tol``.
    """
    a = _require_square(a)
    if herm_defect(a) > tol:
        return False
    w = np.linalg.eigvalsh(hermitian_part(a))
    return bool(w[0] >= -tol)


def operator_sqrt(a: np.ndarray, tol: float = TOL_PD) -> np.ndarray:
    """Positive square root of a positive operator.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below
    ``-tol`` (or a Hermiticity defect above ``tol``) raises
    :class:`NotPositiveError`.  Rounding routinely produces tiny negative
    eigenvalues on genuinely positive inputs, hence the clamp.
    """
    a = _require_square(a)
    defect = herm_defect(a)
    if defect > tol:
        raise NotPositiveError(f"operator is not Hermitian within tol ({defect:.3e} > {tol:.3e})")
    w, q = np.linalg.eigh(hermitian_part(a))
    if w[0] < -tol:
        raise NotPositiveError(f"operator has eigenvalue {w[0]:.3e} below -tol")
    w = np.clip(w, 0.0, None)
    root = (q * np.sqrt(w)) @ np.conj(q).T
    root.setflags(write=False)
    return root


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme eigenvalues of the Hermitian part, plus the asymmetry defect."""

    lambda_min: float
    lambda_max: float
    herm_defect: float


def spectral_summary(a: np.ndarray) -> SpectralSummary:
    """Spectral bounds of the Hermitian part of a square operator."""
    a = _require_square(a)
    w = np.linalg.eigvalsh(hermitian_part(a))
    return SpectralSummary(float(w[0]), float(w[-1]), herm_defect(a))


def inverse(a: np.ndarray, tol_sing: float = TOL_SING_REL) -> np.ndarray:
    """Matrix inverse, guarded by a relative singularity threshold."""
    a = _require_square(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= tol_sing * s[0]:
        raise SingularOperatorError(
            f"operator is numerically singular (sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})"
        )
    out = np.linalg.inv(a)
    out.setflags(write=False)
    return out


def orthonormal_columns(m: np.ndarray, drop_tol: float = DROP_TOL) -> np.ndarray:
    """Orthonormalize the columns of ``m``.

    Modified Gram-Schmidt with one reorthogonalization pass; columns whose
    residual norm falls below ``drop_tol`` are dropped (rank reveal).
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {m.shape}")
    basis: list[np.ndarray] = []
    for j in range(m.shape[1]):
        w = m[:, j].copy()
        for _ in range(2):  # one MGS pass plus one reorthogonalization
            for b in basis:
                w = w - b * np.vdot(b, w)
        nrm = float(np.linalg.norm(w))
        if nrm < drop_tol:
            continue
        basis.append(w / nrm)
    if not basis:
        raise DimensionError("no linearly independent columns survived orthonormalization")
    out = np.column_stack(basis)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Subspace:
    """A closed subspace, stored as an orthonormal basis of columns."""

    basis: np.ndarray

    def __post_init__(self):
        b = as_operator(self.basis)
        n, r = b.shape
        if r > n:
            raise DimensionError(f"basis has {r} columns in ambient dimension {n}")
        gram = np.conj(b).T @ b
        defect = operator_norm(gram - np.eye(r))
        if defect > TOL_ORTH:
            raise DimensionError(
                f"basis columns are not orthonormal (defect {defect:.3e}); "
                "use Subspace.from_vectors to orthonormalize"
            )
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    @classmethod
    def from_vectors(cls, vectors, drop_tol: float = DROP_TOL) -> "Subspace":
        """Build a subspace from spanning vectors (columns), orthonormalizing them."""
        cols = np.column_stack([np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors])
        return cls(orthonormal_columns(cols, drop_tol))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def coordinate(cls, n: int, indices) -> "Subspace":
        """Span of the given standard basis vectors."""
        idx = list(indices)
        basis = np.zeros((n, len(idx)), dtype=np.complex128)
        for col, i in enumerate(idx):
            basis[i, col] = 1.0
        return cls(basis)


def projection(s: Subspace) -> np.ndarray:
    """Orthogonal projection onto the subspace.

    The product ``basis @ basis*`` is symmetrized so the result is Hermitian
    exactly, not merely to rounding.
    """
    b = s.basis
    p = b @ np.conj(b).T
    p = (p + np.conj(p).T) / 2.0
    p.setflags(write=False)
    return p


def _nonsingular_operator(v, dim: int) -> np.ndarray:
    """``v`` as an immutable ``dim x dim`` operator, checked to be invertible.

    Raises :class:`SingularOperatorError` when ``v`` is numerically singular,
    since subspaces cannot be transported along it.  A family transform runs
    this check once, not once per atom.
    """
    v = _require_square(as_operator(v))
    if v.shape[0] != dim:
        raise DimensionError("operator and subspace live in different dimensions")
    sv = np.linalg.svd(v, compute_uv=False)
    if sv[-1] <= TOL_SING_REL * sv[0]:
        raise SingularOperatorError("cannot transport a subspace along a singular operator")
    return v


def transport_subspace(v: np.ndarray, s: Subspace, drop_tol: float = DROP_TOL) -> Subspace:
    """Image of a subspace under an invertible operator.

    Returns the orthonormalized span of ``v @ basis``.  The transported
    projection ``P'`` satisfies ``P v* = P v* P'``, and commutes through
    ``v`` when ``v`` is unitary.
    """
    v = _nonsingular_operator(v, s.ambient_dim)
    return Subspace(orthonormal_columns(v @ s.basis, drop_tol))


def random_unit_vectors(
    n: int, count: int, seed: int | np.random.Generator = DEFAULT_SEED, real: bool = False
) -> np.ndarray:
    """Columns drawn uniformly from the unit sphere (complex by default)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = rng.standard_normal((n, count))
    if not real:
        z = z + 1j * rng.standard_normal((n, count))
    z = np.asarray(z, dtype=np.complex128)
    return z / np.linalg.norm(z, axis=0, keepdims=True)
