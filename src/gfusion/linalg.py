"""Dense complex linear algebra substrate.

Everything in the package reduces to operations on dense complex matrices:
adjoints, positivity tests, operator square roots, orthonormal bases,
and spectral bounds of Hermitian parts.  Spectra are computed by dense
Hermitian eigendecomposition; dimensions are capped at desk scale
(:data:`~gfusion.tolerances.MAX_DIM`), trading scalability for exactness.

This is the one module that calls LAPACK (``numpy.linalg``), and each call
goes through :func:`_lapack`, which runs it with the BLAS pinned to one
thread (:func:`_pinned`), so every decomposition has the same bits at every
BLAS thread count.  Matrix products keep their threads, with one exception:
the chunk products of :func:`gfusion.analysis.atom_sum`, whose long inner
dimension a multithreaded BLAS may split, run under the same pin.

All helpers treat their inputs as immutable and return freshly allocated,
write-protected arrays, so values can be shared freely between threads.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotPositiveError, SingularOperatorError
from .tolerances import MAX_DIM, TOL_ORTH, TOL_PD, TOL_SING_REL, _require_tolerances

__all__ = [
    "SpectralSummary",
    "Subspace",
    "adjoint",
    "as_operator",
    "as_vector",
    "herm_defect",
    "hermitian_eigenvalues",
    "hermitian_part",
    "inverse",
    "is_positive",
    "operator_norm",
    "operator_sqrt",
    "orthonormal_columns",
    "spectral_summary",
]


def _blas_thread_calls():
    """The ``(get, set)`` thread-count functions of the OpenBLAS numpy loaded, or ``None``.

    numpy's wheels bundle ``scipy_openblas64_``; its symbols are found through
    numpy's own LAPACK extension module, which links it.  With any other BLAS
    the pin does nothing, and same bits across thread counts then need
    ``OPENBLAS_NUM_THREADS=1`` (or that BLAS's equivalent).
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_BLAS_THREADS = _blas_thread_calls()
_BLAS_LOCK = threading.Lock()


def _pinned(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, run with the BLAS on one thread: the one home of the pin.

    How a multithreaded BLAS or LAPACK call splits its work changes its
    rounding, so a BLAS on more than one thread is set to one for the call and
    restored after it; the lock makes save, set and restore atomic for
    concurrent Python threads, and no state outlives the call.
    """
    if _BLAS_THREADS is None:
        return fn(*args, **kwargs)
    get, set_ = _BLAS_THREADS
    with _BLAS_LOCK:
        threads = get()
        if threads > 1:
            set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            if threads > 1:
                set_(threads)


def _lapack(name: str, *args, **kwargs):
    """``np.linalg.<name>(*args, **kwargs)`` under :func:`_pinned`.

    The function is looked up at call time, so wrappers patched onto
    ``np.linalg`` see every call.
    """
    return _pinned(getattr(np.linalg, name), *args, **kwargs)


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


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  ``adjoint(adjoint(a))`` equals ``a`` entrywise."""
    return np.conj(np.asarray(a)).T.copy()


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value (the operator 2-norm)."""
    return float(_lapack("norm", np.asarray(a), 2))


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Descending singular values: the one SVD behind :func:`inverse` and every singularity test."""
    return _lapack("svd", np.asarray(a), compute_uv=False)


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2, halved first so that no finite ``a`` overflows."""
    h = _require_square(a) / 2.0
    return h + np.conj(h).T


def _relative_defect(x: np.ndarray, *scale: np.ndarray) -> float:
    """``norm(x) / max(1, product of norm(s) over scale)`` (0.0, with no SVD, if ``x`` is exactly zero).

    The one normalization of every relative defect: Hermiticity, commutation, factorization, two
    operators that must be the same, and the orthonormality of a stored basis (no scale: the norm itself).
    Its SVD value is what a report prints (:func:`herm_defect`, the pair-sum factorization residual);
    a test that only compares it with a tolerance goes through :func:`_defect_beyond`.
    """
    if not x.any():
        return 0.0
    return operator_norm(x) / max(1.0, math.prod(operator_norm(s) for s in scale))


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm of ``x``, scaled by its largest entry so no square overflows or underflows to zero (Blue 1978).

    NaN if ``x`` holds a NaN or an infinity.
    """
    v = np.abs(np.asarray(x, dtype=np.complex128).reshape(-1).view(np.float64))  # real and imaginary parts
    top = float(v.max())
    if not 0.0 < top < math.inf:
        return top if top == 0.0 else math.nan
    with np.errstate(under="ignore"):
        v /= top
        return top * math.sqrt(float(np.square(v, out=v).sum()))


def _defect_beyond(x: np.ndarray, tol: float, *scale: np.ndarray) -> float | None:
    """``None`` exactly when ``_relative_defect(x, *scale) <= tol``; otherwise that defect (a NaN one counts as beyond).

    The one comparison of a relative defect with a tolerance.  It takes no SVD
    when it can settle without one: an exactly zero ``x`` has defect 0.0, and
    since ``norm(x) <= fro(x)`` and ``norm(s) >= fro(s) / sqrt(min(s.shape))``
    (Golub & Van Loan, section 2.3), ``fro(x) <= tol * max(1, product of
    fro(s) / sqrt(min(s.shape))) / 2`` implies the SVD defect is within
    ``tol``; the halving absorbs the rounding of both sides.  Anything else
    takes the exact :func:`_relative_defect`, so the bound only passes what
    the SVD would pass, and a failure still reports the SVD value.
    """
    if not x.any():
        return None if 0.0 <= tol else 0.0
    bound = math.prod(_frobenius(s) / math.sqrt(min(s.shape)) for s in scale)
    if math.isfinite(bound) and _frobenius(x) <= tol * max(1.0, bound) / 2:
        return None
    defect = _relative_defect(x, *scale)
    return None if defect <= tol else defect


def herm_defect(a: np.ndarray) -> float:
    """``norm(a - a*) / max(1, norm(a))``, a scale-aware asymmetry measure (0.0, with no SVD, if ``a`` is Hermitian).

    The exact SVD value that :func:`spectral_summary` reports; tests of it against a tolerance use :func:`_defect_beyond`.
    """
    a = _require_square(a)
    return _relative_defect(a - np.conj(a).T, a)


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (only its lower triangle is read)."""
    return _lapack("eigvalsh", _require_square(h))


def _hermitian_spectrum(a: np.ndarray, tol: float) -> np.ndarray | None:
    """Eigenvalues of the Hermitian part of ``a``, or ``None`` if ``herm_defect(a) > tol``."""
    a = _require_square(a)
    if _defect_beyond(a - np.conj(a).T, tol, a) is not None:
        return None
    return hermitian_eigenvalues(hermitian_part(a))


def _rank(s: np.ndarray) -> int:
    """The one rank rule, scale-free (Golub & Van Loan 5.4.1): how many of ``s`` exceed ``TOL_SING_REL * max(s)``."""
    return int(np.count_nonzero(s > TOL_SING_REL * s.max()))


def _singular(s: np.ndarray) -> bool:
    """The one singularity test, on singular values ``s`` in any order: ``sigma_min <= TOL_SING_REL * sigma_max``."""
    return _rank(s) < s.size


def is_positive(a: np.ndarray, tol: float = TOL_PD) -> bool:
    """Whether ``a`` is positive within ``tol``.

    True iff the Hermiticity defect is at most ``tol`` and the smallest
    eigenvalue of the Hermitian part is at least ``-tol``.
    """
    _require_tolerances(tol=tol)
    w = _hermitian_spectrum(a, tol)
    return w is not None and bool(w[0] >= -tol)


def operator_sqrt(a: np.ndarray, tol: float = TOL_PD) -> np.ndarray:
    """Positive square root of a positive operator.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below
    ``-tol`` (or a Hermiticity defect above ``tol``) raises
    :class:`NotPositiveError`.  Rounding routinely produces tiny negative
    eigenvalues on genuinely positive inputs, hence the clamp.
    """
    _require_tolerances(tol=tol)
    a = _require_square(a)
    defect = _defect_beyond(a - np.conj(a).T, tol, a)
    if defect is not None:
        raise NotPositiveError(f"operator is not Hermitian within tol ({defect:.3e} > {tol:.3e})")
    w, q = _lapack("eigh", hermitian_part(a))
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
    w = hermitian_eigenvalues(hermitian_part(a))
    return SpectralSummary(float(w[0]), float(w[-1]), herm_defect(a))


def inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse; a numerically singular ``a`` raises :class:`SingularOperatorError`."""
    a = _require_square(a)
    return _inverse(a, _singular_values(a))


def _inverse(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`inverse` of the square ``a``, given its singular values ``s`` (so a caller that has them takes no second SVD)."""
    if _singular(s):
        raise SingularOperatorError(
            f"operator is numerically singular (sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})"
        )
    out = _lapack("inv", a)
    out.setflags(write=False)
    return out


def _factor_range_basis(factors) -> np.ndarray | None:
    """Orthonormal columns ``Q`` whose span holds the range of ``X*`` for every ``d x n`` factor ``X``.

    ``Q`` is the reduced Householder QR factor of the ``n x m`` stack of the
    adjoints, ``m`` the total row count.  It has ``m`` orthonormal columns
    whether or not the stack has full rank, so no rank reveal or drop
    tolerance is involved.  The Hermitian part ``H`` of any sum of products
    ``X* Y`` of the factors then equals ``Q (Q* H Q) Q*``, so its spectrum is
    that of the ``m x m`` block plus ``n - m`` zeros (Courant-Fischer).
    Returns ``None`` when ``2 m > n``, and when a factor is not finite, whose
    QR would be garbage.  The cutoff only picks the faster path: timed per
    atom at one BLAS thread, QR plus two ``m x m`` eigenproblems beat two
    ``n x n`` ones up to ``m ~ 3n/4`` for ``n >= 32`` and lose from ``m = n``;
    at ``n = 16`` the two are within 10 % up to ``m = n/2``.
    """
    m = sum(x.shape[0] for x in factors)
    if 2 * m > factors[0].shape[1]:
        return None
    stack = np.vstack(factors)
    if not np.isfinite(stack).all():
        return None
    return _lapack("qr", np.conj(stack).T)[0]


def orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the column span of ``m``.

    The left singular vectors of one thin SVD, as many as its :func:`_rank`, whatever the order and overall scale
    of the columns.  Before the SVD the whole matrix is divided by the power of two that brings its largest real or
    imaginary part into ``[1/2, 1)`` (``np.ldexp``, exact), so no singular value overflows.  The columns are not
    rescaled one by one here: that would change the singular vectors.
    """
    parts = as_operator(m).view(np.float64)  # real and imaginary parts, side by side
    exponent = math.frexp(float(np.abs(parts).max()))[1]
    u, s, _ = _lapack("svd", np.ldexp(parts, -exponent).view(np.complex128), full_matrices=False)
    out = u[:, :_rank(s)]
    if not out.shape[1]:
        raise DimensionError("no linearly independent columns survived orthonormalization")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Subspace:
    """A closed subspace, stored as an orthonormal basis of columns.

    A basis whose Gram residual ``B* B - I`` has a defect above ``TOL_ORTH`` is refused;
    :func:`_defect_beyond` settles a rounding-sized residual, such as that of
    :func:`orthonormal_columns`, without an SVD.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = as_operator(self.basis)
        n, r = b.shape
        if r > n:
            raise DimensionError(f"basis has {r} columns in ambient dimension {n}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Gram matrix is rejected below
            residual = np.conj(b).T @ b - np.eye(r)
        defect = _defect_beyond(residual, TOL_ORTH) if np.isfinite(residual).all() else math.inf
        if defect is not None:
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
    def from_vectors(cls, vectors) -> "Subspace":
        """The span of ``vectors``, each first divided by its largest real or imaginary part (zero ones are dropped).

        That divisor never overflows, unlike a norm, so a span does not depend on the scale of any one vector; the
        parts are divided as reals, since a complex division by a subnormal divisor overflows."""
        cols = as_operator(np.column_stack([np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]))
        top = np.maximum(np.abs(cols.real), np.abs(cols.imag)).max(axis=0)
        top[top == 0.0] = 1.0  # a zero vector stays zero
        return cls(orthonormal_columns(cols.real / top + 1j * (cols.imag / top)))

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


def _nonsingular_operator(v, dim: int) -> np.ndarray:
    """``v`` as an immutable ``dim x dim`` operator, checked to be invertible.

    Raises :class:`SingularOperatorError` when ``v`` is numerically singular,
    since subspaces cannot be transported along it.  A family transform runs
    this check once, not once per atom (the canonical dual's ``S^-1`` passed it in :func:`inverse`).
    """
    v = _require_square(as_operator(v))
    if v.shape[0] != dim:
        raise DimensionError("operator and subspace live in different dimensions")
    if _singular(_singular_values(v)):
        raise SingularOperatorError("cannot transport a subspace along a singular operator")
    return v
