"""Every numeric threshold of the package, shared by the library and the CLI.

All spectral work happens in double precision on desk-scale matrices
(dimension <= 512), so the defaults leave ample headroom above rounding
noise while still separating genuine zero modes from it.  Each threshold a
check compares against is one of the names below, never a literal.

Three have flags: ``--tol-herm``, ``--tol-frame`` and ``--tol-res`` replace
``TOL_HERM``, ``TOL_FRAME`` and ``TOL_RES`` in every check a command makes:
the validation of each family (made once, where its frame operator is
assembled), every bounds verdict, and the positivity and resolution tests.
Library functions take them as the keywords ``tol_herm``, ``tol_frame`` and
``tol_res`` (``canonical_dual``, ``cross_duality_check`` and
``resolution_implies_frame`` take none).  The only other
thresholds a caller can set are ``tol`` of ``is_resolution`` (``TOL_RES``),
and ``tol`` of ``is_positive`` and ``operator_sqrt`` (``TOL_PD``).  Each
must be a finite number ``>= 0`` (:func:`_require_tolerances`).
``TOL_COMM`` (reports print it as ``tol_comm``; compared in
``analysis._commutation_failure`` only), ``TOL_SLACK``, ``TOL_FACT``,
``TOL_SWAP`` and the rest are fixed; ``TOL_SING_REL`` is the one
rank rule of every singularity test and orthonormalization (``linalg._rank``).
Every identity residual reads ``TOL_RES``: the resolution tests, and the
composite of ``cross_duality_check``, which is a resolution of the identity
too and, taking no keyword, always compares with the default.

A relative defect that is only compared with ``TOL_HERM`` (or ``tol``),
``TOL_COMM``, ``TOL_SAME`` or ``TOL_ORTH`` is settled by
``linalg._defect_beyond``: a scaled Frobenius bound passes it with no SVD
when it proves the SVD defect within the tolerance, and anything else takes
the SVD, so each comparison decides as the SVD defect would.
"""

import math

TOL_HERM = 1e-8       # relative Hermiticity defect allowed before a form counts as non-real
TOL_PD = 1e-10        # absolute eigenvalue slack in positivity tests
TOL_SING_REL = 1e-12  # singularity and rank: singular values at or below it times sigma_max count as zero
TOL_ORTH = 1e-10      # orthonormality defect allowed in stored subspace bases
TOL_FRAME = 1e-10     # the lower optimal bound must exceed this for a frame verdict
TOL_COMM = 1e-8       # relative commutation defect allowed by checked hypotheses
TOL_RES = 1e-8        # residual norm allowed for a resolution of the identity, cross-duality composites included
TOL_SAME = 1e-12      # relative difference below which two weights or operators count as the same
TOL_SLACK = 1e-9      # absolute slack of every certified-vs-computed bound or norm comparison
TOL_FACT = 1e-9       # relative factorization residual of the controlled pair sum
TOL_SWAP = 1e-10      # adjoint-swap residual of the pair operator, relative to max(1, its norm)

MAX_DIM = 512         # desk-scale cap for dense eigendecompositions


def _require_tolerances(**given: float) -> None:
    """Raise ``ValueError`` naming the first keyword whose value is not a finite number ``>= 0``.

    Every public function that takes ``tol_herm``, ``tol_frame``, ``tol_res`` or ``tol`` calls it before
    any other work, itself or through the public function it calls first: a negative tolerance fails
    even an exactly zero defect, and would let ``tol_frame`` pass a zero bound.
    """
    for name, value in given.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
