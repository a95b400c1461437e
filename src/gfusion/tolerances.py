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
``tol_res`` (``tol`` of ``pair_bounded_below`` is ``tol_frame``).  The only
other thresholds a caller can set are ``tol`` of ``cross_duality_check``
(``TOL_DUAL``) and of ``is_resolution`` (``TOL_RES``), and the tolerances
of the ``linalg`` primitives.  ``TOL_COMM`` (reports print it as
``tol_comm``), ``TOL_SLACK``, ``TOL_FACT``, ``TOL_SWAP`` and the rest are
fixed.
"""

TOL_HERM = 1e-8       # relative Hermiticity defect allowed before a form counts as non-real
TOL_PD = 1e-10        # absolute eigenvalue slack in positivity tests
TOL_SING_REL = 1e-12  # singularity threshold, relative to the operator norm
TOL_ORTH = 1e-10      # orthonormality defect allowed in stored subspace bases
TOL_FRAME = 1e-10     # the lower optimal bound must exceed this for a frame verdict
TOL_COMM = 1e-8       # relative commutation defect allowed by checked hypotheses
TOL_RES = 1e-8        # residual norm allowed for a resolution of the identity
TOL_DUAL = 1e-8       # identity residual for cross-duality composites
TOL_SAME = 1e-12      # relative difference below which two weights or operators count as the same
DROP_TOL = 1e-12      # Gram-Schmidt rank-reveal drop threshold
TOL_SLACK = 1e-9      # absolute slack of every certified-vs-computed bound or norm comparison
TOL_FACT = 1e-9       # relative factorization residual of the controlled pair sum
TOL_SWAP = 1e-10      # adjoint-swap residual of the pair operator, relative to max(1, its norm)

DEFAULT_SEED = 1729   # fixed default seed for sampling diagnostics
MAX_DIM = 512         # desk-scale cap for dense eigendecompositions
