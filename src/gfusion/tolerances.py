"""Default numeric tolerances, shared by the library and the CLI.

All spectral work happens in double precision on desk-scale matrices
(dimension <= 512), so the defaults leave ample headroom above rounding
noise while still separating genuine zero modes from it.
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

DEFAULT_SEED = 1729   # fixed default seed for sampling diagnostics
MAX_DIM = 512         # desk-scale cap for dense eigendecompositions
