"""Shared instance generators and independent oracles.

The oracles recompute everything from raw numpy primitives (explicit loops,
inline projections) so they stay independent of the library code paths they
are used to check.
"""

from __future__ import annotations

import base64

import numpy as np

from gfusion import ControlledFamily, MeasureAtom, Subspace, optimal_bounds


# ---------------------------------------------------------------- generators

def diag_control(rng, n, lo=0.5, hi=2.0):
    return np.diag(rng.uniform(lo, hi, n))


def coordinate_atom(rng, n, i, tag="a"):
    """A diagonal atom covering coordinate ``i mod n`` plus random extras."""
    axes = {int(i % n)}
    axes.update(int(j) for j in rng.integers(0, n, size=rng.integers(0, 3)))
    axes = sorted(axes)
    local = np.zeros((len(axes), n))
    for row, j in enumerate(axes):
        local[row, j] = rng.uniform(0.3, 1.6)
    return MeasureAtom(
        id=f"{tag}{i}",
        weight=float(rng.uniform(0.5, 2.5)),
        frame_weight=float(rng.uniform(0.4, 1.8)),
        subspace=Subspace.coordinate(n, axes),
        local_op=local,
    )


def random_atom(rng, n, i, tag="a"):
    """A dense atom: random subspace, random complex local operator."""
    r = int(rng.integers(1, n + 1))
    d = int(rng.integers(1, n + 2))
    basis = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    local = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(n)
    return MeasureAtom(
        id=f"{tag}{i}",
        weight=float(rng.uniform(0.5, 2.5)),
        frame_weight=float(rng.uniform(0.4, 1.8)),
        subspace=Subspace.from_vectors(basis.T),
        local_op=local,
    )


def diag_family(seed, n=None, n_atoms=None, equal_controls=False):
    """Fully diagonal instance: everything commutes, always a frame."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 17))
    n_atoms = n_atoms or int(rng.integers(n, 21))
    atoms = tuple(coordinate_atom(rng, n, i) for i in range(n_atoms))
    t = diag_control(rng, n)
    u = t if equal_controls else diag_control(rng, n)
    return ControlledFamily(n, atoms, t, u)


def generic_family(seed, n=None, n_atoms=None):
    """Random subspaces and local operators under one repeated diagonal control.

    Redraws until the instance is a frame (the atoms almost surely span, but
    the lower bound can still be poor).
    """
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 17))
    n_atoms = n_atoms or int(rng.integers(max(2, n), 21))
    for _ in range(50):
        atoms = tuple(random_atom(rng, n, i) for i in range(n_atoms))
        t = diag_control(rng, n)
        fam = ControlledFamily(n, atoms, t, t)
        if optimal_bounds(fam).A_opt > 1e-6:
            return fam
    raise RuntimeError(f"could not draw a frame instance for seed {seed}")


def lowrank_family(seed, n, control="scalar", max_rank=3, atoms=None):
    """``atoms`` (default ``n``) dense atoms of subspace rank and codomain at most ``max_rank``.

    Both controls are ``control``: ``"scalar"`` (a multiple of the
    identity) or ``"dense"`` (a :func:`positive_control`).  Redraws until the
    instance is a frame.
    """
    rng = np.random.default_rng(seed)
    for _ in range(50):
        drawn = []
        for i in range(atoms or n):
            r, d = (int(k) for k in rng.integers(1, max_rank + 1, 2))
            basis = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            local = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(n)
            weight, frame_weight = rng.uniform(0.5, 2.5), rng.uniform(0.4, 1.8)
            drawn.append(MeasureAtom(f"a{i}", float(weight), float(frame_weight),
                                     Subspace.from_vectors(basis.T), local))
        t = rng.uniform(0.5, 2.0) * np.eye(n) if control == "scalar" else positive_control(rng, n)
        fam = ControlledFamily(n, tuple(drawn), t, t)
        if optimal_bounds(fam).A_opt > 1e-6:
            return fam
    raise RuntimeError(f"could not draw a frame instance for seed {seed}")


def perturbed_family(family, factors, extra_rows=()):
    """``family`` with local operator ``i`` scaled by ``sqrt(factors[i])``.

    Atom ``i`` in ``extra_rows`` also gets one more codomain row, a fixed
    small multiple of its first row rotated onto the next coordinate, which
    adds a positive term to its form.
    """
    atoms = []
    for i, (a, f) in enumerate(zip(family.atoms, factors)):
        local = np.sqrt(f) * a.local_op
        if i in extra_rows:
            local = np.vstack([local, 0.1 * np.roll(a.local_op[:1], 1, axis=1)])
        atoms.append(MeasureAtom(a.id, a.weight, a.frame_weight, a.subspace, local))
    return ControlledFamily(family.dim, tuple(atoms), family.control_left, family.control_right)


def scale_local_ops(family, factor):
    """Same family with every local operator multiplied by ``factor``."""
    atoms = tuple(
        MeasureAtom(
            id=a.id,
            weight=a.weight,
            frame_weight=a.frame_weight,
            subspace=a.subspace,
            local_op=factor * a.local_op,
        )
        for a in family.atoms
    )
    return ControlledFamily(family.dim, atoms, family.control_left, family.control_right)


def c128le(a) -> str:
    """The ``c128le`` text of a binary matrix payload: base64 of ``a``'s row-major little-endian complex128 bytes."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<c16").tobytes()).decode("ascii")


def _decimal_rows(a):
    a = np.asarray(a)
    return [
        [x if y == 0.0 else [x, y] for x, y in zip(row_re, row_im)]
        for row_re, row_im in zip(a.real.tolist(), a.imag.tolist())
    ]


def decimal_document(family, m=None):
    """``family`` (and symbol ``m``) as a hand-written document: every matrix as decimal rows of
    shortest round-trip floats, an entry with imaginary part 0.0 (of either sign) as its plain real
    part and any other as an ``[re, im]`` pair."""
    doc = {
        "dim": int(family.dim),
        "controls": {"T": _decimal_rows(family.control_left), "U": _decimal_rows(family.control_right)},
        "atoms": [
            {"id": a.id, "weight": float(a.weight), "v": float(a.frame_weight),
             "subspace": _decimal_rows(a.subspace.basis.T), "lambda": _decimal_rows(a.local_op)}
            for a in family.atoms
        ],
    }
    if m is not None:
        doc["m"] = _decimal_rows([m.values])[0]
    return doc


def unit_vectors(rng, n, count):
    z = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    return z / np.linalg.norm(z, axis=0, keepdims=True)


def random_pair(seed, n=5, n_atoms=8):
    """Two atom-aligned diagonal families under distinct repeated controls."""
    from gfusion import BesselPair

    lam = diag_family(seed, n=n, n_atoms=n_atoms, equal_controls=True)
    rng = np.random.default_rng(10_000 + seed)
    atoms = []
    for a in lam.atoms:  # same measure weights and codomains, fresh structure
        d = a.codomain_dim
        local = np.zeros((d, n))
        rows = [int(rng.integers(0, n)) for _ in range(d)]
        for row, j in enumerate(rows):
            local[row, j] = rng.uniform(0.3, 1.6)
        atoms.append(
            MeasureAtom(
                a.id, a.weight, float(rng.uniform(0.4, 1.8)),
                Subspace.coordinate(n, sorted(set(rows))), local,
            )
        )
    u = np.diag(rng.uniform(0.5, 2.0, n))
    gam = ControlledFamily(n, tuple(atoms), u, u)
    return BesselPair(lam, gam)


def positive_control(rng, n, lo=0.5):
    """A dense (non-diagonal) Hermitian positive definite control, eigenvalues >= ``lo``."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    return lo * np.eye(n) + z @ z.conj().T


def dense_pair(seed, n=None, n_atoms=None):
    """Two atom-aligned dense families under distinct non-diagonal repeated controls.

    The first is a :func:`generic_family`; the second keeps its measure
    weights and codomain dimensions and redraws everything else.
    """
    from gfusion import BesselPair, replace_controls

    lam = generic_family(seed, n=n, n_atoms=n_atoms)
    n = lam.dim
    rng = np.random.default_rng(20_000 + seed)
    atoms = []
    for a in lam.atoms:
        r = int(rng.integers(1, n + 1))
        d = a.codomain_dim
        basis = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        local = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(n)
        sub = Subspace.from_vectors(basis.T)
        atoms.append(MeasureAtom(a.id, a.weight, float(rng.uniform(0.4, 1.8)), sub, local))
    t = positive_control(rng, n)
    u = positive_control(rng, n)
    gam = ControlledFamily(n, tuple(atoms), u, u)
    return BesselPair(replace_controls(lam, t, t), gam)


# ------------------------------------------------------------------- oracles

def oracle_projection(atom):
    b = atom.subspace.basis
    return b @ b.conj().T


def oracle_atom_term(family, atom):
    p = oracle_projection(atom)
    core = p @ atom.local_op.conj().T @ atom.local_op @ p
    return family.control_left.conj().T @ core @ family.control_right


def oracle_frame_operator(family):
    """Direct summation, one explicit term per atom."""
    s = np.zeros((family.dim, family.dim), dtype=complex)
    for atom in family.atoms:
        s = s + atom.weight * atom.frame_weight**2 * oracle_atom_term(family, atom)
    return s


def oracle_resolution_terms(family, left, right):
    """``A* (w_i v_i^2 P_i Lambda_i* Lambda_i P_i) B`` per atom: the terms of ``family``'s resolution between
    ``A = left`` and ``B = right``, one explicit product per atom."""
    terms = []
    for atom in family.atoms:
        p = oracle_projection(atom)
        core = p @ atom.local_op.conj().T @ atom.local_op @ p
        terms.append(atom.weight * atom.frame_weight**2 * (np.conj(left).T @ core @ right))
    return terms


def oracle_plain_operator(family):
    s = np.zeros((family.dim, family.dim), dtype=complex)
    for atom in family.atoms:
        p = oracle_projection(atom)
        s = s + atom.weight * atom.frame_weight**2 * (p @ atom.local_op.conj().T @ atom.local_op @ p)
    return s


def oracle_gram(family, f, g):
    """Per-atom inner products, never through the frame operator."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    total = 0j
    for atom in family.atoms:
        p = oracle_projection(atom)
        x = atom.local_op @ p @ family.control_right @ f
        y = atom.local_op @ p @ family.control_left @ g
        total += atom.weight * atom.frame_weight**2 * np.sum(x * y.conj())
    return total


def oracle_pair_operator(pair):
    """``sum_i w_i v_i w'_i U P_Gi Gam_i* Lam_i P_Fi T``, one explicit term per atom."""
    t = pair.lam.control_left
    u = pair.gam.control_left
    s = np.zeros((pair.dim, pair.dim), dtype=complex)
    for a, b in zip(pair.lam.atoms, pair.gam.atoms):
        pf = oracle_projection(a)
        pg = oracle_projection(b)
        term = u @ pg @ b.local_op.conj().T @ a.local_op @ pf @ t
        s = s + a.weight * a.frame_weight * b.frame_weight * term
    return s


def oracle_multiplier(values, pair):
    """``sum_i w_i m_i v_i w'_i T P_Fi Lam_i* Gam_i P_Gi U``, one explicit term per atom."""
    t = pair.lam.control_left
    u = pair.gam.control_left
    s = np.zeros((pair.dim, pair.dim), dtype=complex)
    for m, a, b in zip(values, pair.lam.atoms, pair.gam.atoms):
        pf = oracle_projection(a)
        pg = oracle_projection(b)
        term = t @ pf @ a.local_op.conj().T @ b.local_op @ pg @ u
        s = s + a.weight * m * a.frame_weight * b.frame_weight * term
    return s


def oracle_perturbation(lam, gam, lambda1, lambda2, eps, tol=1e-10, slack=1e-9):
    """The two-fraction perturbation check, from explicit projections.

    Per atom, with both terms under ``lam``'s controls, the Hermitian part of
    the difference must be positive semidefinite and dominated by
    ``lambda1 * ref + lambda2 * per + eps * I``, each decided by one full
    ``n x n`` ``eigvalsh`` (of the difference, and of dominator minus
    difference); the first failing atom is reported.  Returns
    ``(hypothesis_met, failing_atom, applicable, certified interval or None,
    inside, min_margin)``, where ``min_margin`` is the smallest eigenvalue of
    the differences over all atoms when the hypothesis holds, else ``None``.
    """
    def herm(x):
        return (x + x.conj().T) / 2

    def bounds(family):
        ev = np.linalg.eigvalsh(herm(oracle_frame_operator(family)))
        return ev[0], ev[-1]

    met, failing, margin = True, None, np.inf
    for a, b in zip(lam.atoms, gam.atoms):
        ref = herm(oracle_atom_term(lam, a))
        per = herm(oracle_atom_term(lam, b))
        d = per - ref
        dominator = lambda1 * ref + lambda2 * per + eps * np.eye(lam.dim)
        lowest = np.linalg.eigvalsh(d)[0]
        if lowest < -tol or np.linalg.eigvalsh(dominator - d)[0] < -tol:
            met, failing = False, a.id
            break
        margin = min(margin, lowest)
    margin = margin if met else None
    a_opt, b_opt = bounds(lam)
    tv2 = sum(a.weight * a.frame_weight**2 for a in lam.atoms)
    applicable = a_opt * (1 - lambda1) - eps * tv2 > 0
    if not (met and applicable):
        return met, failing, applicable, None, False, margin
    lower = ((1 - lambda1) * a_opt - eps * tv2) / (1 + lambda2)
    upper = ((1 + lambda1) * b_opt + eps * tv2) / (1 - lambda2)
    a_gam, b_gam = bounds(gam)
    inside = a_gam > 1e-10 and lower <= a_gam + slack and b_gam <= upper + slack
    return met, failing, applicable, (lower, upper), inside, margin


def oracle_simple_perturbation(lam, gam, bound):
    """The verdict fields (all but ``min_margin``) of :func:`oracle_perturbation` with ``(0, 0, bound)``."""
    return oracle_perturbation(lam, gam, 0.0, 0.0, bound)[:5]


def oracle_dual_form(family):
    """``sum_i w_i v_i^2 (A_i P_i S^-1 L)* (A_i P_i S^-1 R)``: ``Re f* M f`` is the dual-atom form."""
    s_inv = np.linalg.inv(oracle_frame_operator(family))
    m = np.zeros((family.dim, family.dim), dtype=complex)
    for atom in family.atoms:
        dual = atom.local_op @ oracle_projection(atom) @ s_inv
        left, right = dual @ family.control_left, dual @ family.control_right
        m = m + atom.weight * atom.frame_weight**2 * (left.conj().T @ right)
    return m
