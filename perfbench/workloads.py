"""Seeded workloads, their timed set-up, and the independent bounds oracle.

Every workload fixes its shapes (dimension, atom count, per-atom rank and
codomain), so each seed does the same amount of work; the seed changes only
the values.  Orthonormal bases come from numpy's QR, so set-up never times
the library's Gram-Schmidt.  Both controls are ``1.5 * I``: scalar controls
commute with the inverse frame operator, which the canonical dual requires.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gfusion import ControlledFamily, MeasureAtom, Subspace, canonical_dual, save_family

CONTROL_SCALE = 1.5
PERTURB_SCALE = 1.05  # the perturbed document scales every local operator by this
SHAPE_SEED = 0        # small-batch draws its shapes from this seed, its values from --seed
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str       # "cli": documents through the gfusion CLI; "batch": in-process library calls
    why: str        # why the workload was chosen
    isolates: str   # the layer it isolates, and what it bypasses


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-docs", "cli",
            why="n=64, 50 atoms, subspace rank and codomain up to n: each document is ~19 MB, "
                "and dual emits a large dual document twice (stdout report and --out).",
            isolates="serialization: parsing dominates every command and emission sits beside it "
                     "in dual; analysis and pairs take under ~10% of each command.",
        ),
        Workload(
            "lowrank-atoms", "cli",
            why="n=192, 150 atoms, rank and codomain at most 3, ~12 MB documents: per-atom n^3 "
                "assembly, SVDs and the dual's subspace transport dominate.",
            isolates="analysis, linalg, pairs, perturbation, resolution: parsing is ~0.3 s of "
                     "0.6-3 s per command. The atom-stack and validate-once items should move it.",
        ),
        Workload(
            "small-batch", "batch",
            why="100 families, n in [4, 24], atoms in [n, 40], each taken through the library "
                "calls each CLI command makes, without JSON or process start.",
            isolates="family and per-call overhead: Python per-atom loops and repeated validation "
                     "dominate and serialization does nothing. The library user's view.",
        ),
    )
}


@dataclass(frozen=True)
class RawFamily:
    """The generated arrays of one reference family, kept for the oracle."""

    weights: np.ndarray
    frame_weights: np.ndarray
    bases: tuple[np.ndarray, ...]
    locals: tuple[np.ndarray, ...]
    control: np.ndarray


@dataclass(frozen=True)
class Instance:
    """One reference family ``a``, its canonical dual and its perturbation."""

    raw: RawFamily
    a: ControlledFamily
    dual: ControlledFamily
    pert: ControlledFamily


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _raw_family(rng, n: int, ranks, codims) -> RawFamily:
    bases, locals_ = [], []
    for r, d in zip(ranks, codims):
        q, _ = np.linalg.qr(_complex_normal(rng, (n, int(r))))
        bases.append(q)
        locals_.append(_complex_normal(rng, (int(d), n)) / np.sqrt(n))
    count = len(bases)
    return RawFamily(
        weights=rng.uniform(0.5, 2.5, count),
        frame_weights=rng.uniform(0.5, 1.5, count),
        bases=tuple(bases),
        locals=tuple(locals_),
        control=CONTROL_SCALE * np.eye(n),
    )


def _instance(raw: RawFamily) -> Instance:
    n = raw.control.shape[0]
    atoms = tuple(
        MeasureAtom(id=f"a{i}", weight=float(w), frame_weight=float(v), subspace=Subspace(b), local_op=loc)
        for i, (w, v, b, loc) in enumerate(zip(raw.weights, raw.frame_weights, raw.bases, raw.locals))
    )
    a = ControlledFamily(n, atoms, raw.control, raw.control)
    pert = replace(a, atoms=tuple(replace(x, local_op=PERTURB_SCALE * x.local_op) for x in atoms))
    return Instance(raw, a, canonical_dual(a), pert)


def _single(seed: int, n: int, rank_pool) -> list[RawFamily]:
    """One family whose rank and codomain multisets are fixed; the seed shuffles them."""
    rng = np.random.default_rng(seed)
    pool = np.asarray(rank_pool)
    return [_raw_family(rng, n, rng.permutation(pool), rng.permutation(pool))]


def _batch(seed: int, count: int = 100) -> list[RawFamily]:
    shapes = np.random.default_rng(SHAPE_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(shapes.integers(4, 25))
        atoms = int(shapes.integers(n, 41))
        ranks = shapes.integers(1, n + 1, atoms)
        codims = shapes.integers(1, n + 1, atoms)
        out.append(_raw_family(rng, n, ranks, codims))
    return out


def generate(name: str, seed: int) -> list[RawFamily]:
    if name == "dense-docs":
        return _single(seed, 64, np.linspace(1, 64, 50).round().astype(int))
    if name == "lowrank-atoms":
        return _single(seed, 192, np.tile([1, 2, 3], 50))
    if name == "small-batch":
        return _batch(seed)
    raise KeyError(name)


DOC_ROLES = ("a", "dual", "pert")


def doc_paths(workdir: Path) -> dict[str, Path]:
    return {role: workdir / f"{role}.json" for role in DOC_ROLES}


def set_up(workload: Workload, seed: int, workdir: Path,
           repeats: int = SETUP_REPEATS) -> tuple[list[Instance], float]:
    """Generate the instances (and, for CLI workloads, write their documents).

    Set-up runs ``repeats`` times, each from scratch, and the median wall
    time is returned with the instances of the last repeat.  Every repeat
    writes fresh files: ext4 flushes a file rewritten in place when it is
    closed.  The last documents are flushed to disk before returning, so
    their write-back does not land in the commands timed next.
    """
    paths = doc_paths(workdir)
    times = []
    for _ in range(repeats):
        if workload.mode == "cli":
            for path in paths.values():
                path.unlink(missing_ok=True)
        start = time.perf_counter()
        instances = [_instance(raw) for raw in generate(workload.name, seed)]
        if workload.mode == "cli":
            for role in DOC_ROLES:
                save_family(paths[role], getattr(instances[0], role))
        times.append(time.perf_counter() - start)
    if workload.mode == "cli":
        for path in paths.values():
            _fsync(path)
    return instances, statistics.median(times)


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def oracle_bounds(raw: RawFamily) -> tuple[float, float]:
    """Extreme eigenvalues of the Hermitian part of S, recomputed from the raw arrays.

    ``S = sum_i w_i v_i^2 T* P_i A_i* A_i P_i U`` with its own loop and its own
    projections, so it shares no code with the library.
    """
    t = u = raw.control
    n = t.shape[0]
    s = np.zeros((n, n), dtype=np.complex128)
    for w, v, b, loc in zip(raw.weights, raw.frame_weights, raw.bases, raw.locals):
        p = b @ b.conj().T
        s += w * v * v * (t.conj().T @ p @ loc.conj().T @ loc @ p @ u)
    ev = np.linalg.eigvalsh((s + s.conj().T) / 2)
    return float(ev[0]), float(ev[-1])
