"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one PASS/FAIL line (visible with ``pytest -s``).
"""

import json
import time

import numpy as np

from gfusion import (
    BesselPair,
    MultiplierSymbol,
    analysis,
    ball_partition_example,
    canonical_dual,
    canonical_resolutions,
    dual_resolution_bounds,
    frame_operator,
    gram_form,
    gram_form_samples,
    hermitian_part,
    is_resolution,
    multiplier,
    multiplier_frame_criterion,
    operator_norm,
    optimal_bounds,
    pair_frame_operator,
    perturb_check,
    perturb_check_simple,
    recontrol_balanced,
    recontrol_product,
    save_family,
    synthesis,
    synthesis_matrix,
    total_v2,
)
from gfusion.cli import main
from gfusion.perturbation import PerturbationParams
from helpers import diag_family, generic_family, oracle_gram, random_pair, scale_local_ops, unit_vectors

_T0 = time.perf_counter()
_SAMPLES = 1000


def _criterion(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


_instances = None


def instances():
    """100 frame instances: 50 fully diagonal, 50 with random atoms."""
    global _instances
    if _instances is None:
        diag = [diag_family(seed) for seed in range(50)]
        generic = [generic_family(1000 + seed) for seed in range(50)]
        _instances = [(fam, optimal_bounds(fam)) for fam in diag + generic]
        for fam, rep in _instances:
            assert rep.is_frame and fam.dim <= 16 and len(fam.atoms) <= 20
    return _instances


def diagonal_instances():
    return instances()[:50]


def test_criterion_1_builtin_example_reproduction(capsys):
    ok = True
    for weights in (("3", "2", "1.5"), ("9", "4", "1.01"), ("5.5", "5.5", "2")):
        t0 = time.perf_counter()
        code = main(["bounds", "--builtin", "paper-example", "--reading", "consistent",
                     "--weights", *weights])
        elapsed = time.perf_counter() - t0
        rep = json.loads(capsys.readouterr().out)
        ok &= code == 0
        ok &= abs(rep["bounds"]["lower"] - 1.0) <= 1e-9
        ok &= abs(rep["bounds"]["upper"] - 4.0) <= 1e-9
        ok &= elapsed < 0.1
    with capsys.disabled():
        _criterion(1, "builtin example bounds (1, 4), weight-independent, < 0.1 s", ok)


def test_criterion_2_frame_operator_sandwich(capsys):
    rng = np.random.default_rng(99)
    ok = True
    for fam, rep in instances():
        f = unit_vectors(rng, fam.dim, _SAMPLES)
        vals = gram_form_samples(fam, f).real
        ok &= vals.min() >= rep.A_opt - 1e-9
        ok &= vals.max() <= rep.B_opt + 1e-9
        # spot-check the batch against the scalar form and the oracle
        g0 = gram_form(fam, f[:, 0], f[:, 0])
        ok &= abs(vals[0] - g0.real) < 1e-10
        ok &= abs(g0 - oracle_gram(fam, f[:, 0], f[:, 0])) < 1e-10
        inv_eigs = np.linalg.eigvalsh(hermitian_part(np.linalg.inv(frame_operator(fam))))
        ok &= inv_eigs.min() >= 1.0 / rep.B_opt - 1e-9
        ok &= inv_eigs.max() <= 1.0 / rep.A_opt + 1e-9
    with capsys.disabled():
        _criterion(2, "gram sandwich and inverse spectrum on 100 instances", ok)


def test_criterion_3_synthesis_analysis_factorization(capsys):
    rng = np.random.default_rng(100)
    ok = True
    for fam, rep in instances():
        s = frame_operator(fam)
        assembled = np.column_stack(
            [synthesis(fam, analysis(fam, col)) for col in np.eye(fam.dim)]
        )
        ok &= operator_norm(assembled - s) <= 1e-8
        for _ in range(3):
            f = unit_vectors(rng, fam.dim, 1)[:, 0]
            ok &= abs(analysis(fam, f).norm_sq - np.vdot(f, s @ f).real) <= 1e-9
        ok &= operator_norm(synthesis_matrix(fam)) <= np.sqrt(rep.B_opt) + 1e-9
    with capsys.disabled():
        _criterion(3, "synthesis o analysis = frame operator, coefficient norms", ok)


def test_criterion_4_canonical_dual(capsys):
    ok = True
    for fam, rep in diagonal_instances():
        dual = canonical_dual(fam)
        s_inv = np.linalg.inv(frame_operator(fam))
        ok &= operator_norm(frame_operator(dual) - s_inv) <= 1e-8
        dual_rep = optimal_bounds(dual)
        ok &= abs(dual_rep.A_opt - 1.0 / rep.B_opt) <= 1e-8
        ok &= abs(dual_rep.B_opt - 1.0 / rep.A_opt) <= 1e-8
    builtin_dual = canonical_dual(ball_partition_example(3.0, 2.0, 1.5))
    ok &= operator_norm(frame_operator(builtin_dual) - np.diag([1.0, 0.25, 0.8])) <= 1e-9
    with capsys.disabled():
        _criterion(4, "canonical dual operator and bounds", ok)


def test_criterion_5_control_equivalences(capsys):
    ok = True
    count = 0
    for seed in range(100):
        fam = diag_family(2000 + seed)
        rep = optimal_bounds(fam)
        for op in (recontrol_product, recontrol_balanced):
            out = optimal_bounds(op(fam))
            ok &= abs(out.A_opt - rep.A_opt) <= 1e-9
            ok &= abs(out.B_opt - rep.B_opt) <= 1e-9
        count += 1
    ok &= count == 100
    with capsys.disabled():
        _criterion(5, "recontrol operations preserve optimal bounds on 100 instances", ok)


def test_criterion_6_pair_operator(capsys):
    ok = True
    for seed in range(100):
        pair = random_pair(seed)
        s = pair_frame_operator(pair)
        bound = np.sqrt(pair.lam_bounds.B_opt * pair.gam_bounds.B_opt)
        ok &= operator_norm(s) <= bound + 1e-9
        swapped = pair_frame_operator(BesselPair(pair.gam, pair.lam))
        ok &= np.max(np.abs(s.conj().T - swapped)) <= 1e-10
    with capsys.disabled():
        _criterion(6, "pair operator norm bound and adjoint swap on 100 pairs", ok)


def test_criterion_7_resolutions(capsys):
    ok = True
    for fam, _rep in instances():
        s = frame_operator(fam)
        cond = np.linalg.cond(s)
        left, right = canonical_resolutions(fam)
        ok &= is_resolution(left, tol=1e-8 * cond).holds
        ok &= is_resolution(right, tol=1e-8 * cond).holds
    for fam, _rep in diagonal_instances():
        rep = dual_resolution_bounds(fam)
        ok &= rep.resolution_ok and rep.sandwich_ok
    with capsys.disabled():
        _criterion(7, "canonical resolutions and dual-form sandwich", ok)


def test_criterion_8_multiplier(capsys):
    rng = np.random.default_rng(101)
    ok = True
    for seed in range(100):
        pair = random_pair(seed)
        m = MultiplierSymbol(tuple(rng.uniform(-2.0, 2.0, len(pair.lam.atoms))))
        bound = m.sup_norm * np.sqrt(pair.lam_bounds.B_opt * pair.gam_bounds.B_opt)
        ok &= operator_norm(multiplier(m, pair)) <= bound + 1e-9
    for seed in range(20):
        fam = diag_family(3000 + seed, equal_controls=True)
        pair = BesselPair(fam, canonical_dual(fam))
        ones = MultiplierSymbol.constant(1.0, len(fam.atoms))
        rep = multiplier_frame_criterion(ones, pair)
        ok &= rep.applicable and rep.lambda_star <= 1e-8
        ok &= rep.certified_lower_gam_ok and rep.certified_lower_lam_ok
    with capsys.disabled():
        _criterion(8, "multiplier norm bound and dual-pair certification", ok)


def test_criterion_9_perturbation(capsys):
    ok = True
    for fam, rep in diagonal_instances()[:20]:
        zero = perturb_check(fam, fam, PerturbationParams(0.0, 0.0, 0.0))
        ok &= zero.hypothesis_met and zero.applicable and zero.inside
        ok &= abs(zero.certified_lower - rep.A_opt) <= 1e-12
        ok &= abs(zero.certified_upper - rep.B_opt) <= 1e-12
        for delta in (0.01, 0.1):
            gam = scale_local_ops(fam, np.sqrt(1.0 + delta))
            out = perturb_check(fam, gam, PerturbationParams(delta, 0.0, 0.0))
            ok &= out.hypothesis_met and out.applicable and out.inside
        threshold = rep.A_opt / total_v2(fam)
        ok &= not perturb_check_simple(fam, fam, threshold * 1.0001).applicable
        ok &= perturb_check_simple(fam, fam, threshold * 0.9999).applicable
    with capsys.disabled():
        _criterion(9, "perturbation certificates and applicability boundary", ok)


def test_criterion_10_cli_roundtrip_and_determinism(capsys, tmp_path):
    fam = diag_family(0, equal_controls=True)
    path = tmp_path / "fam.json"
    save_family(path, fam)
    first_text = path.read_text()
    from gfusion import load_family

    back, _ = load_family(path)
    save_family(path, back)
    ok = path.read_text() == first_text  # emit(parse(emit(fam))) is byte-stable
    ok &= all(
        np.array_equal(a.local_op, b.local_op) and np.array_equal(a.subspace.basis, b.subspace.basis)
        for a, b in zip(fam.atoms, back.atoms)
    )
    main(["bounds", str(path)])
    run1 = capsys.readouterr().out
    main(["bounds", str(path)])
    run2 = capsys.readouterr().out
    ok &= run1 == run2
    main(["resolution", str(path), "dual-bounds"])
    run3 = capsys.readouterr().out
    main(["resolution", str(path), "dual-bounds"])
    ok &= run3 == capsys.readouterr().out
    elapsed = time.perf_counter() - _T0
    ok &= elapsed < 60.0
    with capsys.disabled():
        _criterion(10, f"CLI round-trip and determinism (acceptance elapsed {elapsed:.1f} s)", ok)
