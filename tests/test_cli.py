import json
import subprocess
import sys

import numpy as np
import pytest

from gfusion import (
    BesselPair,
    MultiplierSymbol,
    ball_partition_example,
    canonical_dual,
    family_to_document,
    frame_operator,
    save_family,
)
from gfusion.cli import main
from helpers import diag_family, scale_local_ops


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out else None
    return code, report, out.err


@pytest.fixture()
def frame_file(tmp_path):
    fam = diag_family(0, equal_controls=True)
    path = tmp_path / "fam.json"
    save_family(path, fam, MultiplierSymbol.constant(1.0, len(fam.atoms)))
    return str(path), fam


# --------------------------------------------------------------------- bounds

def test_bounds_builtin_consistent(capsys):
    code, rep, _ = run_cli(capsys, "bounds", "--builtin", "paper-example", "--reading", "consistent")
    assert code == 0
    assert rep["verdict"] == "frame"
    assert rep["bounds"]["lower"] == pytest.approx(1.0, abs=1e-9)
    assert rep["bounds"]["upper"] == pytest.approx(4.0, abs=1e-9)
    assert rep["tolerances"]["tol_frame"] == 1e-10


def test_bounds_builtin_literal_is_negative_verdict(capsys):
    code, rep, _ = run_cli(capsys, "bounds", "--builtin", "paper-example", "--reading", "literal")
    assert code == 2
    assert rep["verdict"] == "bessel-only"


def test_bounds_identity_family_file(capsys, tmp_path):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "dim": 2,
        "controls": {"T": [[1, 0], [0, 1]], "U": [[1, 0], [0, 1]]},
        "atoms": [{"id": "a", "weight": 1.0, "v": 1.0,
                   "subspace": [[1, 0], [0, 1]], "lambda": [[1, 0], [0, 1]]}],
    }))
    code, rep, _ = run_cli(capsys, "bounds", str(path))
    assert code == 0
    assert rep["bounds"] == {"lower": 1.0, "upper": 1.0}


def test_bounds_parse_error_names_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "controls": {"T": [[1]], "U": [[1]]},
                                "atoms": [], "mystery": 3}))
    code, rep, err = run_cli(capsys, "bounds", str(path))
    assert code == 1
    assert rep is None
    assert "mystery" in err


@pytest.mark.parametrize("path, named", [
    (("controls", "T"), "controls.T"),
    (("controls", "U"), "controls.U"),
    (("atoms", 2, "lambda"), "atoms[2].lambda"),
    (("atoms", 1, "subspace"), "atoms[1].subspace"),
])
def test_non_finite_entry_is_one_error_line_naming_its_matrix(capsys, tmp_path, path, named):
    doc = family_to_document(ball_partition_example(3, 2, 1.5))
    node = doc
    for key in path:
        node = node[key]
    node[0][0] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # writes the NaN literal that json.loads accepts
    code, rep, err = run_cli(capsys, "bounds", str(bad))
    assert code == 1
    assert rep is None
    assert err.splitlines() == [f"gfusion: error: {named}: entries must be finite"]


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line on stderr
@pytest.mark.parametrize("atom, key, value, named", [
    pytest.param(0, ("lambda", 0, 0), 10**400, "atoms[0].lambda[0][0]", id="huge-int-lambda"),
    pytest.param(1, ("v",), 10**400, "atoms[1].v", id="huge-int-v"),
    pytest.param(1, ("v",), 1e308, "atom 'B2'", id="v-squared-overflows"),
    pytest.param(0, ("weight",), 1e308, "atom 'B1'", id="weight-v-squared-overflows"),  # with v = 10
    pytest.param(2, ("lambda", 2, 2), 1e200, "atom 'B3'", id="frame-operator-overflows"),
])
def test_out_of_range_number_is_one_error_line_naming_its_entry(capsys, tmp_path, atom, key, value, named):
    doc = family_to_document(ball_partition_example(3, 2, 1.5))
    node = doc["atoms"][atom]
    if key == ("weight",):
        node["v"] = 10
    for k in key[:-1]:
        node = node[k]
    node[key[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, rep, err = run_cli(capsys, "bounds", str(bad))
    assert code == 1
    assert rep is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"gfusion: error: {named}")


def test_bounds_missing_input(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 1
    assert "no input" in err


# ----------------------------------------------------------------------- dual

def test_dual_builtin(capsys, tmp_path):
    out_path = tmp_path / "dual.json"
    code, rep, _ = run_cli(capsys, "dual", "--builtin", "paper-example", "--out", str(out_path))
    assert code == 0
    assert rep["bounds"]["lower"] == pytest.approx(0.25, abs=1e-9)
    assert rep["bounds"]["upper"] == pytest.approx(1.0, abs=1e-9)
    assert rep["inverse_equality_residual"] < 1e-12
    emitted = json.loads(out_path.read_text())
    assert emitted == rep["dual_family"]


def test_dual_parseval_family_is_fixed_point(capsys, tmp_path):
    fam = diag_family(1, equal_controls=True)
    dual = canonical_dual(fam)
    path = tmp_path / "dual_in.json"
    save_family(path, dual)
    code, rep, _ = run_cli(capsys, "dual", str(path))
    assert code == 0
    assert rep["verdict"] == "frame"


def test_dual_rejects_non_frame(capsys):
    code, _, err = run_cli(capsys, "dual", "--builtin", "paper-example", "--reading", "literal")
    assert code == 1
    assert "bessel-only" in err


# ----------------------------------------------------------------------- pair

def _pair_files(tmp_path, seed=0):
    fam = diag_family(seed, equal_controls=True)
    dual = canonical_dual(fam)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_family(pa, fam, MultiplierSymbol.constant(1.0, len(fam.atoms)))
    save_family(pb, dual)
    return str(pa), str(pb)


def test_pair_operator_same_family(capsys, frame_file):
    path, _ = frame_file
    code, rep, _ = run_cli(capsys, "pair", path, path, "operator")
    assert code == 0
    assert rep["norm_bound_ok"] and rep["adjoint_swap_ok"]


def test_pair_bounded_below_dual_pair(capsys, tmp_path):
    pa, pb = _pair_files(tmp_path)
    code, rep, _ = run_cli(capsys, "pair", pa, pb, "bounded-below")
    assert code == 0
    assert rep["bounded_below"] and rep["resolution_ok"]


def test_pair_positivity(capsys, tmp_path):
    pa, pb = _pair_files(tmp_path)
    code, rep, _ = run_cli(capsys, "pair", pa, pa, "positivity")
    assert code == 0
    assert rep["positive"]


def test_pair_misaligned_counts_is_error(capsys, tmp_path):
    fam_a = diag_family(0, n=4, n_atoms=5, equal_controls=True)
    fam_b = diag_family(1, n=4, n_atoms=6, equal_controls=True)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_family(pa, fam_a)
    save_family(pb, fam_b)
    code, rep, err = run_cli(capsys, "pair", str(pa), str(pb), "operator")
    assert code == 1
    assert "atom counts" in err


# ----------------------------------------------------------------- multiplier

def test_multiplier_dual_pair_with_unit_symbol(capsys, tmp_path):
    pa, pb = _pair_files(tmp_path)
    code, rep, _ = run_cli(capsys, "multiplier", pa, pb)
    assert code == 0
    assert rep["lambda_star"] < 1e-8
    assert rep["norm_bound_ok"]


def test_multiplier_zero_symbol_inapplicable(capsys, tmp_path):
    pa, pb = _pair_files(tmp_path)
    code, rep, _ = run_cli(capsys, "multiplier", pa, pb, "--m-const", "0")
    assert code == 1
    assert rep["verdict"] == "inapplicable"
    assert rep["lambda_star"] == pytest.approx(1.0)


def test_multiplier_missing_symbol_is_error(capsys, tmp_path):
    fam = diag_family(2, equal_controls=True)
    pa = tmp_path / "a.json"
    save_family(pa, fam)  # no m array
    code, _, err = run_cli(capsys, "multiplier", str(pa), str(pa))
    assert code == 1
    assert "symbol" in err


# -------------------------------------------------------------------- perturb

def test_perturb_identical_files_zero_budget(capsys, frame_file):
    path, _ = frame_file
    code, rep, _ = run_cli(
        capsys, "perturb", path, path, "--lambda1", "0", "--lambda2", "0", "--eps", "0"
    )
    assert code == 0
    assert rep["certified"] == rep["computed"]


def test_perturb_scaled_family(capsys, tmp_path):
    fam = diag_family(3, equal_controls=True)
    gam = scale_local_ops(fam, np.sqrt(1.1))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_family(pa, fam)
    save_family(pb, gam)
    code, rep, _ = run_cli(capsys, "perturb", str(pa), str(pb), "--lambda1", "0.1",
                           "--lambda2", "0", "--eps", "0")
    assert code == 0
    assert rep["verdict"] == "pass"


def test_perturb_simple_too_large_inapplicable(capsys, frame_file):
    path, _ = frame_file
    code, rep, _ = run_cli(capsys, "perturb", path, path, "--simple", "1e6")
    assert code == 1
    assert rep["verdict"] == "inapplicable"


def test_perturb_missing_parameters(capsys, frame_file):
    path, _ = frame_file
    code, _, err = run_cli(capsys, "perturb", path, path)
    assert code == 1
    assert "--lambda1" in err


@pytest.mark.parametrize("flags, named", [
    (["--lambda1", "1.5", "--lambda2", "0", "--eps", "0"], "--lambda1"),
    (["--lambda1", "0", "--lambda2", "0", "--eps", "nan"], "--eps"),
    (["--simple", "0"], "--simple"),
    (["--simple", "-1"], "--simple"),
    (["--simple", "inf"], "--simple"),
    (["--simple", "nan"], "--simple"),
])
def test_perturb_out_of_range_flag_is_one_error_line(capsys, tmp_path, flags, named):
    path = tmp_path / "P.json"
    save_family(path, ball_partition_example(3, 2, 1.5))
    code, rep, err = run_cli(capsys, "perturb", str(path), str(path), *flags)
    assert code == 1
    assert rep is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gfusion: error: ")
    assert named in lines[0]


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line on stderr
@pytest.mark.parametrize("flags", [
    ["--simple", "0.1"],
    ["--lambda1", "0.1", "--lambda2", "0", "--eps", "0"],
])
def test_perturb_non_finite_perturbed_term_is_one_error_line(capsys, tmp_path, flags):
    reference = tmp_path / "P.json"
    save_family(reference, ball_partition_example(3, 2, 1.5))
    doc = family_to_document(ball_partition_example(3, 2, 1.5))
    doc["atoms"][0]["lambda"][0][0] = 1e200  # its term overflows; the reference's frame operator is finite
    perturbed = tmp_path / "B.json"
    perturbed.write_text(json.dumps(doc))
    code, rep, err = run_cli(capsys, "perturb", str(reference), str(perturbed), *flags)
    assert code == 1
    assert rep is None
    assert err.splitlines() == ["gfusion: error: atom 'B1': frame operator term is not finite"]


# ----------------------------------------------------------------- resolution

def test_resolution_canonical_right_builtin(capsys):
    code, rep, _ = run_cli(capsys, "resolution", "--builtin", "paper-example", "canonical-right")
    assert code == 0
    assert rep["residual"] <= 1e-10


def test_resolution_canonical_left_builtin(capsys):
    code, rep, _ = run_cli(capsys, "resolution", "--builtin", "paper-example", "canonical-left")
    assert code == 0


def test_resolution_dual_bounds(capsys, frame_file):
    path, _ = frame_file
    code, rep, _ = run_cli(capsys, "resolution", path, "dual-bounds")
    assert code == 0
    assert rep["sandwich_ok"]


def test_resolution_non_frame_is_error(capsys):
    code, _, err = run_cli(capsys, "resolution", "--builtin", "paper-example",
                           "--reading", "literal", "canonical-right")
    assert code == 1
    assert "frame" in err


# ------------------------------------------------------------------ call counts

def _counted(fn):
    """A wrapper of ``fn`` and the list it appends to on every call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    return wrapper, calls


@pytest.mark.parametrize("argv, frame_operators, pairs", [
    (["bounds", "A"], 1, 0),
    (["dual", "A", "--out", "OUT"], 2, 0),
    (["pair", "A", "D", "operator"], 2, 1),
    (["pair", "A", "D", "bounded-below"], 2, 1),
    (["pair", "A", "A", "positivity"], 2, 1),
    (["multiplier", "A", "D", "--m-const", "1.0"], 2, 1),
    (["perturb", "A", "P", "--lambda1", "0.2", "--lambda2", "0", "--eps", "0"], 2, 0),
    (["perturb", "A", "A", "--simple", "1e-3"], 2, 0),
    (["resolution", "A", "canonical-left"], 1, 0),
    (["resolution", "A", "canonical-right"], 1, 0),
    (["resolution", "A", "dual-bounds"], 1, 0),
])
def test_each_family_operator_is_assembled_once(capsys, monkeypatch, tmp_path, argv, frame_operators, pairs):
    fam = diag_family(0, equal_controls=True)
    files = {"A": fam, "D": canonical_dual(fam), "P": scale_local_ops(fam, np.sqrt(1.1))}
    for role, family in files.items():
        save_family(tmp_path / f"{role}.json", family)
    argv = [str(tmp_path / f"{x}.json") if x in files or x == "OUT" else x for x in argv]
    counted, frame_calls = _counted(frame_operator)
    for name, module in list(sys.modules.items()):  # every namespace that holds it, as perfbench/spans.py does
        if name == "gfusion" or name.startswith("gfusion."):
            for attr, value in list(vars(module).items()):
                if value is frame_operator:
                    monkeypatch.setattr(module, attr, counted)
    counted_init, pair_calls = _counted(BesselPair.__post_init__)
    monkeypatch.setattr(BesselPair, "__post_init__", counted_init)
    code, rep, _ = run_cli(capsys, *argv)
    assert code == 0, rep
    assert len(frame_calls) == frame_operators
    assert len(pair_calls) == pairs


# -------------------------------------------------------------- reproducibility

def test_reports_are_byte_identical_across_runs(capsys, frame_file):
    path, _ = frame_file
    main(["bounds", path])
    first = capsys.readouterr().out
    main(["bounds", path])
    second = capsys.readouterr().out
    assert first == second
    main(["resolution", path, "dual-bounds"])
    third = capsys.readouterr().out
    main(["resolution", path, "dual-bounds"])
    assert third == capsys.readouterr().out


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gfusion.cli", "bounds", "--builtin", "paper-example"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "frame"
