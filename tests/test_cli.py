import argparse
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gfusion import (
    BesselPair,
    ControlledFamily,
    MeasureAtom,
    MultiplierSymbol,
    Subspace,
    ball_partition_example,
    canonical_dual,
    canonical_json,
    frame_operator,
    multiplier,
    save_family,
)
from gfusion.cli import build_parser, main
from helpers import decimal_document, diag_family, scale_local_ops


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
    doc = decimal_document(ball_partition_example(3, 2, 1.5))
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
    doc = decimal_document(ball_partition_example(3, 2, 1.5))
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
    assert out_path.read_bytes() == canonical_json(rep["dual_family"]).encode()


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


def test_pair_bounded_below_of_a_numerically_singular_pair_is_a_verdict(capsys, tmp_path):
    """``S_FF = diag(1e4, 5e-9)``: ``sigma_min`` clears ``tol_frame``, but ``sigma_min / sigma_max = 5e-13`` is singular."""
    atoms = tuple(
        MeasureAtom(f"a{i}", 1.0, 1.0, Subspace.coordinate(2, [i]), np.sqrt(scale) * np.eye(2)[i:i + 1])
        for i, scale in enumerate([1e4, 5e-9])
    )
    path = tmp_path / "f.json"
    save_family(path, ControlledFamily(2, atoms, np.eye(2), np.eye(2)))
    code, rep, err = run_cli(capsys, "pair", str(path), str(path), "bounded-below")
    assert (code, rep["verdict"], rep["bounded_below"], err) == (2, "fail", False, "")
    assert rep["sigma_min"] == pytest.approx(5e-9)


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


def test_multiplier_reads_the_symbol_of_the_second_document(capsys, tmp_path):
    """With no --m-const and no ``m`` in the first document, the second document's symbol is used."""
    fam = diag_family(0, equal_controls=True)
    dual = canonical_dual(fam)
    symbol = MultiplierSymbol(tuple(0.9 + 0.1j * k for k in range(len(fam.atoms))))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_family(pa, fam)
    save_family(pb, dual, symbol)
    _, rep, _ = run_cli(capsys, "multiplier", str(pa), str(pb))
    expected = np.linalg.norm(multiplier(symbol, BesselPair(fam, dual)), 2)
    assert rep["operator_norm"] == float(expected)


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
    doc = decimal_document(ball_partition_example(3, 2, 1.5))
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


@pytest.mark.parametrize("argv, key", [
    (["perturb", "FILE", "FILE", "--lambda1", "0", "--lambda2", "0", "--eps", "0"], "min_margin"),
    (["resolution", "FILE", "dual-bounds"], "form_range"),
])
def test_reports_carry_exact_values_and_no_seed(capsys, frame_file, argv, key):
    path, _ = frame_file
    code, rep, _ = run_cli(capsys, *[path if x == "FILE" else x for x in argv])
    assert code == 0
    assert key in rep
    assert not {"seed", "samples", "deterministic", "sampled", "sampled_min_margin"} & set(rep)


def test_resolution_non_frame_is_error(capsys):
    code, _, err = run_cli(capsys, "resolution", "--builtin", "paper-example",
                           "--reading", "literal", "canonical-right")
    assert code == 1
    assert "frame" in err


# ---------------------------------------------------------------- usage errors

@pytest.mark.parametrize("argv", [
    ["bounds", "--builtin", "paper-example", "--bogus"],
    ["bounds", "--builtin", "paper-example", "--tol-frame", "abc"],
    ["bounds", "--builtin", "paper-example", "--seed", "7"],
    ["resolution", "--builtin", "paper-example", "dual-bounds", "--deterministic"],
    ["pair", "A.json", "B.json", "sideways"],
    [],
])
def test_usage_error_exits_1_with_nothing_on_stdout(capsys, argv):
    """A usage error is an error (exit 1), never the negative verdict's exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "gfusion" in out.err and "error:" in out.err


def _numeric_options():
    """``(subcommand, option, nargs)`` for every option of every subcommand that converts its value."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, action.option_strings[-1], action.nargs or 1)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.option_strings and action.type is not None
    ]


# Arguments under which each subcommand runs; an option given again later overrides them.
_RUNNABLE = {
    "bounds": ["--builtin", "paper-example"],
    "dual": ["--builtin", "paper-example"],
    "pair": ["A", "A", "operator"],
    "multiplier": ["A", "A", "--m-const", "1"],
    "perturb": ["A", "A", "--lambda1", "0.1", "--lambda2", "0", "--eps", "0"],
    "resolution": ["--builtin", "paper-example", "dual-bounds"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, option, nargs", _numeric_options())
def test_every_numeric_flag_refuses_a_non_finite_value(capsys, tmp_path, command, option, nargs, value):
    """A non-finite value of any numeric flag is an error (exit 1) naming the flag: no traceback, no report."""
    save_family(tmp_path / "A.json", ball_partition_example(3, 2, 1.5))
    argv = [str(tmp_path / "A.json") if x == "A" else x for x in _RUNNABLE[command]]
    if option == "--simple":  # it excludes the two-fraction flags
        argv = argv[:2]
    argv = [command, *argv, option, *[value] * nargs]
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert option in out.err and "gfusion" in out.err.splitlines()[-1]


@pytest.mark.parametrize("value", [["-1"], ["=-1e-300"]], ids=["separate", "joined"])
@pytest.mark.parametrize("option", ["--tol-herm", "--tol-frame", "--tol-res"])
@pytest.mark.parametrize("command", sorted(_RUNNABLE))
def test_every_tolerance_flag_refuses_a_negative_value(capsys, tmp_path, command, option, value):
    """A negative tolerance is an error (exit 1) naming the flag: it would fail exact zero defects and pass zero bounds."""
    save_family(tmp_path / "A.json", ball_partition_example(3, 2, 1.5))
    argv = [str(tmp_path / "A.json") if x == "A" else x for x in _RUNNABLE[command]]
    tail = [f"{option}{value[0]}"] if value[0].startswith("=") else [option, *value]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, *tail])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    number = value[0].lstrip("=")
    assert out.err.splitlines()[-1] == (
        f"gfusion {command}: error: argument {option}: expected a finite number >= 0, got '{number}'"
    )


def test_numeric_flags_are_found():
    found = {(command, option) for command, option, _ in _numeric_options()}
    assert {("bounds", "--weights"), ("multiplier", "--m-const"), ("perturb", "--simple"),
            ("perturb", "--eps"), ("resolution", "--tol-res")} <= found
    assert len(found) == 6 * 3 + 3 + 1 + 4  # three tolerances each, --weights thrice, --m-const, perturb's four


@pytest.mark.parametrize("weights", [["1", "2", "3"], ["3", "2", "1"]])
def test_builtin_weights_out_of_range_name_the_flag(capsys, weights):
    code, rep, err = run_cli(capsys, "bounds", "--builtin", "paper-example", "--weights", *weights)
    assert code == 1 and rep is None
    assert err.splitlines() == [
        f"gfusion: error: --weights: cell masses must satisfy mu1 >= mu2 >= mu3 > 1, "
        f"got ({float(weights[0])}, {float(weights[1])}, {float(weights[2])})"
    ]


@pytest.mark.parametrize("argv, message", [
    (["bounds", "F", "--builtin", "paper-example"], "give either a file or --builtin, not both"),
    (["bounds"], "no input: give a family document or --builtin"),
    (["perturb", "F", "F", "--simple", "0.1", "--lambda1", "0.1"],
     "--simple cannot be combined with --lambda1/--lambda2/--eps"),
])
def test_conflicting_inputs_are_one_error_line(capsys, tmp_path, argv, message):
    save_family(tmp_path / "F.json", ball_partition_example(3, 2, 1.5))
    argv = [str(tmp_path / "F.json") if x == "F" else x for x in argv]
    code, rep, err = run_cli(capsys, *argv)
    assert code == 1 and rep is None
    assert err.splitlines() == [f"gfusion: error: {message}"]


@pytest.mark.parametrize("content, message", [
    (None, "Is a directory"),
    (b"\xff\xfe{}", "not UTF-8 text"),
    (b"{", "not valid JSON"),
])
def test_unreadable_input_is_one_error_line(capsys, tmp_path, content, message):
    path = tmp_path / "doc.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, rep, err = run_cli(capsys, "bounds", str(path))
    assert code == 1 and rep is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gfusion: error: ")
    assert message in lines[0] and str(path) in lines[0]


def test_a_deeply_nested_document_is_one_error_line(capsys, tmp_path):
    """JSON nested past the parser's recursion limit is a document error naming the path, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, rep, err = run_cli(capsys, "bounds", str(path))
    assert code == 1 and rep is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"gfusion: error: {path}: nested too deeply to parse (")


def test_unwritable_out_path_is_one_error_line(capsys, tmp_path):
    code, rep, err = run_cli(capsys, "dual", "--builtin", "paper-example", "--out", str(tmp_path))
    assert code == 1 and rep is None
    assert err.splitlines() == [f"gfusion: error: [Errno 21] Is a directory: '{tmp_path}'"]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["perturb", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# ------------------------------------------------------------------ call counts

def _counted(fn):
    """A wrapper of ``fn`` and the list it appends to on every call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    return wrapper, calls


def _spy_everywhere(monkeypatch, fn):
    """Count calls of ``fn`` through every gfusion namespace that holds it, as perfbench/spans.py wraps it."""
    counted, calls = _counted(fn)
    for name, module in list(sys.modules.items()):
        if name == "gfusion" or name.startswith("gfusion."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


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
    frame_calls = _spy_everywhere(monkeypatch, frame_operator)
    counted_init, pair_calls = _counted(BesselPair.__post_init__)
    monkeypatch.setattr(BesselPair, "__post_init__", counted_init)
    code, rep, _ = run_cli(capsys, *argv)
    assert code == 0, rep
    assert len(frame_calls) == frame_operators
    assert len(pair_calls) == pairs


def test_multiplier_is_assembled_once(capsys, monkeypatch, tmp_path):
    """The printed norm and the frame criterion read the same multiplier matrix."""
    pa, pb = _pair_files(tmp_path)
    calls = _spy_everywhere(monkeypatch, multiplier)
    code, rep, _ = run_cli(capsys, "multiplier", pa, pb, "--m-const", "1.0")
    assert code == 0 and rep["norm_bound_ok"]
    assert len(calls) == 1


def test_cli_decides_no_verdict():
    """cli.py prints each report's own ``verdict``: no verdict string outside the exit-code table, no threshold."""
    src = (Path(__file__).resolve().parent.parent / "src" / "gfusion" / "cli.py").read_text()
    table = re.search(r"^_EXIT_BY_VERDICT = \{\n.*?^\}\n", src, re.M | re.S)
    assert table is not None
    rest = src[:table.start()] + src[table.end():]
    assert re.findall(r"""["'](pass|fail|inapplicable|hypothesis-not-met)["']""", rest) == []
    imported = {
        alias.name
        for node in ast.walk(ast.parse(src)) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported.isdisjoint({"TOL_SLACK", "TOL_SWAP", "TOL_FACT", "adjoint", "_pair_operator"})


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
