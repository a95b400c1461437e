"""Each family is validated once per command, under the tolerances the caller gave.

The CLI prints ``tol_herm``, ``tol_frame`` and ``tol_res`` in every report;
these tests check that the computation used exactly those values, that
each family is validated once per command, that loosening a tolerance
never turns an affirmative verdict into an error or a negative one, and
that no public entry point lost its validation on the way.
"""

import contextlib
import importlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfusion
from gfusion import (
    BesselPair,
    GFusionError,
    PerturbationParams,
    ValidationError,
    analysis,
    ball_partition_example,
    canonical_dual,
    canonical_resolutions,
    controlled_plain_equivalence,
    cross_duality_check,
    dual_resolution_bounds,
    frame_operator,
    optimal_bounds,
    perturb_check,
    perturb_check_simple,
    recontrol_balanced,
    recontrol_product,
    replace_controls,
    resolution_implies_frame,
    save_family,
    synthesis_matrix,
    transform_family,
)
from gfusion.analysis import _canonical_dual
from gfusion.cli import main
from gfusion.tolerances import TOL_FRAME
from helpers import diag_family, generic_family, scale_local_ops

FAMILY = importlib.import_module("gfusion.family")
ANALYSIS = importlib.import_module("gfusion.analysis")  # the package attribute is the analysis map


def run_cli(capsys, *argv):
    code = main([str(x) for x in argv])
    out = capsys.readouterr()
    return code, json.loads(out.out) if out.out else None, out.err


def _spy(monkeypatch, module, name):
    """Replace ``module.name`` in every gfusion namespace holding it; return the list of bound arguments."""
    original = getattr(module, name)
    signature = inspect.signature(original)
    calls = []

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        result = original(*args, **kwargs)
        calls.append((bound.arguments, result))
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gfusion" or mod_name.startswith("gfusion."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


# ------------------------------------------------------------- validation counts

@pytest.fixture()
def mix_files(tmp_path):
    fam = diag_family(0, equal_controls=True)
    files = {"A": fam, "D": canonical_dual(fam), "P": scale_local_ops(fam, np.sqrt(1.1))}
    for role, family in files.items():
        save_family(tmp_path / f"{role}.json", family)
    return {role: tmp_path / f"{role}.json" for role in files} | {"OUT": tmp_path / "out.json"}


_COMMANDS = [
    (["bounds", "A"], 1),
    (["dual", "A", "--out", "OUT"], 2),
    (["pair", "A", "D", "operator"], 2),
    (["pair", "A", "D", "bounded-below"], 2),
    (["pair", "A", "A", "positivity"], 2),
    (["multiplier", "A", "D", "--m-const", "1.0"], 2),
    (["perturb", "A", "P", "--lambda1", "0.2", "--lambda2", "0", "--eps", "0"], 2),
    (["perturb", "A", "A", "--simple", "1e-3"], 2),
    (["resolution", "A", "canonical-left"], 1),
    (["resolution", "A", "canonical-right"], 1),
    (["resolution", "A", "dual-bounds"], 1),
]


@pytest.mark.parametrize("argv, validations", _COMMANDS)
def test_each_family_is_validated_once_per_command(capsys, monkeypatch, mix_files, argv, validations):
    calls = _spy(monkeypatch, FAMILY, "validate")
    code, rep, _ = run_cli(capsys, *[mix_files.get(x, x) for x in argv])
    assert code == 0, rep
    assert len(calls) == validations


@pytest.mark.parametrize("argv", [argv for argv, _ in _COMMANDS])
def test_every_check_receives_the_printed_tolerances(capsys, monkeypatch, mix_files, argv):
    validations = _spy(monkeypatch, FAMILY, "validate")
    verdicts = _spy(monkeypatch, ANALYSIS, "_bounds_of")
    flags = ["--tol-herm", "3e-8", "--tol-frame", "2e-10", "--tol-res", "4e-8"]
    code, rep, _ = run_cli(capsys, *[mix_files.get(x, x) for x in argv], *flags)
    assert code == 0, rep
    printed = rep["tolerances"]
    assert (printed["tol_herm"], printed["tol_frame"], printed["tol_res"]) == (3e-8, 2e-10, 4e-8)
    assert validations and all(args["tol_herm"] == 3e-8 for args, _ in validations)
    assert verdicts and all((args["tol_frame"], args["tol_herm"]) == (2e-10, 3e-8) for args, _ in verdicts)


def test_library_entry_points_validate_each_family_once(monkeypatch):
    fam = diag_family(0, equal_controls=True)
    dual = canonical_dual(fam)
    calls = _spy(monkeypatch, FAMILY, "validate")
    for call, expected in [
        (lambda: canonical_dual(fam), 1),
        (lambda: BesselPair(fam, dual), 2),
        (lambda: cross_duality_check(fam, dual), 2),
        (lambda: controlled_plain_equivalence(diag_family(1)), 1),
    ]:
        calls.clear()
        call()
        assert len(calls) == expected


# ------------------------------------------------------------ printed flags are used

@pytest.fixture()
def skewed_file(tmp_path):
    """The builtin family with 1e-6 added to entry [0, 1] of the left control."""
    fam = ball_partition_example(4, 3, 2)
    left = np.array(fam.control_left)
    left[0, 1] += 1e-6
    path = tmp_path / "F.json"
    save_family(path, replace_controls(fam, left, fam.control_right))
    return path


@pytest.mark.parametrize("argv", [
    ["bounds", "F"],
    ["dual", "F"],
    ["pair", "F", "F", "operator"],
    ["multiplier", "F", "F", "--m-const", "1.0"],
    ["perturb", "F", "F", "--simple", "1e-6"],
    ["resolution", "F", "canonical-right"],
])
def test_tol_herm_flag_governs_validation(capsys, monkeypatch, skewed_file, argv):
    calls = _spy(monkeypatch, FAMILY, "validate")
    code, rep, err = run_cli(capsys, *[skewed_file if x == "F" else x for x in argv], "--tol-herm", "1e-3")
    assert calls and all(diag.ok for _, diag in calls)
    assert "not positive" not in err
    if argv[0] == "bounds":
        assert code == 0 and rep["verdict"] == "frame"


@pytest.mark.parametrize("argv", [
    ["bounds", "P"],
    ["dual", "P"],
    ["perturb", "P", "P", "--simple", "1e-6"],
    ["resolution", "P", "canonical-right"],
    ["resolution", "P", "dual-bounds"],
])
def test_tol_frame_flag_governs_every_frame_verdict(capsys, tmp_path, argv):
    path = tmp_path / "P.json"
    save_family(path, ball_partition_example(3, 2, 1.5))  # bounds 1 and 4
    code, rep, err = run_cli(capsys, *[path if x == "P" else x for x in argv], "--tol-frame", "2")
    if argv[0] == "bounds":
        assert (code, rep["verdict"]) == (2, "bessel-only")
    else:
        assert code == 1 and rep is None
        assert "verdict" in err and "'bessel-only'" in err


# ------------------------------------------------------ no entry point lost its check

_ENTRY_POINTS = {
    "frame_operator": lambda f: frame_operator(f),
    "optimal_bounds": lambda f: optimal_bounds(f),
    "canonical_dual": lambda f: canonical_dual(f),
    "transform_family": lambda f: transform_family(f, np.eye(3)),
    "analysis": lambda f: analysis(f, np.ones(3)),
    "synthesis_matrix": lambda f: synthesis_matrix(f),
    "recontrol_product": lambda f: recontrol_product(f),
    "recontrol_balanced": lambda f: recontrol_balanced(f),
    "controlled_plain_equivalence": lambda f: controlled_plain_equivalence(f),
    "cross_duality_check": lambda f: cross_duality_check(f, f),
    "BesselPair": lambda f: BesselPair(f, f),
    "perturb_check": lambda f: perturb_check(f, f, PerturbationParams(0.1, 0.0, 0.0)),
    "perturb_check_simple": lambda f: perturb_check_simple(f, f, 0.1),
    "canonical_resolutions": lambda f: canonical_resolutions(f),
    "dual_resolution_bounds": lambda f: dual_resolution_bounds(f),
    "resolution_implies_frame": lambda f: resolution_implies_frame(f, np.eye(3)),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_every_entry_point_rejects_an_invalid_control_pair(name):
    invalid = replace_controls(ball_partition_example(3, 2, 1.5), -np.eye(3), np.eye(3))
    with pytest.raises(ValidationError):
        _ENTRY_POINTS[name](invalid)


_PAIR_ENTRY_POINTS = {
    "cross_duality_check": cross_duality_check,
    "BesselPair": BesselPair,
    "perturb_check": lambda a, b: perturb_check(a, b, PerturbationParams(0.1, 0.0, 0.0)),
    "perturb_check_simple": lambda a, b: perturb_check_simple(a, b, 0.1),
}


@pytest.mark.parametrize("invalid_first", [True, False])
@pytest.mark.parametrize("name", sorted(_PAIR_ENTRY_POINTS))
def test_an_invalid_partner_of_another_shape_is_named_invalid(name, invalid_first):
    """Validation comes before any pairing check, whichever side is invalid."""
    invalid = replace_controls(ball_partition_example(3, 2, 1.5), -np.eye(3), np.eye(3))
    valid = diag_family(0, n=4, n_atoms=5, equal_controls=True)
    pair = (invalid, valid) if invalid_first else (valid, invalid)
    with pytest.raises(ValidationError):
        _PAIR_ENTRY_POINTS[name](*pair)


# -------------------------------------------------------------------- monotonicity

def _family(kind: str, seed: int, skew: float):
    n = 3 + seed % 3
    if kind == "diagonal":
        fam = diag_family(seed, n=n, equal_controls=True)
    else:  # scalar controls commute with S^-1, so the canonical dual exists
        fam = generic_family(seed, n=n)
        fam = replace_controls(fam, 1.5 * np.eye(n), 1.5 * np.eye(n))
    control = np.array(fam.control_left)
    control[0, 1] += skew  # a slightly non-Hermitian control makes --tol-herm bite
    return replace_controls(fam, control, control)


_SUBCOMMANDS = [
    ["bounds", "A"],
    ["dual", "A"],
    ["pair", "A", "D", "operator"],
    ["pair", "A", "D", "bounded-below"],
    ["pair", "A", "A", "positivity"],
    ["multiplier", "A", "D", "--m-const", "1.0"],
    ["perturb", "A", "P", "--lambda1", "0.2", "--lambda2", "0", "--eps", "0"],
    ["perturb", "A", "P", "--simple", "0.5"],
    ["resolution", "A", "canonical-left"],
    ["resolution", "A", "canonical-right"],
    ["resolution", "A", "dual-bounds"],
]


def _flags(herm, frame, res):
    return ["--tol-herm", repr(herm), "--tol-frame", repr(frame), "--tol-res", repr(res)]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["diagonal", "dense"]),
    seed=st.integers(0, 30),
    skew=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    command=st.sampled_from(_SUBCOMMANDS),
    herm=st.sampled_from([1e-14, 1e-11, 1e-8, 1e-5, 1e-2]),
    frame=st.sampled_from([1e-10, 1e-3, 0.05, 0.3, 1.0, 3.0]),
    res=st.sampled_from([1e-15, 1e-13, 1e-11, 1e-8, 1e-4]),
    looser=st.tuples(st.sampled_from([1, 10, 1e4]), st.sampled_from([1, 0.1, 1e-4]), st.sampled_from([1, 10, 1e4])),
)
def test_loosening_a_tolerance_never_turns_a_pass_into_a_failure(kind, seed, skew, command, herm, frame, res, looser):
    fam = _family(kind, seed, skew)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"A": Path(tmp) / "A.json", "D": Path(tmp) / "D.json", "P": Path(tmp) / "P.json"}
        save_family(paths["A"], fam)
        save_family(paths["P"], scale_local_ops(fam, 1.05))
        try:
            save_family(paths["D"], _canonical_dual(fam, TOL_FRAME, 1e-2)[0])
        except GFusionError:  # no canonical dual: pair the family with its scaled copy instead
            save_family(paths["D"], scale_local_ops(fam, 1.05))
        argv = [str(paths.get(x, x)) for x in command]
        codes = []
        for flags in (_flags(herm, frame, res), _flags(herm * looser[0], frame * looser[1], res * looser[2])):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv + flags))
    if codes[0] == 0:
        assert codes[1] == 0, (command, codes)



# ------------------------------------------------------------ a tolerance is finite and >= 0

_TOLERANCE_KEYWORDS = {"tol", "tol_herm", "tol_frame", "tol_res"}


def _with_frame(call):
    return lambda **kw: call(diag_family(0, equal_controls=True), **kw)


_TOLERANCE_TAKERS = {
    "BesselPair": _with_frame(lambda f, **kw: BesselPair(f, f, **kw)),
    "canonical_resolutions": _with_frame(canonical_resolutions),
    "dual_resolution_bounds": _with_frame(dual_resolution_bounds),
    "frame_operator": _with_frame(frame_operator),
    "is_positive": lambda **kw: gfusion.is_positive(np.eye(2), **kw),
    "is_resolution": _with_frame(lambda f, **kw: gfusion.is_resolution(canonical_resolutions(f).left, **kw)),
    "operator_sqrt": lambda **kw: gfusion.operator_sqrt(np.eye(2), **kw),
    "optimal_bounds": _with_frame(optimal_bounds),
    "pair_bounded_below": _with_frame(lambda f, **kw: gfusion.pair_bounded_below(BesselPair(f, f), **kw)),
    "pair_sum_positivity": _with_frame(lambda f, **kw: gfusion.pair_sum_positivity(BesselPair(f, f), **kw)),
    "perturb_check": _with_frame(lambda f, **kw: perturb_check(f, f, PerturbationParams(0.1, 0.0, 0.0), **kw)),
    "require_valid": _with_frame(gfusion.require_valid),
    "validate": _with_frame(gfusion.validate),
}


def _public_tolerance_keywords() -> list[tuple[str, str]]:
    """``(name, keyword)`` for every tolerance keyword of a public function or class of the package (reports aside)."""
    found = []
    for name, obj in sorted(vars(gfusion).items()):
        if name.startswith("_") or not callable(obj) or not getattr(obj, "__module__", "").startswith("gfusion"):
            continue
        if isinstance(obj, type) and (issubclass(obj, Exception) or name.endswith("Report")):
            continue  # a report records the tolerance it was decided under
        found += [(name, p) for p in inspect.signature(obj).parameters if p in _TOLERANCE_KEYWORDS]
    return found


def test_every_public_tolerance_keyword_is_covered():
    assert {name for name, _ in _public_tolerance_keywords()} == set(_TOLERANCE_TAKERS)


@pytest.mark.parametrize("value", [-1e-300, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name, keyword", _public_tolerance_keywords())
def test_every_public_tolerance_keyword_refuses_a_negative_or_non_finite_value(name, keyword, value):
    """A negative tolerance fails even an exact zero defect and lets ``tol_frame`` pass a zero bound."""
    call = _TOLERANCE_TAKERS[name]
    call(**{keyword: 0.0})
    with pytest.raises(ValueError, match=rf"^{keyword} must be a finite number >= 0, got {value!r}$"):
        call(**{keyword: value})
