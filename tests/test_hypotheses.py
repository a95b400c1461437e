"""Each shared hypothesis is decided by one function, with one message and one error class.

Atom alignment is :func:`gfusion.family._require_aligned`, a real quadratic
form :func:`gfusion.family._require_real`, commutation
:func:`gfusion.analysis._commutation_failure`.  These tests read the source
to keep the copies out, and check that every caller raises the same error.
"""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from gfusion import (
    BesselPair,
    DimensionError,
    HypothesisError,
    PairingError,
    PerturbationParams,
    cross_duality_check,
    frame_operator,
    herm_defect,
    perturb_check,
    resolution_implies_frame,
    transform_family,
)
from helpers import diag_family, generic_family

ANALYSIS = importlib.import_module("gfusion.analysis")  # the package attribute is the analysis map
SRC = Path(__file__).resolve().parent.parent / "src" / "gfusion"


def _owners(predicate) -> set[str]:
    """``module.function`` (or ``module.NAME`` for a module-level assignment) of every node matching ``predicate``."""
    owners = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner.split('.')[0]}.{node.name}"
        elif isinstance(node, ast.Assign) and owner.count(".") == 0:
            owner = f"{owner}.{node.targets[0].id}"
        if predicate(node):
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return owners


def _constant(value):
    return lambda node: isinstance(node, ast.Constant) and node.value == value


def test_each_hypothesis_is_decided_in_one_function():
    def compares_tol_comm(node):
        return (isinstance(node, ast.Compare) or _is_call(node, "_defect_beyond")) and any(
            isinstance(n, ast.Name) and n.id == "TOL_COMM" for n in ast.walk(node)
        )

    assert _owners(compares_tol_comm) == {"analysis._commutation_failure"}
    assert _owners(_constant("not-bessel-diagnostic")) == {
        "analysis._bounds_of", "family._require_real", "cli._EXIT_BY_VERDICT",
    }
    for message in ("families live in different dimensions", "families have different atom counts"):
        assert _owners(_constant(message)) == {"family._require_aligned"}


def test_no_signature_takes_tol_comm():
    def takes_tol_comm(node):
        return isinstance(node, ast.arg) and node.arg == "tol_comm"

    assert _owners(takes_tol_comm) == set()


def _functions():
    """``module.function`` and the AST of every function in the package (methods by their own name)."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node


def _function(name: str) -> ast.FunctionDef:
    return next(node for owner, node in _functions() if owner == name)


def _is_call(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _calls(node, name: str) -> bool:
    return any(_is_call(n, name) for n in ast.walk(node))


def test_one_path_per_quantity():
    """The multiplier is the pair-operator core; no inner product bypasses the Gram loop; one dominator test."""
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(n, loops) for n in ast.walk(_function("pairs.multiplier")))
    assert _calls(_function("pairs.multiplier"), "_pair_operator")
    assert _owners(lambda n: isinstance(n, ast.Attribute) and n.attr == "vdot") == set()
    fraction_tests = [
        n for n in ast.walk(_function("perturbation.perturb_check")) if isinstance(n, ast.Compare)
        and any(isinstance(a, ast.Attribute) and a.attr in ("lambda1", "lambda2") for a in (n.left, *n.comparators))
    ]
    assert fraction_tests == []


def test_compare_only_defects_go_through_defect_beyond():
    """Every test of a relative defect against a tolerance calls ``_defect_beyond``; exact SVD defects are printed ones.

    ``_relative_defect`` runs only as the fallback of ``_defect_beyond``, in ``herm_defect`` (printed by
    ``spectral_summary``) and for the printed factorization residual of ``pair_sum_positivity``.  The one other
    comparison against ``TOL_SAME`` is the scalar weight test of ``_require_same_weights``.
    """
    def tol_argument(*names):
        return lambda n: _is_call(n, "_defect_beyond") and getattr(n.args[1], "id", None) in names

    assert _owners(lambda n: _is_call(n, "_defect_beyond")) == {
        "linalg.__post_init__", "linalg._hermitian_spectrum", "linalg.operator_sqrt",
        "family._require_same_operator", "analysis._commutation_failure",
    }
    assert _owners(tol_argument("TOL_SAME", "TOL_ORTH")) == {"family._require_same_operator", "linalg.__post_init__"}
    assert _owners(lambda n: isinstance(n, ast.Compare) and any(
        isinstance(a, ast.Name) and a.id in ("TOL_SAME", "TOL_ORTH") for a in ast.walk(n)
    )) == {"family._require_same_weights"}
    assert _owners(lambda n: _is_call(n, "_relative_defect")) == {
        "linalg._defect_beyond", "linalg.herm_defect", "pairs.pair_sum_positivity",
    }
    assert _owners(lambda n: _is_call(n, "herm_defect")) == {"linalg.spectral_summary"}


def test_one_rank_rule():
    """Every singular-value decision reads ``TOL_SING_REL`` through ``linalg._rank``; no absolute drop rule is left.

    ``pair_bounded_below`` reports a numerically singular pair operator before ``_inverse`` could raise on it,
    and a repeated control is recognized in one function.
    """
    assert _owners(lambda n: isinstance(n, ast.Name) and n.id == "TOL_SING_REL" and isinstance(n.ctx, ast.Load)) == {
        "linalg._rank",
    }
    gone = ("DROP_TOL", "overflowing_column")
    assert [p.name for p in sorted(SRC.glob("*.py")) if any(name in p.read_text() for name in gone)] == []
    body = _function("pairs.pair_bounded_below")
    first_line = {name: min(n.lineno for n in ast.walk(body) if _is_call(n, name)) for name in ("_singular", "_inverse")}
    assert first_line["_singular"] < first_line["_inverse"]
    assert _owners(lambda n: isinstance(n, ast.Attribute) and n.attr == "array_equal") == {"family._distinct_controls"}


# ------------------------------------------------------------- one error per hypothesis

_PAIRED = {
    "BesselPair": BesselPair,
    "perturb_check": lambda a, b: perturb_check(a, b, PerturbationParams(0.1, 0.0, 0.0)),
    "cross_duality_check": cross_duality_check,
}


@pytest.mark.parametrize("other, message", [
    (lambda: diag_family(1, n=3, n_atoms=5, equal_controls=True), "families live in different dimensions"),
    (lambda: diag_family(1, n=4, n_atoms=6, equal_controls=True), "families have different atom counts"),
], ids=["dimension", "atom-count"])
def test_every_paired_caller_raises_one_alignment_error(other, message):
    first, second = diag_family(0, n=4, n_atoms=5, equal_controls=True), other()
    texts = set()
    for call in _PAIRED.values():
        with pytest.raises(PairingError) as info:
            call(first, second)
        texts.add(str(info.value))
    assert texts == {message}


_REAL_FORM_CALLERS = {
    "BesselPair": lambda f: BesselPair(f, f),
    "cross_duality_check": lambda f: cross_duality_check(f, f),
    "resolution_implies_frame": lambda f: resolution_implies_frame(f, np.eye(f.dim)),
}


@pytest.mark.parametrize("name", sorted(_REAL_FORM_CALLERS))
def test_every_real_form_caller_raises_hypothesis_error(monkeypatch, name):
    """With the bounds verdict's Hermiticity test at zero, the rounding asymmetry of ``S`` makes a form non-real."""
    fam = generic_family(0)
    assert herm_defect(frame_operator(fam)) > 0
    bounds_of = ANALYSIS._bounds_of
    monkeypatch.setattr(ANALYSIS, "_bounds_of", lambda s, tol_frame, tol_herm: bounds_of(s, tol_frame, 0.0))
    with pytest.raises(HypothesisError, match="has a non-real quadratic form"):
        _REAL_FORM_CALLERS[name](fam)


# ------------------------------------------------------- operator arguments come first

_OPERATOR_CALLERS = {
    "transform_family": transform_family,
    "resolution_implies_frame": resolution_implies_frame,
}


@pytest.mark.parametrize("bad, error, message", [
    (np.full((3, 3), math.nan), ValueError, "matrix entries must be finite"),
    (np.diag([1.0, math.inf, 1.0]), ValueError, "matrix entries must be finite"),
    (np.eye(4), DimensionError, r"\(4, 4\)|different dimensions"),
], ids=["nan", "inf", "wrong-shape"])
@pytest.mark.parametrize("name", sorted(_OPERATOR_CALLERS))
def test_a_bad_operator_argument_is_refused_before_any_decomposition(name, bad, error, message):
    """A non-finite or mis-shaped operator is named as such, before any hypothesis runs a decomposition on it."""
    fam = diag_family(0, n=3, equal_controls=True)
    with pytest.raises(error, match=message):
        _OPERATOR_CALLERS[name](fam, bad)
