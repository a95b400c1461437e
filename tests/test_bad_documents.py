"""A bad family document ends in one error line that names its entry or atom.

Each example breaks one part of the ``paper-example`` document (bounds 1
and 4) and runs ``bounds`` and ``perturb`` on it in-process, with every
warning turned into an error: a traceback, a numpy warning, a verdict or a
second line on stderr fails the example.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import ball_partition_example, family_to_document
from gfusion.cli import main

BASE = family_to_document(ball_partition_example(3, 2, 1.5))  # atom i spans e_i
N = BASE["dim"]
ATOMS = range(len(BASE["atoms"]))
CONTROL_NAMES = {"T": "left control", "U": "right control"}


def _matrix_name(path) -> str:
    return f"controls.{path[1]}" if path[0] == "controls" else f"atoms[{path[1]}].{path[2]}"


def _entry_name(path) -> str:
    if path[0] == "controls":
        return f"controls.{path[1]}[{path[2]}][{path[3]}]"
    return f"atoms[{path[1]}].{path[2]}" + "".join(f"[{k}]" for k in path[3:])


_control_entries = st.tuples(st.just("controls"), st.sampled_from("TU"), st.integers(0, N - 1), st.integers(0, N - 1))
_lambda_entries = st.tuples(st.just("atoms"), st.sampled_from(ATOMS), st.just("lambda"), st.integers(0, N - 1),
                            st.integers(0, N - 1))
_subspace_entries = st.tuples(st.just("atoms"), st.sampled_from(ATOMS), st.just("subspace"), st.just(0),
                              st.integers(0, N - 1))
_scalars = st.tuples(st.just("atoms"), st.sampled_from(ATOMS), st.sampled_from(["weight", "v"]))
_matrix_entries = _control_entries | _lambda_entries | _subspace_entries


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@st.composite
def _non_finite(draw):
    path = draw(_matrix_entries | _scalars)
    value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    named = f"atoms[{path[1]}]: atom 'B{path[1] + 1}'" if len(path) == 3 else f"{_matrix_name(path)}: entries must be finite"
    return path, value, named


@st.composite
def _huge_int(draw):
    path = draw(_matrix_entries | _scalars)
    return path, 10**400, f"{_entry_name(path)}: number is too large for a double"


@st.composite
def _huge_float(draw):
    """A finite entry that makes the family invalid.  A huge ``weight``, or a ``lambda``
    entry off the atom's subspace, leaves a valid family and is not drawn."""
    value = draw(st.sampled_from([1e200, 1e308]))
    i = draw(st.sampled_from(ATOMS))
    kind = draw(st.sampled_from(["lambda", "v", "subspace", "control"]))
    if kind == "lambda":  # its square overflows the frame operator term
        return ("atoms", i, "lambda", draw(st.integers(0, N - 1)), i), value, f"'B{i + 1}'"
    if kind == "v":  # v**2 overflows
        return ("atoms", i, "v"), value, f"'B{i + 1}'"
    if kind == "subspace":  # the squared norm of the spanning vector overflows
        path = draw(_subspace_entries)
        return path, value, f"{_matrix_name(path)}: a squared vector norm is too large for a double"
    path = draw(_control_entries)  # not Hermitian, or numerically singular
    return path, value, CONTROL_NAMES[path[1]]


def _apply(mutation):
    path, value, named = mutation
    doc = copy.deepcopy(BASE)
    _set(doc, path, value)
    return doc, named


@st.composite
def _row_length(draw):
    path = draw(_control_entries | _lambda_entries | _subspace_entries)
    doc = copy.deepcopy(BASE)
    node = doc
    for key in path[:-2]:
        node = node[key]
    row = node[path[-2]]
    if draw(st.booleans()):
        row.append(0.0)
    else:
        row.pop()
    return doc, _matrix_name(path)


@st.composite
def _duplicate_id(draw):
    j = draw(st.sampled_from(ATOMS[1:]))
    i = draw(st.integers(0, j - 1))
    doc = copy.deepcopy(BASE)
    doc["atoms"][j]["id"] = doc["atoms"][i]["id"]
    return doc, f"atoms[{j}]: duplicate id 'B{i + 1}' (first at atoms[{i}])"


_documents = (
    (_non_finite() | _huge_int() | _huge_float()).map(_apply) | _row_length() | _duplicate_id()
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(x) for x in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_documents)
def test_a_bad_document_is_one_error_line_naming_its_entry(mutated):
    doc, named = mutated
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp) / "P.json", Path(tmp) / "M.json"
        good.write_text(json.dumps(BASE))
        bad.write_text(json.dumps(doc))  # non-finite values as the NaN/Infinity literals json.loads accepts
        for argv in (
            ["bounds", bad],
            ["perturb", good, bad, "--simple", "0.1"],
            ["perturb", good, bad, "--lambda1", "0.1", "--lambda2", "0", "--eps", "0"],
            ["perturb", bad, good, "--simple", "0.1"],
        ):
            code, out, err = _run(argv)
            lines = err.splitlines()
            assert (code, out) == (1, ""), (argv, out)
            assert len(lines) == 1 and lines[0].startswith("gfusion: error: ") and named in lines[0], (argv, err)
