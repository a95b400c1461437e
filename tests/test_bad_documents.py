"""A bad family document ends in one error line that names its entry or atom.

Each example breaks one part of the ``paper-example`` document (bounds 1
and 4), hand-written in decimal or as saved with binary matrices, and runs
``bounds`` and ``perturb`` on it in-process, with every warning turned into
an error: a traceback, a numpy warning, a verdict or a second line on stderr
fails the example.
"""

import base64
import contextlib
import copy
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import (
    FamilyDocumentError,
    MultiplierSymbol,
    ball_partition_example,
    document_to_family,
    family_to_document,
)
from gfusion.cli import main
from gfusion.tolerances import MAX_DIM
from helpers import c128le, decimal_document

BASE = decimal_document(ball_partition_example(3, 2, 1.5))  # atom i spans e_i; hand-written decimal
N = BASE["dim"]
ATOMS = range(len(BASE["atoms"]))
BINARY = family_to_document(ball_partition_example(3, 2, 1.5), MultiplierSymbol.constant(1.0, len(ATOMS)))
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
    """A finite entry that makes the family invalid.  A huge ``weight``, a ``lambda``
    entry off the atom's subspace, or a huge ``subspace`` entry (its vector is rescaled
    before it is orthonormalized) leaves a valid family and is not drawn."""
    value = draw(st.sampled_from([1e200, 1e308]))
    i = draw(st.sampled_from(ATOMS))
    kind = draw(st.sampled_from(["lambda", "v", "control"]))
    if kind == "lambda":  # its square overflows the frame operator term
        return ("atoms", i, "lambda", draw(st.integers(0, N - 1)), i), value, f"'B{i + 1}'"
    if kind == "v":  # v**2 overflows
        return ("atoms", i, "v"), value, f"'B{i + 1}'"
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


@st.composite
def _bad_binary(draw):
    """One broken matrix payload of the binary document; the error names the matrix."""
    path = draw(st.sampled_from([("controls", "T"), ("controls", "U"), ("m",)]
                                + [("atoms", i, key) for i in ATOMS for key in ("subspace", "lambda")]))
    doc = copy.deepcopy(BINARY)
    node = doc
    for key in path[:-1]:
        node = node[key]
    matrix = node[path[-1]]
    r, c = matrix["shape"]
    raw = base64.b64decode(matrix["c128le"])
    kind = draw(st.sampled_from(["character", "short", "shape", "key", "non-finite"]
                                + (["width"] if path[-1] == "subspace" else [])))
    if kind == "character":  # outside the standard base64 alphabet
        text = matrix["c128le"]
        k = draw(st.integers(0, len(text) - 1))
        matrix["c128le"] = text[:k] + draw(st.sampled_from("!*-_ .#\n")) + text[k + 1:]
    elif kind == "short":
        matrix["c128le"] = base64.b64encode(raw[:-1]).decode("ascii")
    elif kind == "shape":
        matrix["shape"] = draw(st.sampled_from([[0, c], [r], [True, c], [r, MAX_DIM + 1]]))
    elif kind == "key":
        matrix[draw(st.sampled_from(["dtype", "note", "Shape"]))] = draw(st.sampled_from([0, "c16", [r, c]]))
    elif kind == "non-finite":
        values = np.frombuffer(raw, dtype="<c16").copy()
        bad = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        values[draw(st.integers(0, values.size - 1))] += bad * draw(st.sampled_from([1, 1j]))
        matrix["c128le"] = c128le(values)
    else:  # a basis vector whose length is not dim
        width = draw(st.sampled_from([w for w in range(1, N + 2) if w != N]))
        matrix.update(shape=[r, width], c128le=c128le(np.ones(r * width)))
    name = "m" if path == ("m",) else _matrix_name(path)
    return doc, f"error: {name}: "


_documents = (
    (_non_finite() | _huge_int() | _huge_float()).map(_apply) | _row_length() | _duplicate_id() | _bad_binary()
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


@pytest.mark.parametrize("scale", [1e200, 1e308, 1e-300])
@pytest.mark.parametrize("i", ATOMS)
def test_a_scaled_subspace_vector_prints_the_same_bounds(i, scale):
    """Atom ``i`` spans ``e_i``; stored as ``scale * e_i`` it spans the same line, so ``bounds`` prints the same bytes."""
    doc = copy.deepcopy(BASE)
    doc["atoms"][i]["subspace"][0][i] = scale
    with tempfile.TemporaryDirectory() as tmp:
        good, scaled = Path(tmp) / "P.json", Path(tmp) / "S.json"
        good.write_text(json.dumps(BASE))
        scaled.write_text(json.dumps(doc))
        expected = _run(["bounds", good])
        assert expected[0] == 0 and '"verdict": "frame"' in expected[1]
        assert _run(["bounds", scaled]) == expected


def _edit(change):
    """A copy of ``BASE`` after ``change(doc)``, or ``change``'s return value when it returns one."""
    doc = copy.deepcopy(BASE)
    out = change(doc)
    return doc if out is None else out


def _without(mapping, key):
    del mapping[key]


_STRUCTURAL = [
    (lambda d: [d], "document root must be an object"),
    (lambda d: _without(d, "dim"), "document: missing key 'dim'"),
    (lambda d: d.update(dim=0), "dim must be a positive integer, got 0"),
    (lambda d: d.update(dim=True), "dim must be a positive integer, got True"),
    (lambda d: d.update(dim=3.0), "dim must be a positive integer, got 3.0"),
    (lambda d: d.update(controls=[]), "controls must be an object"),
    (lambda d: _without(d["controls"], "U"), "controls must provide both 'T' and 'U'"),
    (lambda d: d["controls"].update(T=[[1, 0], [0, 1]]), "control_left has shape (2, 2), expected (3, 3)"),
    (lambda d: d.update(atoms=[]), "atoms must be a nonempty array"),
    (lambda d: d.update(atoms={}), "atoms must be a nonempty array"),
    (lambda d: d["atoms"].__setitem__(1, []), "atoms[1]: expected an object"),
    (lambda d: _without(d["atoms"][2], "v"), "atoms[2]: missing key 'v'"),
    (lambda d: d["atoms"][0].update(id=1), "atoms[0]: id must be a string"),
    (lambda d: d["atoms"][0].update(weight=[3.0, 1.0]), "atoms[0]: weights must be real"),
    (lambda d: d["atoms"][1].update(v=[2.0, -0.5]), "atoms[1]: weights must be real"),
    (lambda d: d["atoms"][0].update(weight=-3.0), "atoms[0]: atom 'B1': weight must be positive, got -3.0"),
    (lambda d: d["atoms"][0].update(weight=True), "atoms[0].weight: expected a number, got a boolean"),
    (lambda d: d["atoms"][0].update(lam=1), "atoms[0]: unknown keys ['lam']"),
    (lambda d: d["controls"].update(V=1), "controls: unknown keys ['V']"),
    (lambda d: d["controls"].update(T=[]), "controls.T: expected a nonempty array of rows"),
    (lambda d: d["controls"]["T"].__setitem__(1, 5), "controls.T[1]: expected a nonempty array"),
    (lambda d: d["controls"]["T"][1].__setitem__(2, "x"), "controls.T[1][2]: expected a number or [re, im] pair, got 'x'"),
    (lambda d: d["controls"]["T"][1].append(0), "controls.T: rows have inconsistent lengths"),
    (lambda d: d["atoms"][0]["subspace"][0].append(0), "atoms[0].subspace: basis vectors must have length 3"),
    (lambda d: d.update(m=[1, 2]), "m must be an array with one value per atom"),
    (lambda d: d.update(m=[1, [2, 0], None]), "m[2]: expected a number or [re, im] pair, got None"),
]


@pytest.mark.parametrize("change, message", _STRUCTURAL, ids=[message for _, message in _STRUCTURAL])
def test_each_structural_fault_is_named(change, message):
    """``document_to_family`` refuses each fault with one message naming where it is."""
    with pytest.raises(FamilyDocumentError, match=f"^{re.escape(message)}$"):
        document_to_family(_edit(change))
