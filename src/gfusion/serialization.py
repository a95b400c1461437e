"""Reading and writing family documents.

A family document is a JSON tree::

    {
      "dim": 3,
      "controls": {"T": <matrix>, "U": <matrix>},
      "atoms": [
        {"id": "B1", "weight": 3.0, "v": 1.0,
         "subspace": [<vector>, ...], "lambda": <matrix>}
      ],
      "m": [<number>, ...]          # optional multiplier symbol
    }

Complex entries are two-element arrays ``[re, im]``; an entry whose
imaginary part is zero (of either sign) is written as its plain real part,
and loads with imaginary part +0.0.  Emission uses the shortest decimal that
round-trips the double, so ``parse(emit(family))`` reproduces every other
stored value bit for bit.  Documents (and CLI reports) are written as one
line of sorted-key JSON, so repeated runs give byte-identical text; any JSON
layout is accepted on input.  Unknown keys, repeated atom ids and
non-finite entries are rejected, with the path of the offending value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionError, FamilyDocumentError
from .family import ControlledFamily, MeasureAtom, MultiplierSymbol
from .linalg import Subspace, orthonormal_columns

__all__ = [
    "canonical_json",
    "document_to_family",
    "family_to_document",
    "load_family",
    "save_family",
]


_NUMBER = {int, float}  # exact types, so a boolean (a subclass of int) is no number


def _parse_scalar(value, where: str) -> complex:
    try:
        if type(value) in _NUMBER:
            return complex(value, 0.0)
        if type(value) is list and len(value) == 2 and type(value[0]) in _NUMBER and type(value[1]) in _NUMBER:
            return complex(value[0], value[1])
    except OverflowError:  # an integer beyond the double range
        raise FamilyDocumentError(f"{where}: number is too large for a double") from None
    if isinstance(value, bool):
        raise FamilyDocumentError(f"{where}: expected a number, got a boolean")
    raise FamilyDocumentError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _parse_matrix(value, where: str, rows: str = "rows", width: int | None = None) -> np.ndarray:
    """Rows of scalars as one finite complex matrix; every row has length ``width``
    (default: the length of the first row)."""
    if type(value) is not list or not value:
        raise FamilyDocumentError(f"{where}: expected a nonempty array of {rows}")
    re, im = [], []
    for r, row in enumerate(value):
        if type(row) is not list or not row:
            raise FamilyDocumentError(f"{where}[{r}]: expected a nonempty array")
        for c, x in enumerate(row):
            t = type(x)
            if t is float or t is int:
                re.append(x)
                im.append(0.0)
            elif t is list and len(x) == 2 and type(x[0]) in _NUMBER and type(x[1]) in _NUMBER:
                re.append(x[0])
                im.append(x[1])
            else:
                _parse_scalar(x, f"{where}[{r}][{c}]")  # raises, naming the entry
    expected = len(value[0]) if width is None else width
    if any(len(row) != expected for row in value):
        raise FamilyDocumentError(
            f"{where}: {rows} have inconsistent lengths" if width is None
            else f"{where}: {rows} must have length {width}"
        )
    m = np.empty(len(re), dtype=np.complex128)
    try:
        m.real = re
        m.imag = im
    except OverflowError:  # an integer beyond the double range: name the first one
        for r, row in enumerate(value):
            for c, x in enumerate(row):
                _parse_scalar(x, f"{where}[{r}][{c}]")
        raise
    if not np.isfinite(m).all():
        raise FamilyDocumentError(f"{where}: entries must be finite")
    return m.reshape(len(value), expected)


def _emit_matrix(m: np.ndarray) -> list:
    """Rows of shortest round-trip floats; an entry with imaginary part 0.0 is written plain."""
    m = np.asarray(m)
    return [
        [x if y == 0.0 else [x, y] for x, y in zip(row_re, row_im)]
        for row_re, row_im in zip(m.real.tolist(), m.imag.tolist())
    ]


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise FamilyDocumentError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_subspace(value, dim: int, where: str) -> Subspace:
    cols = _parse_matrix(value, where, rows="basis vectors", width=dim).T
    with np.errstate(over="ignore"):  # orthonormalizing squares each norm
        if not np.isfinite((np.abs(cols) ** 2).sum(axis=0)).all():
            raise FamilyDocumentError(f"{where}: a squared vector norm is too large for a double")
    try:
        return Subspace(cols)  # already orthonormal: keep the stored values
    except DimensionError:
        return Subspace(orthonormal_columns(cols))


def document_to_family(doc: dict) -> tuple[ControlledFamily, MultiplierSymbol | None]:
    """Build a family (and optional symbol) from a parsed JSON tree.

    Structural checks only; run :func:`gfusion.family.validate` afterwards
    for the semantic invariants.
    """
    if not isinstance(doc, dict):
        raise FamilyDocumentError("document root must be an object")
    _reject_unknown(doc, {"dim", "controls", "atoms", "m"}, "document")
    try:
        dim = doc["dim"]
        controls = doc["controls"]
        atoms_doc = doc["atoms"]
    except KeyError as exc:
        raise FamilyDocumentError(f"document: missing key {exc.args[0]!r}") from None
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FamilyDocumentError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(controls, dict):
        raise FamilyDocumentError("controls must be an object")
    _reject_unknown(controls, {"T", "U"}, "controls")
    if "T" not in controls or "U" not in controls:
        raise FamilyDocumentError("controls must provide both 'T' and 'U'")
    control_left = _parse_matrix(controls["T"], "controls.T")
    control_right = _parse_matrix(controls["U"], "controls.U")
    if not isinstance(atoms_doc, list) or not atoms_doc:
        raise FamilyDocumentError("atoms must be a nonempty array")
    atoms = []
    first_index: dict[str, int] = {}
    for i, atom_doc in enumerate(atoms_doc):
        where = f"atoms[{i}]"
        if not isinstance(atom_doc, dict):
            raise FamilyDocumentError(f"{where}: expected an object")
        _reject_unknown(atom_doc, {"id", "weight", "v", "subspace", "lambda"}, where)
        for key in ("id", "weight", "v", "subspace", "lambda"):
            if key not in atom_doc:
                raise FamilyDocumentError(f"{where}: missing key {key!r}")
        if not isinstance(atom_doc["id"], str):
            raise FamilyDocumentError(f"{where}: id must be a string")
        first = first_index.setdefault(atom_doc["id"], i)
        if first != i:
            raise FamilyDocumentError(f"{where}: duplicate id {atom_doc['id']!r} (first at atoms[{first}])")
        weight = _parse_scalar(atom_doc["weight"], f"{where}.weight")
        v = _parse_scalar(atom_doc["v"], f"{where}.v")
        if weight.imag != 0.0 or v.imag != 0.0:
            raise FamilyDocumentError(f"{where}: weights must be real")
        try:
            atoms.append(
                MeasureAtom(
                    id=atom_doc["id"],
                    weight=weight.real,
                    frame_weight=v.real,
                    subspace=_parse_subspace(atom_doc["subspace"], dim, f"{where}.subspace"),
                    local_op=_parse_matrix(atom_doc["lambda"], f"{where}.lambda"),
                )
            )
        except (ValueError, DimensionError) as exc:
            raise FamilyDocumentError(f"{where}: {exc}") from exc
    try:
        family = ControlledFamily(dim, tuple(atoms), control_left, control_right)
    except (ValueError, DimensionError) as exc:
        raise FamilyDocumentError(str(exc)) from exc
    symbol = None
    if "m" in doc:
        values = doc["m"]
        if not isinstance(values, list) or len(values) != len(atoms):
            raise FamilyDocumentError("m must be an array with one value per atom")
        symbol = MultiplierSymbol(
            tuple(_parse_scalar(x, f"m[{i}]") for i, x in enumerate(values))
        )
    return family, symbol


def family_to_document(family: ControlledFamily, m: MultiplierSymbol | None = None) -> dict:
    """Serialize a family (and optional symbol) to a JSON-compatible tree."""
    doc = {
        "dim": int(family.dim),
        "controls": {
            "T": _emit_matrix(family.control_left),
            "U": _emit_matrix(family.control_right),
        },
        "atoms": [
            {
                "id": atom.id,
                "weight": float(atom.weight),
                "v": float(atom.frame_weight),
                "subspace": _emit_matrix(atom.subspace.basis.T),
                "lambda": _emit_matrix(atom.local_op),
            }
            for atom in family.atoms
        ],
    }
    if m is not None:
        doc["m"] = _emit_matrix([m.values])[0]
    return doc


def canonical_json(obj) -> str:
    """Deterministic JSON text: one line of sorted-key JSON, shortest round-trip
    floats and a trailing newline (without ``indent``, json runs its C encoder)."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def load_family(path) -> tuple[ControlledFamily, MultiplierSymbol | None]:
    """Parse a family document from a file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyDocumentError(f"{path}: not valid JSON ({exc})") from exc
    return document_to_family(doc)


def _write_document(path, doc: dict) -> None:
    Path(path).write_text(canonical_json(doc))


def save_family(path, family: ControlledFamily, m: MultiplierSymbol | None = None) -> None:
    """Write a family document to a file, in canonical form."""
    _write_document(path, family_to_document(family, m))
