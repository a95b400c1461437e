"""Reading and writing family documents.

A family document is a JSON tree::

    {
      "dim": 3,
      "controls": {"T": <matrix>, "U": <matrix>},
      "atoms": [
        {"id": "B1", "weight": 3.0, "v": 1.0,
         "subspace": <matrix>, "lambda": <matrix>}
      ],
      "m": <matrix>                 # optional multiplier symbol, 1 x (number of atoms)
    }

``subspace`` holds the basis vectors as rows.  Every matrix is written as
one exact binary payload, ``{"shape": [r, c], "c128le": "<base64>"}``: the
standard base64 (RFC 4648) of the row-major little-endian complex128 bytes,
so ``parse(emit(family))`` reproduces every stored value bit for bit, signed
zeros included.  ``dim``, ``id``, ``weight`` and ``v`` stay plain JSON
numbers and strings.  Documents (and CLI reports) are written as one line of
sorted-key JSON, so repeated runs give byte-identical text.

On input each matrix may also be hand-written in decimal: rows of numbers,
complex entries as two-element arrays ``[re, im]`` (``m`` as a flat array of
such scalars); an entry written as a plain number loads with imaginary part
+0.0.  Any JSON layout is accepted.  Unknown keys, repeated atom ids, bad
payloads and non-finite entries are rejected, with the path of the offending
value.
"""

from __future__ import annotations

import base64
import cmath
import json
from pathlib import Path

import numpy as np

from .errors import DimensionError, FamilyDocumentError
from .family import ControlledFamily, MeasureAtom, MultiplierSymbol
from .linalg import Subspace
from .tolerances import MAX_DIM

__all__ = [
    "canonical_json",
    "document_to_family",
    "family_to_document",
    "load_family",
    "save_family",
]


_NUMBER = {int, float}  # exact types, so a boolean (a subclass of int) is no number
_BINARY_KEYS = {"shape", "c128le"}


def _parse_scalar(value, where: str, *index: int) -> complex:
    """A JSON number or ``[re, im]`` pair as a complex; an error names ``where``, then ``[i]`` per index."""
    try:
        if type(value) in _NUMBER:
            return complex(value, 0.0)
        if type(value) is list and len(value) == 2 and type(value[0]) in _NUMBER and type(value[1]) in _NUMBER:
            return complex(value[0], value[1])
        problem = "expected a number, got a boolean" if isinstance(value, bool) else (
            f"expected a number or [re, im] pair, got {value!r}")
    except OverflowError:  # an integer beyond the double range
        problem = "number is too large for a double"
    raise FamilyDocumentError(f"{where}{''.join(f'[{i}]' for i in index)}: {problem}")  # the path, built on error only


def _decode_matrix(value: dict, where: str, rows: str = "rows", width: int | None = None,
                   limit: int = MAX_DIM) -> np.ndarray:
    """A binary matrix ``{"shape": [r, c], "c128le": ...}``, checked before anything is decoded."""
    if value.keys() != _BINARY_KEYS:
        raise FamilyDocumentError(f"{where}: a binary matrix has exactly the keys 'c128le' and 'shape'")
    shape = value["shape"]
    if type(shape) is not list or len(shape) != 2 or not all(type(k) is int and 1 <= k <= limit for k in shape):
        raise FamilyDocumentError(f"{where}: shape must be two integers between 1 and {limit}, got {shape!r}")
    try:
        raw = base64.b64decode(value["c128le"], validate=True)
    except (TypeError, ValueError):  # not a string, not ASCII, or not base64
        raise FamilyDocumentError(f"{where}: c128le must be base64 text") from None
    r, c = shape
    if len(raw) != 16 * r * c:
        raise FamilyDocumentError(f"{where}: c128le holds {len(raw)} bytes, shape {shape} needs {16 * r * c}")
    m = np.frombuffer(raw, dtype="<c16").astype(np.complex128).reshape(r, c)
    if not np.isfinite(m).all():
        raise FamilyDocumentError(f"{where}: entries must be finite")
    if width is not None and c != width:
        raise FamilyDocumentError(f"{where}: {rows} must have length {width}")
    return m


def _parse_matrix(value, where: str, rows: str = "rows", width: int | None = None) -> np.ndarray:
    """One finite complex matrix: a binary payload, or decimal rows of scalars; every row
    has length ``width`` (default: the length of the first row)."""
    if type(value) is dict:
        return _decode_matrix(value, where, rows, width)
    if type(value) is not list or not value:
        raise FamilyDocumentError(f"{where}: expected a nonempty array of {rows}")
    entries = []
    for r, row in enumerate(value):
        if type(row) is not list or not row:
            raise FamilyDocumentError(f"{where}[{r}]: expected a nonempty array")
        entries += [_parse_scalar(x, where, r, c) for c, x in enumerate(row)]
    expected = len(value[0]) if width is None else width
    if any(len(row) != expected for row in value):
        raise FamilyDocumentError(
            f"{where}: {rows} have inconsistent lengths" if width is None
            else f"{where}: {rows} must have length {width}"
        )
    m = np.array(entries, dtype=np.complex128)
    if not np.isfinite(m).all():
        raise FamilyDocumentError(f"{where}: entries must be finite")
    return m.reshape(len(value), expected)


def _emit_matrix(m: np.ndarray) -> dict:
    """A matrix as its exact binary payload: shape and base64 of the row-major little-endian complex128 bytes."""
    m = np.ascontiguousarray(m, dtype="<c16")
    return {"shape": list(m.shape), "c128le": base64.b64encode(m.tobytes()).decode("ascii")}


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise FamilyDocumentError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_subspace(value, dim: int, where: str) -> Subspace:
    """The stored basis vectors (rows), kept if orthonormal, else spanned by :meth:`Subspace.from_vectors`."""
    vectors = _parse_matrix(value, where, rows="basis vectors", width=dim)
    try:
        return Subspace(vectors.T)  # already orthonormal: keep the stored values
    except DimensionError:
        return Subspace.from_vectors(vectors)


def _parse_symbol(value, count: int) -> list[complex]:
    """The ``m`` values: a binary ``1 x count`` matrix, or a flat decimal array."""
    if type(value) is dict:
        values = _decode_matrix(value, "m", limit=max(MAX_DIM, count))
        if values.shape == (1, count):
            return values[0].tolist()
    elif type(value) is list and len(value) == count:
        values = [_parse_scalar(x, "m", i) for i, x in enumerate(value)]
        if not all(cmath.isfinite(x) for x in values):
            raise FamilyDocumentError("m: entries must be finite")
        return values
    raise FamilyDocumentError("m must be an array with one value per atom")


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
        symbol = MultiplierSymbol(tuple(_parse_symbol(doc["m"], len(atoms))))
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
        doc["m"] = _emit_matrix([m.values])
    return doc


def canonical_json(obj) -> str:
    """Deterministic JSON text: one line of sorted-key JSON, shortest round-trip
    floats and a trailing newline (without ``indent``, json runs its C encoder)."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def load_family(path) -> tuple[ControlledFamily, MultiplierSymbol | None]:
    """Parse a family document from a file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FamilyDocumentError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise FamilyDocumentError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise FamilyDocumentError(f"{path}: nested too deeply to parse ({exc})") from None
    return document_to_family(doc)


def _write_document(path, doc: dict) -> None:
    Path(path).write_text(canonical_json(doc))


def save_family(path, family: ControlledFamily, m: MultiplierSymbol | None = None) -> None:
    """Write a family document to a file, in canonical form."""
    _write_document(path, family_to_document(family, m))
