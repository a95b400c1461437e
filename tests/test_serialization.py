import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfusion import (
    ControlledFamily,
    FamilyDocumentError,
    MeasureAtom,
    MultiplierSymbol,
    Subspace,
    ball_partition_example,
    canonical_json,
    document_to_family,
    family_to_document,
    load_family,
    save_family,
)
from gfusion.tolerances import MAX_DIM
from helpers import c128le, decimal_document, diag_family, generic_family


def test_roundtrip_is_bit_identical():
    for fam in (ball_partition_example(3.0, 2.0, 1.5), diag_family(0), generic_family(1)):
        doc = family_to_document(fam)
        back, m = document_to_family(json.loads(canonical_json(doc)))
        assert m is None
        assert back.dim == fam.dim
        assert np.array_equal(back.control_left, fam.control_left)
        assert np.array_equal(back.control_right, fam.control_right)
        for a, b in zip(fam.atoms, back.atoms):
            assert a.id == b.id and a.weight == b.weight and a.frame_weight == b.frame_weight
            assert np.array_equal(a.local_op, b.local_op)
            assert np.array_equal(a.subspace.basis, b.subspace.basis)


def test_document_roundtrip_stable_modulo_formatting():
    fam = generic_family(2)
    doc = family_to_document(fam, MultiplierSymbol((1.0, 0.5 + 0.25j) + (1.0,) * (len(fam.atoms) - 2)))
    text1 = canonical_json(doc)
    back, m = document_to_family(json.loads(text1))
    text2 = canonical_json(family_to_document(back, m))
    assert text1 == text2


def test_file_roundtrip(tmp_path):
    fam = diag_family(3)
    path = tmp_path / "fam.json"
    save_family(path, fam, MultiplierSymbol.constant(2.0, len(fam.atoms)))
    back, m = load_family(path)
    assert m is not None and m.values == (2.0 + 0j,) * len(fam.atoms)
    assert np.array_equal(back.control_left, fam.control_left)


def test_complex_entries_encoded_as_pairs():
    fam = generic_family(4)
    doc = decimal_document(fam)
    entry = doc["atoms"][0]["lambda"][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    back, _ = document_to_family(doc)
    assert back.atoms[0].local_op[0, 0] == complex(*entry)
    assert back.atoms[0].local_op.tobytes() == fam.atoms[0].local_op.tobytes()


def test_real_entries_stay_plain():
    doc = decimal_document(ball_partition_example(3.0, 2.0, 1.5))
    assert isinstance(doc["controls"]["T"][0][0], float)
    assert isinstance(doc["atoms"][0]["weight"], float)
    back, _ = document_to_family(doc)
    t = back.control_left
    assert t[0, 0] == complex(doc["controls"]["T"][0][0], 0.0)
    assert not np.signbit(t.imag).any()


def test_every_saved_matrix_is_one_binary_payload(tmp_path):
    fam = generic_family(7)
    path = tmp_path / "fam.json"
    save_family(path, fam, MultiplierSymbol.constant(1.0 - 0.5j, len(fam.atoms)))
    doc = json.loads(path.read_text())
    matrices = [doc["controls"]["T"], doc["controls"]["U"], doc["m"]]
    matrices += [atom[key] for atom in doc["atoms"] for key in ("subspace", "lambda")]
    for matrix in matrices:
        assert set(matrix) == {"shape", "c128le"}
        r, c = matrix["shape"]
        assert len(base64.b64decode(matrix["c128le"], validate=True)) == 16 * r * c
    assert doc["m"]["shape"] == [1, len(fam.atoms)]
    assert all(type(atom[key]) is float for atom in doc["atoms"] for key in ("weight", "v"))


def test_decimal_controls_with_binary_atoms_load_to_the_same_bits():
    fam = generic_family(8)
    binary = json.loads(canonical_json(family_to_document(fam)))
    mixed = json.loads(canonical_json(family_to_document(fam)))
    mixed["controls"] = decimal_document(fam)["controls"]
    _assert_same_bits(fam, None, *document_to_family(mixed), stored=_exact)
    _assert_same_bits(fam, None, *document_to_family(binary), stored=_exact)


def test_unknown_keys_rejected_everywhere():
    doc = family_to_document(ball_partition_example(3.0, 2.0, 1.5))
    bad = json.loads(canonical_json(doc))
    bad["extra"] = 1
    with pytest.raises(FamilyDocumentError, match="unknown keys"):
        document_to_family(bad)
    bad = json.loads(canonical_json(doc))
    bad["controls"]["V"] = [[1.0]]
    with pytest.raises(FamilyDocumentError, match="unknown keys"):
        document_to_family(bad)
    bad = json.loads(canonical_json(doc))
    bad["atoms"][0]["shadow"] = True
    with pytest.raises(FamilyDocumentError, match="unknown keys"):
        document_to_family(bad)


def test_missing_keys_rejected():
    doc = family_to_document(ball_partition_example(3.0, 2.0, 1.5))
    for key in ("dim", "controls", "atoms"):
        bad = json.loads(canonical_json(doc))
        del bad[key]
        with pytest.raises(FamilyDocumentError, match="missing"):
            document_to_family(bad)


def test_m_length_must_match_atoms():
    doc = family_to_document(ball_partition_example(3.0, 2.0, 1.5))
    doc["m"] = [1.0, 2.0]
    with pytest.raises(FamilyDocumentError, match="one value per atom"):
        document_to_family(doc)


def test_non_orthonormal_subspace_is_orthonormalized():
    doc = family_to_document(ball_partition_example(3.0, 2.0, 1.5))
    doc["atoms"][0]["subspace"] = [[1.0, 1.0, 0.0]]  # not unit norm
    fam, _ = document_to_family(doc)
    b = fam.atoms[0].subspace.basis
    assert abs(np.linalg.norm(b[:, 0]) - 1.0) < 1e-12


def test_rejects_bad_scalars():
    doc = decimal_document(ball_partition_example(3.0, 2.0, 1.5))
    doc["atoms"][0]["weight"] = "heavy"
    with pytest.raises(FamilyDocumentError):
        document_to_family(doc)
    doc2 = decimal_document(ball_partition_example(3.0, 2.0, 1.5))
    doc2["atoms"][0]["lambda"][0][0] = True
    with pytest.raises(FamilyDocumentError):
        document_to_family(doc2)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["atoms"][0]["lambda"][0].__setitem__(0, "x"),
     "atoms[0].lambda[0][0]: expected a number or [re, im] pair, got 'x'"),
    (lambda d: d["atoms"][0]["lambda"][0].__setitem__(0, True),
     "atoms[0].lambda[0][0]: expected a number, got a boolean"),
    (lambda d: d["atoms"][1]["lambda"][2].__setitem__(1, [1.0, 2.0, 3.0]),
     "atoms[1].lambda[2][1]: expected a number or [re, im] pair, got [1.0, 2.0, 3.0]"),
    (lambda d: d["atoms"][0]["subspace"][0].__setitem__(2, [[1.0, 0.0]]),
     "atoms[0].subspace[0][2]: expected a number or [re, im] pair, got [[1.0, 0.0]]"),
    (lambda d: d["atoms"][0]["lambda"][1].__setitem__(0, [False, 1.0]),
     "atoms[0].lambda[1][0]: expected a number or [re, im] pair, got [False, 1.0]"),
    (lambda d: d["controls"]["U"][2].__setitem__(2, None),
     "controls.U[2][2]: expected a number or [re, im] pair, got None"),
    (lambda d: d["atoms"][0]["lambda"][1].pop(),
     "atoms[0].lambda: rows have inconsistent lengths"),
    (lambda d: d["atoms"][0]["subspace"][0].pop(),
     "atoms[0].subspace: basis vectors must have length 3"),
    (lambda d: d["atoms"][0]["lambda"].__setitem__(1, []),
     "atoms[0].lambda[1]: expected a nonempty array"),
    (lambda d: d["atoms"][0].__setitem__("subspace", []),
     "atoms[0].subspace: expected a nonempty array of basis vectors"),
    (lambda d: d["controls"].__setitem__("T", 1.0),
     "controls.T: expected a nonempty array of rows"),
    (lambda d: d["atoms"][0].__setitem__("weight", "heavy"),
     "atoms[0].weight: expected a number or [re, im] pair, got 'heavy'"),
    (lambda d: d.__setitem__("m", [1.0, [0.0, float("nan")], 1.0]), "m: entries must be finite"),
])
def test_rejects_bad_scalars_naming_the_entry(mutate, message):
    doc = json.loads(canonical_json(decimal_document(ball_partition_example(3.0, 2.0, 1.5))))
    mutate(doc)
    with pytest.raises(FamilyDocumentError) as info:
        document_to_family(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("path, message", [
    (("controls", "T"), "controls.T: entries must be finite"),
    (("controls", "U"), "controls.U: entries must be finite"),
    (("atoms", 1, "lambda"), "atoms[1].lambda: entries must be finite"),
    (("atoms", 2, "subspace"), "atoms[2].subspace: entries must be finite"),
])
def test_non_finite_entry_names_its_matrix(path, message):
    doc = decimal_document(ball_partition_example(3.0, 2.0, 1.5))
    node = doc
    for key in path:
        node = node[key]
    for bad in (float("nan"), float("inf"), [0.0, float("-inf")]):
        node[0][0] = bad
        with pytest.raises(FamilyDocumentError) as info:
            document_to_family(json.loads(json.dumps(doc)))
        assert str(info.value) == message


@pytest.mark.parametrize("path, replacement, message", [
    (("controls", "T"), {"shape": [3, 3], "c128le": c128le(np.eye(3)), "note": 1},
     "controls.T: a binary matrix has exactly the keys 'c128le' and 'shape'"),
    (("controls", "U"), {"shape": [3, 3]}, "controls.U: a binary matrix has exactly the keys 'c128le' and 'shape'"),
    (("atoms", 0, "lambda"), {"shape": [0, 3], "c128le": ""},
     f"atoms[0].lambda: shape must be two integers between 1 and {MAX_DIM}, got [0, 3]"),
    (("atoms", 0, "lambda"), {"shape": [9], "c128le": c128le(np.eye(3))},
     f"atoms[0].lambda: shape must be two integers between 1 and {MAX_DIM}, got [9]"),
    (("atoms", 1, "lambda"), {"shape": [True, 3], "c128le": c128le(np.ones(3))},
     f"atoms[1].lambda: shape must be two integers between 1 and {MAX_DIM}, got [True, 3]"),
    (("atoms", 1, "lambda"), {"shape": [1, MAX_DIM + 1], "c128le": c128le(np.ones(MAX_DIM + 1))},
     f"atoms[1].lambda: shape must be two integers between 1 and {MAX_DIM}, got [1, {MAX_DIM + 1}]"),
    (("atoms", 2, "lambda"), {"shape": [1, 3], "c128le": c128le(np.ones(3))[:-4] + "!!!="},
     "atoms[2].lambda: c128le must be base64 text"),
    (("atoms", 2, "lambda"), {"shape": [1, 3], "c128le": 7}, "atoms[2].lambda: c128le must be base64 text"),
    (("atoms", 2, "lambda"), {"shape": [1, 3], "c128le": base64.b64encode(bytes(47)).decode()},
     "atoms[2].lambda: c128le holds 47 bytes, shape [1, 3] needs 48"),
    (("atoms", 0, "subspace"), {"shape": [1, 3], "c128le": c128le([np.nan, 0, 0])},
     "atoms[0].subspace: entries must be finite"),
    (("atoms", 0, "subspace"), {"shape": [1, 2], "c128le": c128le([1, 0])},
     "atoms[0].subspace: basis vectors must have length 3"),
    (("m",), {"shape": [1, 2], "c128le": c128le([1, 1])}, "m must be an array with one value per atom"),
    (("m",), {"shape": [1, 3], "c128le": c128le([1, 1j * np.inf, 1])}, "m: entries must be finite"),
])
def test_binary_matrix_rejections_name_the_matrix(path, replacement, message):
    doc = json.loads(canonical_json(family_to_document(ball_partition_example(3.0, 2.0, 1.5),
                                                       MultiplierSymbol.constant(1.0, 3))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = replacement
    with pytest.raises(FamilyDocumentError) as info:
        document_to_family(doc)
    assert str(info.value) == message


def test_symbol_of_more_atoms_than_max_dim_round_trips():
    count = MAX_DIM + 2
    line = Subspace(np.eye(1))
    atoms = tuple(MeasureAtom(f"a{i}", 1.0, 1.0, line, np.eye(1)) for i in range(count))
    fam = ControlledFamily(1, atoms, np.eye(1), np.eye(1))
    m = MultiplierSymbol(tuple(complex(i, -0.0) for i in range(count)))
    back, back_m = document_to_family(json.loads(canonical_json(family_to_document(fam, m))))
    assert np.array(back_m.values).tobytes() == np.array(m.values).tobytes()


def test_duplicate_atom_ids_rejected():
    doc = family_to_document(diag_family(0, n_atoms=5))
    doc["atoms"][4]["id"] = doc["atoms"][1]["id"]
    with pytest.raises(FamilyDocumentError) as info:
        document_to_family(doc)
    assert str(info.value) == f"atoms[4]: duplicate id {doc['atoms'][1]['id']!r} (first at atoms[1])"


def test_stored_orthonormal_basis_kept_and_checked_once(monkeypatch):
    fam = generic_family(5)
    doc = json.loads(canonical_json(family_to_document(fam)))
    norm, calls = np.linalg.norm, []
    monkeypatch.setattr(np.linalg, "norm", lambda *args: calls.append(1) or norm(*args))
    back, _ = document_to_family(doc)
    assert len(calls) <= len(fam.atoms)  # at most one SVD per basis: none for an exactly orthonormal one
    for a, b in zip(fam.atoms, back.atoms):
        assert a.subspace.basis.tobytes() == b.subspace.basis.tobytes()


def test_documents_are_one_line():
    text = canonical_json(family_to_document(generic_family(6)))
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == canonical_json(json.loads(text))


# ------------------------------------------------------- round-trip properties

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e300, 1.0, -1.0]
_reals = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
_imags = st.one_of(st.sampled_from([0.0, -0.0]), _reals)


def _matrix(rows, cols):
    def build(parts):
        m = np.empty((rows, cols), dtype=np.complex128)
        m.real = np.reshape([p[0] for p in parts], (rows, cols))
        m.imag = np.reshape([p[1] for p in parts], (rows, cols))
        return m
    return st.lists(st.tuples(_reals, _imags), min_size=rows * cols, max_size=rows * cols).map(build)


@st.composite
def _families(draw):
    n = draw(st.integers(1, 4))
    atoms = []
    for i in range(draw(st.integers(1, 3))):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        # Signed or imaginary unit columns: exactly orthonormal, with -0.0 parts.
        phases = draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=len(idx), max_size=len(idx)))
        basis = np.eye(n, dtype=np.complex128)[:, idx] * np.array(phases)
        atoms.append(MeasureAtom(
            id=f"a{i}",
            weight=draw(st.floats(min_value=5e-324, max_value=1.7976931348623157e308)),
            frame_weight=draw(st.sampled_from([0.0, 5e-324, 1.0, 1e300])),
            subspace=Subspace(basis),
            local_op=draw(_matrix(draw(st.integers(1, 3)), n)),
        ))
    fam = ControlledFamily(n, tuple(atoms), draw(_matrix(n, n)), draw(_matrix(n, n)))
    symbol = draw(st.none() | st.lists(st.tuples(_reals, _imags), min_size=len(atoms), max_size=len(atoms)).map(
        lambda parts: MultiplierSymbol(tuple(complex(re, im) for re, im in parts))))
    return fam, symbol


def _written(a):
    """``a`` as a document stores it: a zero imaginary part of either sign loads as +0.0."""
    out = np.array(a, dtype=np.complex128)
    out.imag[out.imag == 0.0] = 0.0
    return out


def _exact(a):
    return np.asarray(a, dtype=np.complex128)


def _assert_same_bits(fam, m, back, back_m, stored):
    """``back`` holds the bits of ``stored(x)`` for every array ``x`` of ``fam`` and ``m``."""
    def arrays(f):
        return [f.control_left, f.control_right] + [x for a in f.atoms for x in (a.local_op, a.subspace.basis)]
    assert back.dim == fam.dim
    for a, b in zip(arrays(fam), arrays(back), strict=True):
        assert a.shape == b.shape and np.ascontiguousarray(stored(a)).tobytes() == np.ascontiguousarray(b).tobytes()
    for a, b in zip(fam.atoms, back.atoms, strict=True):
        assert (a.id, a.weight, a.frame_weight) == (b.id, b.weight, b.frame_weight)
    if m is None:
        assert back_m is None
    else:
        assert stored(m.values).tobytes() == np.array(back_m.values).tobytes()


@settings(max_examples=60, deadline=None)
@given(_families())
def test_emit_parse_roundtrip_properties(drawn):
    fam, m = drawn
    doc = family_to_document(fam, m)
    text = canonical_json(doc)
    back, back_m = document_to_family(json.loads(text))
    _assert_same_bits(fam, m, back, back_m, stored=_exact)  # every bit, -0.0 imaginary parts included
    assert canonical_json(family_to_document(back, back_m)) == text
    legacy = json.dumps(decimal_document(fam, m), sort_keys=True, indent=2)  # the layout of earlier releases
    _assert_same_bits(fam, m, *document_to_family(json.loads(legacy)), stored=_written)
