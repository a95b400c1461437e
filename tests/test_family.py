import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gfusion import (
    ControlledFamily,
    DimensionError,
    MeasureAtom,
    MultiplierSymbol,
    SingularOperatorError,
    Subspace,
    ValidationError,
    ball_partition_example,
    frame_operator,
    inverse,
    require_valid,
    total_v2,
    validate,
)
from helpers import oracle_gram


def _one_atom_family(weight=1.0, v=1.0, n=2):
    atom = MeasureAtom("a0", weight, v, Subspace.full(n), np.eye(n))
    return ControlledFamily(n, (atom,), np.eye(n), np.eye(n))


def test_validate_builtin_example_both_readings():
    for reading in ("consistent", "literal"):
        diag = validate(ball_partition_example(2.0, 1.5, 1.2, reading=reading))
        assert diag.ok


def test_validate_flags_indefinite_control():
    fam = _one_atom_family()
    bad = ControlledFamily(2, fam.atoms, np.diag([1.0, -1.0]), np.eye(2))
    diag = validate(bad)
    assert not diag.ok
    assert any("not positive" in f for f in diag.failures)
    with pytest.raises(ValidationError):
        require_valid(bad)


def test_validate_flags_singular_control():
    fam = _one_atom_family()
    bad = ControlledFamily(2, fam.atoms, np.eye(2), np.zeros((2, 2)))
    diag = validate(bad)
    assert not diag.ok
    assert any("not invertible" in f for f in diag.failures)


def test_builtin_example_gram_form_closed_form():
    fam = ball_partition_example(2.0, 1.5, 1.2)
    f = np.array([1.0, 1.0, 1.0])
    assert abs(oracle_gram(fam, f, f) - 6.25) < 1e-12


def test_builtin_example_literal_reading_kills_form():
    fam = ball_partition_example(2.0, 1.5, 1.2, reading="literal")
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = rng.standard_normal(3)
        assert abs(oracle_gram(fam, f, f)) < 1e-14


def test_builtin_example_weight_independent():
    s1 = frame_operator(ball_partition_example(3.0, 2.0, 1.5))
    s2 = frame_operator(ball_partition_example(9.0, 4.0, 1.01))
    assert np.max(np.abs(s1 - s2)) < 1e-12


def test_builtin_example_rejects_bad_ordering():
    with pytest.raises(ValueError):
        ball_partition_example(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        ball_partition_example(3.0, 2.0, 0.5)


def test_total_v2():
    fam = ball_partition_example(3.0, 2.0, 1.5)
    assert total_v2(fam) == pytest.approx(3.0 * 1 + 2.0 * 4 + 1.5 * 1)


def test_atom_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        MeasureAtom("x", 0.0, 1.0, Subspace.full(2), np.eye(2))
    with pytest.raises(ValueError):
        MeasureAtom("x", 1.0, -0.5, Subspace.full(2), np.eye(2))


def test_family_rejects_mismatched_dimensions():
    atom = MeasureAtom("a0", 1.0, 1.0, Subspace.full(3), np.eye(3))
    with pytest.raises(DimensionError):
        ControlledFamily(2, (atom,), np.eye(2), np.eye(2))


def test_validate_reads_each_control_from_one_eigenvalue_solve(monkeypatch):
    """Exactly Hermitian controls: positivity and invertibility come from one ``eigvalsh`` each."""
    fam = ball_partition_example(3.0, 2.0, 1.5)
    calls = []
    for name in ("svd", "norm", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    assert validate(fam).ok
    assert calls == ["eigvalsh", "eigvalsh"]


@pytest.mark.parametrize("control, failure", [
    (np.eye(2), None),
    (-np.eye(2), "not positive within tolerance"),
    (np.diag([1.0, 1e-13]), "not invertible"),
], ids=["valid", "not-positive", "singular"])
def test_validate_reads_a_repeated_control_once(monkeypatch, control, failure):
    """``T == U`` takes one ``eigvalsh``; a failure is still listed for both sides."""
    fam = ControlledFamily(2, _one_atom_family().atoms, control, control.copy())
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    diag = validate(fam)
    assert len(calls) == 1
    assert diag.failures == (() if failure is None else (f"left control is {failure}", f"right control is {failure}"))


@pytest.mark.parametrize("control, invertible", [(1e-13 * np.eye(2), True), (np.diag([1.0, 1e-13]), False)])
def test_validate_and_inverse_share_one_singularity_test(control, invertible):
    """Singularity is relative to the largest singular value, in validation as in ``inverse``."""
    fam = ControlledFamily(2, _one_atom_family().atoms, control, control)
    assert validate(fam).ok == invertible
    if invertible:
        inverse(control)
    else:
        assert validate(fam).failures == ("left control is not invertible", "right control is not invertible")
        with pytest.raises(SingularOperatorError):
            inverse(control)


def test_same_operator_takes_no_norm(monkeypatch):
    """Equal operators pass with no SVD; a difference still raises with its relative defect (``_relative_defect``)."""
    from gfusion import PairingError
    from gfusion.family import _require_same_operator

    c = frame_operator(ball_partition_example(3.0, 2.0, 1.5))
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    _require_same_operator(c, c.copy(), "controls differ")
    assert calls == []
    with pytest.raises(PairingError, match=r"^controls differ \(defect 2\.500e-07 > 1\.000e-12\)$"):
        _require_same_operator(c, c + 1e-6 * np.eye(3), "controls differ")
    assert len(calls) == 2


@pytest.mark.parametrize("build, error, message", [
    (lambda: MultiplierSymbol(()), ValueError, "symbol needs at least one value"),
    (lambda: MultiplierSymbol((1.0, complex(0, float("nan")))), ValueError, "symbol values must be finite"),
    (lambda: ball_partition_example(3, 2, 1.5, reading="other"), ValueError,
     "reading must be 'consistent' or 'literal', got 'other'"),
    (lambda: MeasureAtom("a0", 1.0, 1.0, Subspace.full(2), np.eye(3)), DimensionError,
     "atom 'a0': local operator acts on dimension 3, subspace lives in dimension 2"),
    (lambda: ControlledFamily(2, (), np.eye(2), np.eye(2)), ValueError, "a family needs at least one atom"),
], ids=["empty-symbol", "nan-symbol", "reading", "atom-dimension", "no-atoms"])
def test_constructors_refuse_bad_values(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
