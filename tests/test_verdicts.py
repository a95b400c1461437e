"""Each certificate report decides its own verdict, by the rule the CLI prints.

The rules below are written out independently of the library, one per
report type, with the precedence the ``gfusion`` subcommands have always
applied.  Every combination of the booleans a rule reads is checked; every
other field is a value that fails the test if the verdict looks at it.
"""

from dataclasses import fields
from itertools import product

import pytest

from gfusion import (
    DualResolutionReport,
    MultiplierReport,
    PairBoundedBelowReport,
    PairOperatorReport,
    PairSumReport,
    PerturbationReport,
    ResolutionReport,
)


class _Unread:
    """A field value the verdict must not read."""

    def __bool__(self):
        raise AssertionError("the verdict read a field outside its rule")


def _pair_operator(f):
    return "pass" if (f["norm_bound_ok"] and f["adjoint_swap_ok"]) else "fail"


def _pair_bounded_below(f):
    return "pass" if (f["bounded_below"] and f["resolution_ok"] and f["certified_lower_ok"]) else "fail"


def _pair_positivity(f):
    if not f["hypothesis_met"]:
        return "hypothesis-not-met"
    elif f["positive"] and f["factorization_ok"]:
        return "pass"
    else:
        return "fail"


def _multiplier(f):  # norm_bound_ok is printed, not read
    if not f["applicable"]:
        return "inapplicable"
    elif f["certified_lower_gam_ok"] and f["certified_lower_lam_ok"] and f["lam_is_frame"] and f["gam_is_frame"]:
        return "pass"
    else:
        return "fail"


def _perturb(f):
    if not f["applicable"]:
        return "inapplicable"
    elif not f["hypothesis_met"]:
        return "hypothesis-not-met"
    elif f["inside"]:
        return "pass"
    else:
        return "fail"


def _canonical_resolution(f):
    return "pass" if f["holds"] else "fail"


def _dual_resolution(f):
    return "pass" if (f["resolution_ok"] and f["sandwich_ok"]) else "fail"


RULES = {
    PairOperatorReport: (("norm_bound_ok", "adjoint_swap_ok"), _pair_operator),
    PairBoundedBelowReport: (("bounded_below", "resolution_ok", "certified_lower_ok"), _pair_bounded_below),
    PairSumReport: (("hypothesis_met", "positive", "factorization_ok"), _pair_positivity),
    MultiplierReport: (
        ("applicable", "certified_lower_gam_ok", "certified_lower_lam_ok", "lam_is_frame", "gam_is_frame"),
        _multiplier,
    ),
    PerturbationReport: (("applicable", "hypothesis_met", "inside"), _perturb),
    ResolutionReport: (("holds",), _canonical_resolution),
    DualResolutionReport: (("resolution_ok", "sandwich_ok"), _dual_resolution),
}

CASES = [
    pytest.param(cls, dict(zip(names, values)), id=f"{cls.__name__}-{''.join('TF'[not v] for v in values)}")
    for cls, (names, _) in RULES.items()
    for values in product((True, False), repeat=len(names))
]


@pytest.mark.parametrize("cls, flags", CASES)
def test_report_verdict_follows_its_rule(cls, flags):
    report = cls(**{f.name: flags.get(f.name, _Unread()) for f in fields(cls)})
    assert report.verdict == RULES[cls][1](flags)
