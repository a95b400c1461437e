"""Command-line front end.

Loads family documents, dispatches analyses, and prints one machine-readable
JSON report per invocation to standard output (diagnostics go to standard
error).  Each verdict is the ``verdict`` of the library report a command
prints; this module only maps it to the exit status: 0 for an affirmative
verdict, 2 for a negative one, 1 for errors (a usage error too) and
inapplicable checks; the three are never conflated.

Reports embed the tolerances used, and repeated runs with the same inputs
and flags produce byte-identical output.  No command draws a random number.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from . import __version__
from .analysis import _bounds_of, _canonical_dual, frame_operator, optimal_bounds
from .errors import GFusionError
from .family import ControlledFamily, MultiplierSymbol, ball_partition_example
from .linalg import operator_norm
from .pairs import (
    BesselPair,
    multiplier_frame_criterion,
    pair_bounded_below,
    pair_operator_check,
    pair_sum_positivity,
)
from .perturbation import PerturbationParams, perturb_check
from .resolution import canonical_resolutions, dual_resolution_bounds, is_resolution
from .serialization import _write_document, canonical_json, family_to_document, load_family
from .tolerances import TOL_COMM, TOL_FRAME, TOL_HERM, TOL_RES

BUILTIN_NAMES = ("paper-example",)

_EXIT_BY_VERDICT = {
    "frame": 0,
    "pass": 0,
    "bessel-only": 2,
    "not-bessel-diagnostic": 2,
    "fail": 2,
    "hypothesis-not-met": 2,
    "inapplicable": 1,
}


def _finite(text: str) -> float:
    """The value of a numeric flag outside ``perturb``: a finite float, else a usage error naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """The value of a tolerance flag: a finite number ``>= 0``, else a usage error naming the flag."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-herm", type=_tolerance, default=TOL_HERM,
                        help="relative Hermiticity defect tolerance")
    parser.add_argument("--tol-frame", type=_tolerance, default=TOL_FRAME,
                        help="lower-bound floor for a frame verdict")
    parser.add_argument("--tol-res", type=_tolerance, default=TOL_RES,
                        help="residual tolerance for resolutions of the identity")


def _family_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", nargs="?", default=None, help="family document (JSON)")
    parser.add_argument("--builtin", choices=BUILTIN_NAMES, default=None,
                        help="use a builtin family instead of a file")
    parser.add_argument("--reading", choices=("consistent", "literal"), default="consistent",
                        help="subspace assignment used by the builtin family")
    parser.add_argument("--weights", type=_finite, nargs=3, default=(3.0, 2.0, 1.5),
                        metavar=("MU1", "MU2", "MU3"),
                        help="cell masses for the builtin family")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as every other error does (argparse uses 2, a negative verdict)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gfusion",
        description="Numerical workbench for continuous controlled g-fusion frames.",
    )
    parser.add_argument("--version", action="version", version=f"gfusion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="optimal two-sided bounds and frame verdict")
    _family_source_flags(p)
    _common_flags(p)

    p = sub.add_parser("dual", help="canonical dual family and its bounds")
    _family_source_flags(p)
    _common_flags(p)
    p.add_argument("--out", default=None, help="also write the dual family document here")

    p = sub.add_parser("pair", help="pair operator analyses for two Bessel families")
    p.add_argument("file_a", help="first family document")
    p.add_argument("file_b", help="second family document")
    p.add_argument("check", choices=("operator", "bounded-below", "positivity"))
    _common_flags(p)

    p = sub.add_parser("multiplier", help="multiplier operator and frame criterion")
    p.add_argument("file_a", help="first family document")
    p.add_argument("file_b", help="second family document")
    p.add_argument("--m-const", type=_finite, default=None,
                   help="constant symbol value (overrides any 'm' array in the files)")
    _common_flags(p)

    p = sub.add_parser("perturb", help="perturbation stability check")
    p.add_argument("file_a", help="reference family document (must be a frame)")
    p.add_argument("file_b", help="perturbed family document")
    p.add_argument("--lambda1", type=float, default=None, help="relative fraction on the reference form")
    p.add_argument("--lambda2", type=float, default=None, help="relative fraction on the perturbed form")
    p.add_argument("--eps", type=float, default=None, help="absolute perturbation term")
    p.add_argument("--simple", type=float, default=None, metavar="D",
                   help="use the one-constant check with bound D instead")
    _common_flags(p)

    p = sub.add_parser("resolution", help="resolutions of the identity induced by a frame")
    _family_source_flags(p)
    p.add_argument("variant", choices=("canonical-left", "canonical-right", "dual-bounds"))
    _common_flags(p)

    return parser


def _load_single(args) -> tuple[ControlledFamily, MultiplierSymbol | None]:
    if args.builtin is not None:
        if args.file is not None:
            raise GFusionError("give either a file or --builtin, not both")
        try:
            return ball_partition_example(*args.weights, reading=args.reading), None
        except ValueError as exc:  # the cell masses are out of order or not above 1
            raise GFusionError(f"--weights: {exc}") from None
    if args.file is None:
        raise GFusionError("no input: give a family document or --builtin")
    return load_family(args.file)


def _load_pair(args) -> tuple[ControlledFamily, MultiplierSymbol | None, ControlledFamily, MultiplierSymbol | None]:
    return (*load_family(args.file_a), *load_family(args.file_b))


def _base_report(args, **fields) -> dict:
    report = {
        "artifact": {"name": "gfusion", "version": __version__},
        "command": args.command,
        "tolerances": {
            "tol_herm": args.tol_herm,
            "tol_frame": args.tol_frame,
            "tol_res": args.tol_res,
            "tol_comm": TOL_COMM,
        },
    }
    report.update(fields)
    return report


def _frame_fields(report) -> dict:
    return {
        "verdict": report.verdict,
        "bounds": {"lower": report.A_opt, "upper": report.B_opt},
        "herm_defect": report.herm_defect,
        "notes": list(report.notes),
    }


def cmd_bounds(args) -> dict:
    family, _ = _load_single(args)
    report = optimal_bounds(family, tol_frame=args.tol_frame, tol_herm=args.tol_herm)
    return _base_report(args, **_frame_fields(report))


def cmd_dual(args) -> dict:
    family, _ = _load_single(args)
    dual, s_inv = _canonical_dual(family, args.tol_frame, args.tol_herm)
    s_dual = frame_operator(dual, tol_herm=args.tol_herm)
    dual_report = _bounds_of(s_dual, tol_frame=args.tol_frame, tol_herm=args.tol_herm)
    residual = operator_norm(s_dual - s_inv)
    dual_doc = family_to_document(dual)
    if args.out is not None:
        _write_document(args.out, dual_doc)
    return _base_report(
        args,
        **_frame_fields(dual_report),
        inverse_equality_residual=float(residual),
        dual_family=dual_doc,
    )


def cmd_pair(args) -> dict:
    fam_a, _, fam_b, _ = _load_pair(args)
    pair = BesselPair(fam_a, fam_b, tol_frame=args.tol_frame, tol_herm=args.tol_herm)
    if args.check == "operator":
        rep = pair_operator_check(pair)
    elif args.check == "bounded-below":
        rep = pair_bounded_below(pair, tol_frame=args.tol_frame, tol_res=args.tol_res)
    else:
        rep = pair_sum_positivity(pair, tol_herm=args.tol_herm)
    return _base_report(args, verdict=rep.verdict, **asdict(rep))


def cmd_multiplier(args) -> dict:
    fam_a, m_a, fam_b, m_b = _load_pair(args)
    pair = BesselPair(fam_a, fam_b, tol_frame=args.tol_frame, tol_herm=args.tol_herm)
    if args.m_const is not None:
        symbol = MultiplierSymbol.constant(args.m_const, len(fam_a.atoms))
    elif m_a is not None:
        symbol = m_a
    elif m_b is not None:
        symbol = m_b
    else:
        raise GFusionError("no symbol: pass --m-const or provide an 'm' array in a family document")
    rep = multiplier_frame_criterion(symbol, pair)
    return _base_report(
        args,
        verdict=rep.verdict,
        operator_norm=rep.operator_norm,
        norm_bound=rep.norm_bound,
        norm_bound_ok=rep.norm_bound_ok,
        lambda_star=rep.lambda_star,
        certified_lower_first=rep.certified_lower_lam,
        certified_lower_second=rep.certified_lower_gam,
        certified_ok_first=rep.certified_lower_lam_ok,
        certified_ok_second=rep.certified_lower_gam_ok,
    )


def _perturbation_params(args) -> tuple[PerturbationParams, dict]:
    """The parameters the flags ask for, and the report fields naming the mode.

    ``--simple D`` is the two-fraction check with parameters ``(0, 0, D)``.
    A value out of range ends in an error naming its flag.
    """
    if args.simple is not None:
        if any(x is not None for x in (args.lambda1, args.lambda2, args.eps)):
            raise GFusionError("--simple cannot be combined with --lambda1/--lambda2/--eps")
        if not args.simple > 0:  # the check perturb_check_simple makes, here to name the flag
            raise GFusionError(f"--simple must be positive, got {args.simple}")
        values, prefix = (0.0, 0.0, args.simple), "--simple: "
        mode = {"mode": "simple", "bound": args.simple}
    else:
        missing = [n for n, x in (("--lambda1", args.lambda1), ("--lambda2", args.lambda2), ("--eps", args.eps)) if x is None]
        if missing:
            raise GFusionError(f"missing {', '.join(missing)} (or use --simple D)")
        values, prefix = (args.lambda1, args.lambda2, args.eps), "--"  # errors start with the field, named like its flag
        mode = {"mode": "two-fraction", "lambda1": args.lambda1, "lambda2": args.lambda2, "eps": args.eps}
    try:
        return PerturbationParams(*values), mode
    except ValueError as exc:
        raise GFusionError(f"{prefix}{exc}") from None


def cmd_perturb(args) -> dict:
    params, mode = _perturbation_params(args)
    fam_a, _, fam_b, _ = _load_pair(args)
    rep = perturb_check(fam_a, fam_b, params, tol_frame=args.tol_frame, tol_herm=args.tol_herm)
    return _base_report(
        args,
        verdict=rep.verdict,
        **mode,
        hypothesis_met=rep.hypothesis_met,
        failing_atom=rep.failing_atom,
        applicable=rep.applicable,
        certified=None if rep.certified_lower is None else {
            "lower": rep.certified_lower, "upper": rep.certified_upper,
        },
        computed=None if rep.computed_lower is None else {
            "lower": rep.computed_lower, "upper": rep.computed_upper,
        },
        inside=rep.inside,
        total_v2=rep.total_v2,
        min_margin=rep.min_margin,
    )


def cmd_resolution(args) -> dict:
    family, _ = _load_single(args)
    if args.variant in ("canonical-left", "canonical-right"):
        resolutions = canonical_resolutions(family, args.tol_frame, args.tol_herm)
        fam_ops = resolutions.left if args.variant == "canonical-left" else resolutions.right
        rep = is_resolution(fam_ops, tol=args.tol_res)
        return _base_report(args, verdict=rep.verdict, residual=rep.residual, residual_tol=rep.tol)
    rep = dual_resolution_bounds(family, tol_res=args.tol_res, tol_frame=args.tol_frame, tol_herm=args.tol_herm)
    return _base_report(
        args,
        verdict=rep.verdict,
        resolution_residual=rep.resolution_residual,
        resolution_ok=rep.resolution_ok,
        sandwich={"lower": rep.sandwich_lower, "upper": rep.sandwich_upper},
        form_range={"min": rep.form_min, "max": rep.form_max},
        sandwich_ok=rep.sandwich_ok,
    )


_DISPATCH = {
    "bounds": cmd_bounds,
    "dual": cmd_dual,
    "pair": cmd_pair,
    "multiplier": cmd_multiplier,
    "perturb": cmd_perturb,
    "resolution": cmd_resolution,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _DISPATCH[args.command](args)
    except (GFusionError, OSError) as exc:  # OSError: a document or --out path that cannot be read or written
        print(f"gfusion: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(canonical_json(report))
    return _EXIT_BY_VERDICT[report["verdict"]]


if __name__ == "__main__":
    raise SystemExit(main())
