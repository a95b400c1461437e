"""The nine-command mix: CLI argument lists, in-process equivalents, checks.

Every workload runs the same nine commands.  On CLI workloads each is a
``python -m gfusion.cli`` invocation on the documents made at set-up; their
traced replay calls ``gfusion.cli.main`` in-process with the same arguments.
The small-batch workload instead takes families held in memory through the
library calls each CLI subcommand makes (``gfusion/cli.py``), without JSON or
process start.  All nine give an affirmative verdict on the generated
families.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gfusion import (
    BesselPair,
    MultiplierSymbol,
    PerturbationParams,
    adjoint,
    canonical_dual,
    canonical_resolutions,
    dual_resolution_bounds,
    frame_operator,
    inverse,
    is_resolution,
    multiplier,
    multiplier_frame_criterion,
    operator_norm,
    optimal_bounds,
    pair_bounded_below,
    pair_frame_operator,
    pair_sum_positivity,
    perturb_check,
    require_valid,
)

from run import THREAD_VARS

RTOL_BOUNDS = 1e-8  # bounds report vs oracle, relative to the upper bound
RTOL_DUAL = 1e-6    # dual bounds vs (1/B, 1/A), relative to each value


def _load(families: dict, role: str):
    """A family of the instance, validated as the CLI validates every family it loads."""
    fam = families[role]
    require_valid(fam)
    return fam


def _frame(rep) -> dict:
    return {"verdict": rep.verdict, "bounds": {"lower": rep.A_opt, "upper": rep.B_opt},
            "herm_defect": rep.herm_defect, "notes": list(rep.notes)}


def _bounds(fams: dict):
    return _frame(optimal_bounds(_load(fams, "a")))


def _dual(fams: dict):
    fam = _load(fams, "a")
    dual = canonical_dual(fam)
    rep = optimal_bounds(dual)
    s_inv = inverse(frame_operator(fam))
    residual = operator_norm(frame_operator(dual) - s_inv)
    return {**_frame(rep), "inverse_equality_residual": residual}


def _pair(fams: dict, first: str, second: str) -> BesselPair:
    return BesselPair(_load(fams, first), _load(fams, second))


def _pair_operator(fams: dict):
    pair = _pair(fams, "a", "dual")
    sqrt_bd = float(np.sqrt(pair.lam_bounds.B_opt * pair.gam_bounds.B_opt))
    s = pair_frame_operator(pair)
    norm = operator_norm(s)
    swap_residual = operator_norm(adjoint(s) - pair_frame_operator(BesselPair(pair.gam, pair.lam)))
    ok = norm <= sqrt_bd + 1e-9 and swap_residual <= 1e-10 * max(1.0, norm)
    return {"verdict": "pass" if ok else "fail", "operator_norm": norm, "norm_bound": sqrt_bd,
            "adjoint_swap_residual": swap_residual}


def _pair_bounded_below(fams: dict):
    rep = pair_bounded_below(_pair(fams, "a", "dual"))
    ok = rep.bounded_below and rep.resolution_ok and rep.certified_lower_ok
    return {"verdict": "pass" if ok else "fail", **asdict(rep)}


def _pair_positivity(fams: dict):
    rep = pair_sum_positivity(_pair(fams, "a", "a"))
    if not rep.hypothesis_met:
        verdict = "hypothesis-not-met"
    else:
        verdict = "pass" if (rep.positive and rep.factorization_ok) else "fail"
    return {"verdict": verdict, **asdict(rep)}


def _multiplier(fams: dict):
    pair = _pair(fams, "a", "dual")
    symbol = MultiplierSymbol.constant(1.0, len(pair.lam.atoms))
    norm = operator_norm(multiplier(symbol, pair))
    rep = multiplier_frame_criterion(symbol, pair)
    if not rep.applicable:
        verdict = "inapplicable"
    elif rep.certified_lower_gam_ok and rep.certified_lower_lam_ok and rep.lam_is_frame and rep.gam_is_frame:
        verdict = "pass"
    else:
        verdict = "fail"
    return {"verdict": verdict, "operator_norm": norm, **asdict(rep)}


def _perturb(fams: dict):
    rep = perturb_check(_load(fams, "a"), _load(fams, "pert"), PerturbationParams(0.2, 0.0, 0.0))
    if not rep.applicable:
        verdict = "inapplicable"
    elif not rep.hypothesis_met:
        verdict = "hypothesis-not-met"
    else:
        verdict = "pass" if rep.inside else "fail"
    return {"verdict": verdict, **asdict(rep)}


def _resolution_canonical(fams: dict):
    rep = is_resolution(canonical_resolutions(_load(fams, "a")).right)
    return {"verdict": "pass" if rep.holds else "fail", **asdict(rep)}


def _resolution_dual_bounds(fams: dict):
    rep = dual_resolution_bounds(_load(fams, "a"))
    return {"verdict": "pass" if (rep.resolution_ok and rep.sandwich_ok) else "fail", **asdict(rep)}


@dataclass(frozen=True)
class Command:
    metric: str                            # end-to-end metric name
    argv: Callable[[dict, Path], list]     # CLI arguments from the document paths and --out path
    inprocess: Callable[[dict], dict]      # on {role: family}; returns the report fields the checks read
    verdict: str                           # the expected affirmative verdict


MIX = (
    Command("bounds_s", lambda p, o: ["bounds", p["a"]], _bounds, "frame"),
    Command("dual_s", lambda p, o: ["dual", p["a"], "--out", o], _dual, "frame"),
    Command("pair_operator_s", lambda p, o: ["pair", p["a"], p["dual"], "operator"], _pair_operator, "pass"),
    Command("pair_bounded_below_s", lambda p, o: ["pair", p["a"], p["dual"], "bounded-below"],
            _pair_bounded_below, "pass"),
    Command("pair_positivity_s", lambda p, o: ["pair", p["a"], p["a"], "positivity"], _pair_positivity, "pass"),
    Command("multiplier_s", lambda p, o: ["multiplier", p["a"], p["dual"], "--m-const", "1.0"],
            _multiplier, "pass"),
    Command("perturb_s", lambda p, o: ["perturb", p["a"], p["pert"], "--lambda1", "0.2", "--lambda2", "0",
                                       "--eps", "0"], _perturb, "pass"),
    Command("resolution_canonical_s", lambda p, o: ["resolution", p["a"], "canonical-right"],
            _resolution_canonical, "pass"),
    Command("resolution_dual_bounds_s", lambda p, o: ["resolution", p["a"], "dual-bounds"],
            _resolution_dual_bounds, "pass"),
)


def _close(x: float, ref: float, rtol: float, scale: float) -> bool:
    return abs(x - ref) <= rtol * scale


def check_report(cmd: Command, report: dict, oracle: tuple[float, float]) -> list[str]:
    """Problems with one report: wrong verdict, or bounds that disagree with the oracle."""
    problems = []
    if report.get("verdict") != cmd.verdict:
        problems.append(f"{cmd.metric}: verdict {report.get('verdict')!r}, expected {cmd.verdict!r}")
    lo, hi = oracle
    if cmd.metric == "bounds_s":
        got = report["bounds"]
        if not (_close(got["lower"], lo, RTOL_BOUNDS, hi) and _close(got["upper"], hi, RTOL_BOUNDS, hi)):
            problems.append(f"bounds_s: bounds {got} disagree with the oracle ({lo!r}, {hi!r})")
    elif cmd.metric == "dual_s":
        got = report["bounds"]
        if not (_close(got["lower"], 1 / hi, RTOL_DUAL, 1 / hi) and _close(got["upper"], 1 / lo, RTOL_DUAL, 1 / lo)):
            problems.append(f"dual_s: bounds {got} disagree with the oracle ({1 / hi!r}, {1 / lo!r})")
    return problems


def digest(report: dict) -> str:
    """A byte-exact fingerprint of a report: floats are hashed by their repr."""
    return hashlib.sha256(json.dumps(report, sort_keys=True, default=repr).encode()).hexdigest()


@dataclass(frozen=True)
class Invocation:
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def cli_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_python(args: list, env: dict) -> Invocation:
    """One child interpreter, timed from process start until it has exited with stdout read."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *map(str, args)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()  # children here write little to stderr, so stdout cannot block on it
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Invocation(seconds, proc.returncode, stdout, stderr, usage.ru_maxrss)


def run_cli(argv: list, env: dict) -> Invocation:
    """One ``gfusion`` CLI invocation."""
    return run_python(["-m", "gfusion.cli", *argv], env)
