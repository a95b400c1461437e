"""One benchmark run: set-up, the timed or traced mix, checks, and the result line.

Imported by ``run.py`` only after it has pinned the BLAS threads and put the
checkout's ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gfusion.cli

import mix
from mix import MIX, Invocation, check_report, cli_env, digest, run_cli, run_python
from run import ROOT, THREAD_VARS, TIMED_THREADS
from spans import COUNT_METRICS, SPAN_METRICS, Tracer
from workloads import SETUP_REPEATS, WORKLOADS, doc_paths, oracle_bounds, set_up

RUN_PY = Path(__file__).with_name("run.py")
CROSS_THREADS = (1, 2)   # thread counts whose outputs are compared byte for byte
IMPORT_REPEATS = 5


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"n={n}, no percentile has 10 samples beyond it"
    p = min(99, int(100 * (1 - 10 / n)))
    return f"n={n}, p{p}={statistics.quantiles(samples, n=100, method='inclusive')[p - 1]:.6f}"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _import_seconds() -> float:
    """Median time ``import gfusion.cli`` takes in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import gfusion.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=cli_env(ROOT, TIMED_THREADS),
                             capture_output=True, check=True, text=True)
        times.append(float(out.stdout))
    return statistics.median(times)


class Checker:
    """Counts attempted and failed commands; repeats of a command must match its first output."""

    def __init__(self, oracles):
        self.oracles = oracles
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def report(self, cmd, key, report: dict | None, fingerprint, oracle_index: int = 0) -> None:
        self.attempted += 1
        if key not in self.first:
            problems = check_report(cmd, report, self.oracles[oracle_index])
            if not problems:
                self.first[key] = fingerprint
        elif fingerprint != self.first[key]:
            problems = [f"{cmd.metric}: output differs from the first run of the same command"]
        else:
            problems = []
        self._record(problems)

    def invocation(self, cmd, inv, key) -> None:
        """Check one CLI invocation; its stdout must match the first of those with the same key."""
        if inv.exit_code != 0:
            self.attempted += 1
            self._record([f"{cmd.metric}: exit {inv.exit_code}: {inv.stderr.decode(errors='replace').strip()}"])
            return
        report = None
        if key not in self.first:
            try:
                report = json.loads(inv.stdout)
            except ValueError as exc:
                self.attempted += 1
                self._record([f"{cmd.metric}: stdout is not one JSON report: {exc}"])
                return
        self.report(cmd, key, report, inv.stdout)

    def add_child(self, result: dict) -> None:
        """Fold in the counts a batch child process reported."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems.extend(f"child: {p}" for p in result["problems"])

    def _record(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _run_clean(run, cmd, paths, out) -> Invocation:
    """Run one mix command with ``run`` (argv -> Invocation), then delete dual's --out file.

    So every dual writes a fresh file: ext4 flushes a file rewritten in place
    when it is closed, once earlier write-back has allocated its blocks, and
    that would make dual's time depend on how long ago the last one ran.
    """
    inv = run(cmd.argv(paths, out))
    out.unlink(missing_ok=True)
    return inv


def _cli_inprocess(argv) -> Invocation:
    """``gfusion.cli.main`` called in this process, with its stdout and stderr caught."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = gfusion.cli.main([str(a) for a in argv])
        except Exception as exc:  # as the CLI process would: exit 1, the error on stderr
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    seconds = time.perf_counter() - start
    return Invocation(seconds, code, stdout.getvalue().encode(), stderr.getvalue().encode(), 0)


def _closed_loop(deadline: float, run_command) -> dict:
    """One client: each command starts after the previous one ends; at least one full pass."""
    samples = {cmd.metric: [] for cmd in MIX}
    i = 0
    while i < len(MIX) or time.perf_counter() < deadline:
        cmd = MIX[i % len(MIX)]
        samples[cmd.metric].append(run_command(cmd))
        i += 1
    return samples


def _memory_sources(instances) -> list[dict]:
    return [{"a": x.a, "dual": x.dual, "pert": x.pert} for x in instances]


def _batch_reports(cmd, sources) -> tuple[float, list[dict]]:
    """One command over the whole batch: its wall time and its reports."""
    start = time.perf_counter()
    reports = [cmd.inprocess(fams) for fams in sources]
    return time.perf_counter() - start, reports


def _check_batch(cmd, reports, checker, tag) -> list[str]:
    """Check a batch's reports (repeats under the same tag must match); returns their digests."""
    digests = [digest(r) for r in reports]
    for i, (report, fp) in enumerate(zip(reports, digests)):
        checker.report(cmd, (tag, cmd.metric, i), report, fp, oracle_index=i)
    return digests


def _batch_child(workload, seed, threads: int) -> tuple[dict, int]:
    """One set-up and one batch pass in a child process at ``threads`` BLAS threads.

    Returns the child's result (report digests by command, its attempted and
    failed counts, its problems) and the child's peak RSS in kB.  A child
    that ends without a result counts as one failed attempt.
    """
    inv = run_python([RUN_PY, "--workload", workload.name, "--seed", seed, "--seconds", 0,
                      "--blas-threads", threads, "--digests"], cli_env(ROOT, threads))
    try:
        return json.loads(inv.stdout.splitlines()[-1]), inv.maxrss_kb
    except (IndexError, ValueError):
        err = inv.stderr.decode(errors="replace").strip().splitlines()[-1:]
        problem = f"batch child at {threads} BLAS threads: exit {inv.exit_code}, no result: {err}"
        return {"digests": {}, "attempted": 1, "failed": 1, "problems": [problem]}, inv.maxrss_kb


def end_to_end(workload, instances, setup_s, checker, workdir, seconds, seed) -> dict:
    deadline = time.perf_counter() + seconds
    if workload.mode == "cli":
        paths, out, env = doc_paths(workdir), workdir / "dual_out.json", cli_env(ROOT, TIMED_THREADS)
        peak_kb = 0

        def run_command(cmd):
            nonlocal peak_kb
            inv = _run_clean(lambda argv: run_cli(argv, env), cmd, paths, out)
            checker.invocation(cmd, inv, (cmd.metric, TIMED_THREADS))
            peak_kb = max(peak_kb, inv.maxrss_kb)
            return inv.seconds

        samples = _closed_loop(deadline, run_command)
        rss_from = "largest CLI child"
    else:
        sources = _memory_sources(instances)

        def run_command(cmd):
            seconds, reports = _batch_reports(cmd, sources)
            _check_batch(cmd, reports, checker, "timed")
            return seconds

        samples = _closed_loop(deadline, run_command)
        result, peak_kb = _batch_child(workload, seed, TIMED_THREADS)  # after the loop: untimed
        checker.add_child(result)
        rss_from = "a child that made one set-up and one batch pass"
    metrics = {}
    for cmd in MIX:
        metrics[cmd.metric] = _metric(statistics.median(samples[cmd.metric]), "s")
        print(f"# {cmd.metric}: median {metrics[cmd.metric]['value']:.6f} s ({_tail(samples[cmd.metric])})")
    metrics["setup_s"] = _metric(setup_s, "s")
    metrics["peak_rss_mb"] = _metric(peak_kb / 1024, "MB")
    print(f"# setup_s: {setup_s:.6f} s (median of {SETUP_REPEATS} set-ups)")
    print(f"# peak_rss_mb: {peak_kb / 1024:.1f} MB ({rss_from})")
    return metrics


def _traced_passes(tracer, run_traced, check, deadline):
    """Passes of the mix under the tracer, until the deadline (at least one).

    ``run_traced(cmd)`` runs one command and returns its time and output;
    ``check`` gets each pass's outputs once the tracer is off again.
    Returns per pass: the tracer's snapshot and the mix's total time.
    """
    snapshots, totals = [], []
    while not snapshots or time.perf_counter() < deadline:
        tracer.reset()
        total, outputs = 0.0, []
        with tracer.active():
            for cmd in MIX:
                seconds, output = run_traced(cmd)
                total += seconds
                outputs.append(output)
        snapshots.append(tracer.snapshot())
        totals.append(total)
        check(outputs)
    return snapshots, totals


def per_layer(workload, instances, checker, workdir, seconds, seed) -> dict:
    start = time.perf_counter()
    lo, hi = CROSS_THREADS
    report_bytes = doc_bytes = 0
    if workload.mode == "cli":
        paths, out = doc_paths(workdir), workdir / "dual_out.json"
        passes = {}
        for threads in CROSS_THREADS:  # one CLI pass per thread count
            env = cli_env(ROOT, threads)
            passes[threads] = [_run_clean(lambda argv: run_cli(argv, env), cmd, paths, out) for cmd in MIX]
            for cmd, inv in zip(MIX, passes[threads]):
                checker.invocation(cmd, inv, (cmd.metric, threads))
        mismatch = sum(x.stdout != y.stdout for x, y in zip(passes[lo], passes[hi]))
        cli_wall = sum(inv.seconds for inv in passes[TIMED_THREADS])
        doc_bytes = sum(p.stat().st_size for p in paths.values())

        def run_traced(cmd):
            inv = _run_clean(_cli_inprocess, cmd, paths, out)
            return inv.seconds, inv

        def check(outputs):
            # The replay's stdout must match the CLI's at the same thread count byte for byte.
            nonlocal report_bytes
            report_bytes = sum(len(inv.stdout) for inv in outputs)
            for cmd, inv in zip(MIX, outputs):
                checker.invocation(cmd, inv, (cmd.metric, TIMED_THREADS))
    else:
        results = {threads: _batch_child(workload, seed, threads)[0] for threads in CROSS_THREADS}
        for result in results.values():
            checker.add_child(result)
        mismatch = sum(results[lo]["digests"].get(cmd.metric) != results[hi]["digests"].get(cmd.metric)
                       for cmd in MIX)
        cli_wall = 0.0
        sources = _memory_sources(instances)

        def run_traced(cmd):
            return _batch_reports(cmd, sources)

        def check(outputs):
            for cmd, reports in zip(MIX, outputs):
                _check_batch(cmd, reports, checker, "traced")
    import_s = _import_seconds()

    tracer = Tracer(extra_namespaces=[mix])
    snapshots, totals = _traced_passes(tracer, run_traced, check, start + seconds)
    for name in COUNT_METRICS:
        if len({snap[name] for snap in snapshots}) != 1:
            checker.problems.append(f"{name} differs between traced passes of one run")

    # With no CLI invocations (small-batch) nothing is left unattributed.
    unattributed = cli_wall - statistics.median(totals) if workload.mode == "cli" else 0.0
    metrics = {"cli.import_s": _metric(import_s, "s"), "cli.unattributed_s": _metric(unattributed, "s")}
    for name in SPAN_METRICS:
        metrics[name] = _metric(statistics.median(snap[name] for snap in snapshots), "s")
    metrics["serialization.doc_bytes"] = _metric(doc_bytes, "bytes")
    metrics["serialization.report_bytes"] = _metric(report_bytes, "bytes")
    for name in COUNT_METRICS:
        metrics[name] = _metric(snapshots[0][name], "count")
    metrics["thread_mismatch"] = _metric(mismatch, "count")
    print(f"# traced passes: {len(snapshots)}; in-process mix total, median {statistics.median(totals):.6f} s")
    for name, m in metrics.items():
        print(f"# {name}: {m['value']} {m['unit']}")
    return metrics


def metadata(workload, seed, seconds, trace, instances, workdir) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    docs = {}
    if workload.mode == "cli":
        docs = {role: path.stat().st_size for role, path in doc_paths(workdir).items()}
    return {
        "workload": workload.name, "mode": workload.mode, "why": workload.why, "isolates": workload.isolates,
        "seed": seed, "seconds": seconds, "trace": trace,
        "families": len(instances), "dims": sorted({x.a.dim for x in instances}),
        "atoms": sum(len(x.a.atoms) for x in instances), "doc_bytes": docs,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS}, "cross_thread_check": list(CROSS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(args) -> int:
    if args.workload == "all":
        return max(
            subprocess.run([sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        )
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / "perfbench" / "work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run_in(workload, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(workload, workdir, args) -> int:
    if workload.mode == "cli":  # the first import compiles the CLI's bytecode: keep that out of the timings
        subprocess.run([sys.executable, "-c", "import gfusion.cli"], env=cli_env(ROOT, TIMED_THREADS), check=True)
    repeats = SETUP_REPEATS if not (args.trace or args.digests) else 1  # set-up is reported with --trace 0
    instances, setup_s = set_up(workload, args.seed, workdir, repeats)
    checker = Checker([oracle_bounds(x.raw) for x in instances])
    if args.digests:  # a child of _batch_child: one batch pass, its digests and its checks' counts
        sources = _memory_sources(instances)
        digests = {cmd.metric: _check_batch(cmd, _batch_reports(cmd, sources)[1], checker, "child") for cmd in MIX}
        print(json.dumps({"digests": digests, "attempted": checker.attempted, "failed": checker.failed,
                          "problems": checker.problems}))
        return 0
    print("# meta " + json.dumps(metadata(workload, args.seed, args.seconds, args.trace, instances, workdir)))
    if args.trace:
        metrics = per_layer(workload, instances, checker, workdir, args.seconds, args.seed)
    else:
        metrics = end_to_end(workload, instances, setup_s, checker, workdir, args.seconds, args.seed)
    print(f"# fail_ratio: {checker.failed}/{checker.attempted}")
    for problem in checker.problems:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": not checker.problems, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0
