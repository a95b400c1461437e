"""The benchmark's in-process replay still runs, checks out, and repeats exactly.

``perfbench/`` is put on ``sys.path`` as it is, one small seeded instance is
built the way the small-batch workload builds its families, and every
command of the mix is run twice over the same in-memory family objects under
the benchmark's own tracer.  Both passes must pass the benchmark's checks,
give byte-identical reports and make the same numpy decomposition calls: a
library that kept state between calls would differ between the passes.  A
name that ``perfbench/mix.py`` imports or ``perfbench/spans.py`` wraps going
missing fails here too.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_mix_replays_identically_over_the_same_families(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache files under perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    mix = importlib.import_module("mix")
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")

    rng = np.random.default_rng(7)
    n, atoms = 6, 9
    raw = workloads._raw_family(rng, n, rng.integers(1, n + 1, atoms), rng.integers(1, n + 1, atoms))
    instance = workloads._instance(raw)
    families = {role: getattr(instance, role) for role in ("a", "dual", "pert")}
    oracle = workloads.oracle_bounds(raw)

    tracer = spans.Tracer()
    passes = []
    for _ in range(2):
        tracer.reset()
        with tracer.active():
            reports = [cmd.inprocess(families) for cmd in mix.MIX]
        counts = {name: tracer.snapshot()[name] for name in spans.COUNT_METRICS}
        for cmd, report in zip(mix.MIX, reports):
            assert mix.check_report(cmd, report, oracle) == []
        passes.append(([mix.digest(r) for r in reports], counts))

    (digests_1, counts_1), (digests_2, counts_2) = passes
    assert digests_1 == digests_2
    assert counts_1 == counts_2
    assert counts_1["linalg.np_eig_calls"] > 0 and counts_1["linalg.np_svd_calls"] > 0
