"""The commands whose verdicts read stacked atom sums print the same bytes at 1 and 2 BLAS threads.

``pair … positivity`` reduces the pair sum, and ``resolution … dual-bounds``
the plain sum, through one pinned product per chunk of stacked factors
(``analysis.atom_sum``).  Unpinned, a multithreaded BLAS may split such a
product's long inner dimension and change its rounding.  Each command runs
in a fresh interpreter on one seeded n=192 low-rank frame.
"""

import os
import subprocess
import sys

import pytest

from gfusion import save_family
from helpers import lowrank_family

COMMANDS = {
    "pair-positivity": lambda a: ["pair", a, a, "positivity"],
    "resolution-dual-bounds": lambda a: ["resolution", a, "dual-bounds"],
}


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    path = tmp_path_factory.mktemp("sums") / "a.json"
    save_family(path, lowrank_family(192, 192))
    return str(path)


def _run(argv, threads: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run([sys.executable, "-m", "gfusion.cli", *argv], env=env, capture_output=True, timeout=300)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_stacked_sum_commands_print_the_same_bytes_at_one_and_two_blas_threads(document, command):
    one, two = (_run(COMMANDS[command](document), t) for t in (1, 2))
    assert one.returncode == 0, one.stderr.decode()
    assert (two.returncode, two.stdout) == (one.returncode, one.stdout)
