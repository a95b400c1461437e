"""CLI reports are byte-identical at every BLAS thread count.

Each command runs in a fresh interpreter started with 1 and with 2 BLAS
threads, on one seeded n=192 frame (and a perturbed copy for ``perturb``).
At n=192 a multithreaded LAPACK eigensolver, SVD or inverse changes the
last bits of its result, so this holds only because ``linalg`` runs each
decomposition on one thread.  The pin itself restores the thread count after
each call, also under concurrent Python threads, and ``linalg`` works
without it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from gfusion import linalg, save_family
from helpers import lowrank_family, perturbed_family

COMMANDS = {
    "bounds": lambda a, b, out: ["bounds", a],
    "perturb": lambda a, b, out: ["perturb", a, b, "--lambda1", "0.2", "--lambda2", "0", "--eps", "0"],
    "dual": lambda a, b, out: ["dual", a, "--out", out],
    "resolution": lambda a, b, out: ["resolution", a, "canonical-right"],
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("threads")
    fam = lowrank_family(192, 192)
    save_family(root / "a.json", fam)
    save_family(root / "b.json", perturbed_family(fam, [1.05] * len(fam.atoms)))
    return root


def _stdout(argv, threads: int) -> bytes:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-m", "gfusion.cli", *argv], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_stdout_is_identical_at_one_and_two_blas_threads(documents, command):
    a, b = str(documents / "a.json"), str(documents / "b.json")
    outputs = [_stdout(COMMANDS[command](a, b, str(documents / f"dual{t}.json")), t) for t in (1, 2)]
    assert outputs[0] == outputs[1]


_CONCURRENT_SCRIPT = """
import sys
import threading
import numpy as np
from gfusion import linalg

sys.setswitchinterval(1e-6)  # switch Python threads as often as possible

get = linalg._BLAS_THREADS[0]
rng = np.random.default_rng(3)
a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
want = linalg.inverse(a).tobytes()
before = get()
same = []
def work():
    same.extend(linalg.inverse(a).tobytes() == want for _ in range(5))
threads = [threading.Thread(target=work) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
print(before == get(), all(same), len(same))
"""


@pytest.mark.skipif(linalg._BLAS_THREADS is None, reason="this numpy's BLAS exports no thread-count setter")
def test_pin_restores_the_thread_count_under_concurrent_python_threads():
    """Four Python threads invert at once in a 2-thread process: the same bits each time, and the count restored."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", _CONCURRENT_SCRIPT], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "20"]


def test_linalg_works_without_the_pin(monkeypatch):
    """With no thread-count symbol found, every call runs unpinned."""
    monkeypatch.setattr(linalg, "_BLAS_THREADS", None)
    assert linalg.inverse(2.0 * np.eye(3)).tolist() == (0.5 * np.eye(3)).tolist()
