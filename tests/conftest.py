"""Let interpreters that the tests start import the package from this checkout.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; child
processes (``python -m gfusion.cli``, the cross-thread digests) read
``PYTHONPATH`` instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
