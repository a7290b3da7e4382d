"""Run with ``python -m pytest bench/tests`` from the repo root.

The benchmark's modules import each other (and ``repro``) by top-level
name, as they do under ``python3 bench/run.py``.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
