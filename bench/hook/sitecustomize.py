"""Start-up hook for the node processes of a traced benchmark run.

``bench/run.py --trace`` puts this directory on the children's
``PYTHONPATH``; Python imports ``sitecustomize`` before anything else,
so the layer entry points are wrapped (``bench/tracing.py``) before
``python -m repro live-node`` builds its stack.  Without the
environment variable that names the output directory this is a no-op.
"""

import importlib.util
import os

if os.environ.get("REPRO_BENCH_TRACE_DIR"):
    # Loaded by path: putting bench/ itself on sys.path would let its
    # module names shadow the program's.
    _spec = importlib.util.spec_from_file_location(
        "_repro_bench_tracing",
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tracing.py"),
    )
    _tracing = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_tracing)
    _tracing.install_from_env()
