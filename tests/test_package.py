import importlib
import importlib.util
import os
import subprocess
import sys

import tsgkit

SRC = os.path.dirname(os.path.dirname(tsgkit.__file__))
TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)

# Tracer targets the program no longer has: `schematize` calls
# `classify_batch`, and synthesis picks atoms from per-example offsets
# (`generate_atoms` is now the tests' reference, in oracle_enum).  Their
# layers read 0 until the tracer is pointed elsewhere.
STALE_TARGETS = {
    ("tsgkit.pipeline", "classify"),
    ("tsgkit.synthesis", "generate_atoms"),
}


def test_import_loads_no_submodule():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, tsgkit; print(sorted(m for m in sys.modules if m.startswith('tsgkit.')))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_bench_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {
        (module, attr)
        for module, attr, _, _ in tracing.WRAPS
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing <= STALE_TARGETS
