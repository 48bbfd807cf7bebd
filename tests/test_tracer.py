"""The benchmark's tracer wraps library names by attribute lookup, so a
library change that drops a wrapped name breaks traced runs; this guards
those names from the library's own test suite."""

import importlib.util
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_on_the_library_and_restores_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    eigh = np.linalg.eigh
    t = tracer.Tracer()
    try:
        t.install()
        assert np.linalg.eigh is not eigh
    finally:
        t.uninstall()
    assert np.linalg.eigh is eigh
