"""The benchmark's per-layer trace names functions of blcalc; a rename or a
removal there must fail here, not only in the benchmark's own self-test."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYER_FUNCTIONS
    for name in tracer.LAYER_FUNCTIONS:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"blcalc.{module}"), func, None)), name
