"""The benchmark's per-layer trace names functions of blcalc, and its
workloads check every answer; a rename, a removal or a wrong answer must fail
here, not only in the benchmark's own self-test."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_exist():
    tracer = _load("bench_tracer", TRACER)
    assert tracer.LAYER_FUNCTIONS
    for name in tracer.LAYER_FUNCTIONS:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"blcalc.{module}"), func, None)), name


def test_amalgam_workload_answers_check(tmp_path):
    # both routes agree, legs are embeddings, the square commutes, the target
    # is in the universe, and the spans with no amalgam give None
    workloads = _load("bench_workloads", BENCH / "workloads.py")
    queries = list(workloads.Amalgam(seed=1, tiny=True, workdir=tmp_path).queries())
    assert len(queries) == 12
    for q in queries:
        assert q.check(q.call()), q.label


def test_every_traced_layer_function_is_called(tmp_path):
    # one tiny pass of every workload, traced as the benchmark traces it,
    # must reach every layer function and answer every query correctly
    tracer_mod = _load("bench_tracer", TRACER)
    workloads = _load("bench_workloads", BENCH / "workloads.py")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for name, workload in workloads.WORKLOADS.items():
            for q in workload(seed=7, tiny=True, workdir=tmp_path).queries():
                tracer.active = True
                try:
                    q.result = q.call()
                finally:
                    tracer.active = False
                assert q.check(q.result), (name, q.label)
    finally:
        tracer.uninstall()
    never = [name for name, stat in tracer.stats.items() if not stat.calls]
    assert not never, never


def test_readme_cli_examples_are_the_workload_commands():
    # the cli workload checks README_COMMANDS against golden bytes, so an
    # edited README example must be mirrored there; table files are the
    # workload's {l2} and {g3} placeholders
    import shlex

    readme = (BENCH.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    tables = {"l2.json": "{l2}", "g3.json": "{g3}"}
    examples = [
        tuple(tables.get(arg, arg) for arg in shlex.split(line, comments=True)[1:])
        for line in block.splitlines()
        if line.startswith("blcalc ")
    ]
    workloads = _load("bench_workloads", BENCH / "workloads.py")
    assert examples == list(workloads.README_COMMANDS)
