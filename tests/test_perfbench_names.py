"""The benchmark's span tracing finds the package's functions by name.

perfbench/tracing.py wraps functions by replacing module attributes, and
perfbench names the spans it needs as "layer.function".  These tests read
those names from the benchmark's files, unchanged, and check that each
one exists and that a race reaches its solvers through the attributes the
tracer replaces.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from noncvxpro import baselines, bench

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's tracing and workloads modules, imported from their files."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("tracing", "workloads", "checks")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def _resolve(span: str):
    """The package object a span name denotes, checked the way the tracer wraps it."""
    layer, *path = span.split(".")
    module = importlib.import_module(f"noncvxpro.{layer}")
    owner, obj = None, module
    for part in path:
        assert hasattr(obj, part), f"{span}: noncvxpro.{layer} has no {'.'.join(path)}"
        owner, obj = obj, getattr(obj, part)
    if len(path) == 2:  # a traced method, wrapped only where the class defines it
        assert path[1] in vars(owner), f"{span}: {path[0]} does not define {path[1]}"
    elif inspect.isfunction(obj):  # a public function, wrapped only in its own module
        assert not path[0].startswith("_") and obj.__module__ == module.__name__, span
    else:  # a traced constructor names its class
        assert inspect.isclass(obj), span
    return obj


def test_every_traced_name_exists_in_the_package(perfbench):
    tracing, workloads = perfbench
    names = set(tracing.SOLVER_FUNCS.values()) | set(tracing.ROOT_PHASES)
    for spans in workloads.REQUIRED_SPANS.values():
        names |= set(spans)
    for span in sorted(names):
        _resolve(span)
    # each raced name runs the function its span is named after
    for solver, span in tracing.SOLVER_FUNCS.items():
        assert bench._runner(solver) is _resolve(span), solver


def test_race_reaches_solvers_through_module_attributes(monkeypatch):
    called = []
    for module, attr in ((bench, "run_noncvxpro"), (baselines, "ista")):
        def spy(*args, _orig=getattr(module, attr), _attr=attr, **kwargs):
            called.append(_attr)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    cfg = bench.BenchConfig(problem="synth:m=8,n=6,s=2", solvers=("noncvx-pro", "ista"), iters=5)
    rep = bench.run_benchmark(cfg)
    assert not rep.failures
    assert called == ["run_noncvxpro", "ista"]
