"""The benchmark's bindings to the package resolve.

``bench/tracing.py`` wraps each function its ``TRACED`` table names and
skips, without a word, a binding it cannot find; a renamed function would
then read zero in its per-layer metrics, or move a count that
``bench/workloads.py`` pins, and only a traced benchmark run would show it.
The bench modules are compiled from source here, so this test reads
``bench/`` and writes nothing.
"""

import importlib
import os
import sys
import types

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load(name):
    """Execute bench/<name>.py as a fresh module, leaving no bytecode behind."""
    path = os.path.join(BENCH, f"{name}.py")
    module = types.ModuleType(f"_bench_{name}")
    module.__file__ = path
    sys.modules[module.__name__] = module  # dataclasses look their module up
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


tracing = load("tracing")
workloads = load("workloads")


@pytest.mark.parametrize("span", sorted(tracing.TRACED))
def test_traced_binding_is_a_package_callable(span):
    module, attr = tracing.TRACED[span]
    source = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    assert callable(getattr(source, attr, None)), f"{span}: {module}.{attr} is missing"


def test_pinned_counts_are_layer_metrics():
    for name, workload in workloads.WORKLOADS.items():
        unknown = set(workload.exact_counts) - set(tracing.LAYER_METRICS)
        assert not unknown, f"{name} pins counts that are not layer metrics: {sorted(unknown)}"
