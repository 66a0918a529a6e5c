"""The benchmark's bindings to the package resolve.

``bench/tracing.py`` wraps each function its ``TRACED`` table names and
skips, without a word, a binding it cannot find; a renamed function would
then read zero in its per-layer metrics, or move a count that
``bench/workloads.py`` pins, and only a traced benchmark run would show it.
Every workload is also replayed here at the reference seed, traced, so
that a drift of an exact count, or of an output from its stored reference
(``bench/checks.py``), shows in the test suite and not only in a benchmark
run. The bench modules are compiled from source, so these tests read
``bench/`` and write only into pytest's temporary directory.
"""

import contextlib
import importlib
import io
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
sys.modules["workloads"] = workloads  # checks.py imports it by name
checks = load("checks")
del sys.modules["workloads"]


@pytest.mark.parametrize("span", sorted(tracing.TRACED))
def test_traced_binding_is_a_package_callable(span):
    module, attr = tracing.TRACED[span]
    source = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    assert callable(getattr(source, attr, None)), f"{span}: {module}.{attr} is missing"


def test_pinned_counts_are_layer_metrics():
    for name, workload in workloads.WORKLOADS.items():
        unknown = set(workload.exact_counts) - set(tracing.LAYER_METRICS)
        assert not unknown, f"{name} pins counts that are not layer metrics: {sorted(unknown)}"


PINNED = [name for name, workload in workloads.WORKLOADS.items() if workload.exact_counts]


def test_pinned_workloads_are_the_expected_three():
    assert PINNED == ["lineshape", "ensemble", "design"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_workload_reproduces_its_pinned_counts(name, tmp_path):
    # Imported first, as the benchmark does: installed() wraps the traced
    # functions in the package modules already loaded.
    import spinfaraday.cli as cli

    workload = workloads.WORKLOADS[name]
    config_path = None
    if workload.config is not None:
        config_path = tmp_path / "workload.cfg"
        config_path.write_text(workload.config, encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    tracer = tracing.Tracer()
    tracer.run = name
    stdout = {}
    with tracing.installed(tracer):
        for argv in workload.invocations(workloads.REFERENCE_SEED, str(out_dir), config_path):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                assert cli.main(argv) == 0, argv
            stdout[argv[0]] = captured.getvalue()
    measured = tracing.iteration_metrics(tracer.spans, tracer.counters[name])
    for metric, expected in workload.exact_counts.items():
        assert measured[metric] == expected, metric
    assert checks.check_outputs(name, str(out_dir), workloads.REFERENCE_SEED, stdout) == []
