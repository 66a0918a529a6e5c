"""Span recording around the package's public functions, from outside the
package, and the per-layer metrics derived from the spans.

``installed`` replaces each traced function at every module attribute
that holds it, so a call is recorded whichever name its caller looks it up
by (``cli.fluorescence_lineshape`` and ``lindblad.fluorescence_lineshape``
are one function). Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

PACKAGE = "spinfaraday"

# Span name -> (module, attribute). The span name is "<layer>.<function>".
TRACED = {
    "lindblad.fluorescence_lineshape": ("lindblad", "fluorescence_lineshape"),
    "lindblad.liouvillian": ("lindblad", "liouvillian"),
    "lindblad.transmittance_steady": ("lindblad", "transmittance_steady"),
    "montecarlo.threshold_trajectories": ("montecarlo", "threshold_trajectories"),
    "montecarlo.sample_selected_trajectories": ("montecarlo", "sample_selected_trajectories"),
    "montecarlo.coupling_matrix": ("montecarlo", "coupling_matrix"),
    "montecarlo.average_transmittance": ("montecarlo", "average_transmittance"),
    "montecarlo.average_rotation": ("montecarlo", "average_rotation"),
    "optics.t_minus_value": ("optics", "t_minus_value"),
    "optics.rotation_curve": ("optics", "rotation_curve"),
    "measurement.conditional_curves": ("measurement", "conditional_curves"),
    "measurement.population_vs_detuning": ("measurement", "population_vs_detuning"),
    "measurement.pure_rotation_curves": ("measurement", "pure_rotation_curves"),
    "scans.scan_length": ("scans", "scan_length"),
    "scans.scan_reflectivity": ("scans", "scan_reflectivity"),
    "scans.max_rotation": ("scans", "max_rotation"),
    "scans.lossless_rotation_point": ("scans", "lossless_rotation_point"),
    "params.build_settings": ("params", "build_settings"),
    "params.load_config": ("params", "load_config"),
    "params.params_for_geometry": ("params", "params_for_geometry"),
}

# Dense linear solves are recorded at the numpy boundary, and only when the
# caller is the lindblad module.
SOLVE_SPAN = "lindblad.solve"
_SOLVERS = ("solve", "lstsq")

CLI_SPAN = "cli.main"

# Per-layer metric -> (unit, how it is read from one iteration's spans).
# ("total", span): summed duration; ("self", span): summed self time;
# ("calls", span): span count; ("count", key): a counter the wrappers or the
# runner recorded. solve_us, process.*, trace.overhead_s and setup.*
# are computed by the runner.
LAYER_METRICS: dict[str, tuple[str, tuple[str, str] | None]] = {
    "lindblad.lineshape_s": ("s", ("total", "lindblad.fluorescence_lineshape")),
    "lindblad.lineshape_self_s": ("s", ("self", "lindblad.fluorescence_lineshape")),
    "lindblad.liouvillian_calls": ("count", ("calls", "lindblad.liouvillian")),
    "lindblad.liouvillian_s": ("s", ("total", "lindblad.liouvillian")),
    "lindblad.solves": ("count", ("count", "lindblad.solves")),
    "lindblad.solve_us": ("us", None),
    "lindblad.fock_cutoff": ("count", ("count", "lindblad.fock_cutoff")),
    "lindblad.failed_points": ("count", ("count", "lindblad.failed_points")),
    "lindblad.solve_bytes_computed": ("bytes", ("count", "lindblad.solve_bytes_computed")),
    "lindblad.transmittance_steady_s": ("s", ("total", "lindblad.transmittance_steady")),
    "montecarlo.threshold_trajectories_s": ("s", ("total", "montecarlo.threshold_trajectories")),
    "montecarlo.threshold_trajectories_calls": ("count", ("calls", "montecarlo.threshold_trajectories")),
    "montecarlo.sample_selected_s": ("s", ("total", "montecarlo.sample_selected_trajectories")),
    "montecarlo.coupling_matrix_s": ("s", ("total", "montecarlo.coupling_matrix")),
    "montecarlo.coupling_matrix_calls": ("count", ("calls", "montecarlo.coupling_matrix")),
    "montecarlo.average_transmittance_self_s": ("s", ("self", "montecarlo.average_transmittance")),
    "montecarlo.average_rotation_self_s": ("s", ("self", "montecarlo.average_rotation")),
    "montecarlo.trajectories": ("count", ("count", "montecarlo.trajectories")),
    "optics.t_minus_value_s": ("s", ("total", "optics.t_minus_value")),
    "optics.t_minus_value_calls": ("count", ("calls", "optics.t_minus_value")),
    "optics.t_minus_value_elements": ("count", ("count", "optics.t_minus_value_elements")),
    "optics.rotation_curve_calls": ("count", ("calls", "optics.rotation_curve")),
    "measurement.conditional_curves_self_s": ("s", ("self", "measurement.conditional_curves")),
    "measurement.population_vs_detuning_self_s": ("s", ("self", "measurement.population_vs_detuning")),
    "measurement.pure_rotation_curves_s": ("s", ("total", "measurement.pure_rotation_curves")),
    "scans.scan_length_s": ("s", ("total", "scans.scan_length")),
    "scans.scan_reflectivity_s": ("s", ("total", "scans.scan_reflectivity")),
    "scans.max_rotation_calls": ("count", ("calls", "scans.max_rotation")),
    "scans.max_rotation_self_s": ("s", ("self", "scans.max_rotation")),
    "scans.lossless_rotation_point_calls": ("count", ("calls", "scans.lossless_rotation_point")),
    "params.build_settings_s": ("s", ("total", "params.build_settings")),
    "params.load_config_s": ("s", ("total", "params.load_config")),
    "params.params_for_geometry_calls": ("count", ("calls", "params.params_for_geometry")),
    "cli.self_s": ("s", ("self", CLI_SPAN)),
    "cli.bytes_written": ("bytes", ("count", "cli.bytes_written")),
    "cli.files_written": ("count", ("count", "cli.files_written")),
    "setup.import_numpy_s": ("s", None),
    "setup.import_scipy_s": ("s", None),
    "setup.import_spinfaraday_s": ("s", None),
    "process.cpu_s": ("s", None),
    "process.wall_s": ("s", None),
    "process.calibration_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Records spans and counters; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.run = ""
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), math.nan, parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, key: str, amount: float) -> None:
        self.counters[self.run][key] += amount

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def _record_result(tracer: Tracer, name: str, result) -> None:
    if name == "optics.t_minus_value":
        tracer.count("optics.t_minus_value_elements", int(np.size(result)))
    elif name == "lindblad.fluorescence_lineshape":
        counters = tracer.counters[tracer.run]
        counters["lindblad.fock_cutoff"] = max(counters["lindblad.fock_cutoff"], result.fock_cutoff)
        tracer.count("lindblad.failed_points", result.failed_points)
    elif name in ("montecarlo.threshold_trajectories", "montecarlo.sample_selected_trajectories"):
        tracer.count("montecarlo.trajectories", len(result))


def _traced(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span)
        _record_result(tracer, name, result)
        return result

    return wrapper


def _traced_solver(tracer: Tracer, func):
    @functools.wraps(func)
    def wrapper(a, b, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller != f"{PACKAGE}.lindblad":
            return func(a, b, *args, **kwargs)
        a_arr = np.asarray(a)
        systems = int(np.prod(a_arr.shape[:-2], dtype=np.int64)) if a_arr.ndim > 2 else 1
        span = tracer.open(SOLVE_SPAN)
        try:
            result = func(a, b, *args, **kwargs)
        finally:
            tracer.close(span)
        tracer.count("lindblad.solves", systems)
        tracer.count("lindblad.solve_bytes_computed", a_arr.nbytes + np.asarray(b).nbytes)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function at all its module bindings; undo on exit."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    patches: list[tuple[object, str, object]] = []
    for span_name, (module_name, attr) in TRACED.items():
        source = importlib.import_module(f"{PACKAGE}.{module_name}")
        func = getattr(source, attr, None)
        if func is None:
            continue
        wrapper = _traced(tracer, span_name, func)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is func:
                    patches.append((module, key, value))
                    setattr(module, key, wrapper)
    for attr in _SOLVERS:
        func = getattr(np.linalg, attr)
        patches.append((np.linalg, attr, func))
        setattr(np.linalg, attr, _traced_solver(tracer, func))
    try:
        yield
    finally:
        for module, key, value in reversed(patches):
            setattr(module, key, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.id], key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def iteration_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one iteration from its spans and counters."""
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for span in spans:
        total[span.name] += span.end - span.start
        own[span.name] += selfs[span.id]
        calls[span.name] += 1
    read = {"total": total, "self": own, "calls": calls, "count": counters}
    out: dict[str, float] = {}
    for metric, (_, source) in LAYER_METRICS.items():
        if source is not None:
            kind, key = source
            out[metric] = float(read[kind][key])
    solves = counters["lindblad.solves"]
    out["lindblad.solve_us"] = 1e6 * total[SOLVE_SPAN] / solves if solves else 0.0
    return out
