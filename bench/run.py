"""Benchmark of the spinfaraday CLI on one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload lineshape --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` and ``spinfaraday.cli.main`` is
called in-process, one CLI invocation at a time. A run

1. starts fresh interpreters that import ``spinfaraday.cli`` and build its
   parser, and takes the median as ``setup_s``;
2. runs one warm-up iteration at the reference seed, whose outputs must
   match ``bench/reference``;
3. repeats the workload at the seed derived from ``--seed`` for
   ``--seconds``, checking every output of every iteration, and times the
   calibration kernel of ``calibration.py`` next to each untraced
   iteration; ``wall_norm_s`` is the median iteration time scaled by it.

With ``--trace 0`` the result line carries the end-to-end metrics. With
``--trace 1`` half the time runs untraced and half traced, and the result
line carries the per-layer metrics derived from the spans. A human-readable
summary precedes the result line; the full report, with the environment
block, and the span file go to ``.bench_runs/`` in the checkout. The exit
code is 0 when every output check passes, 1 when one fails, and 2 when the
checkout holds no sources to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Serial runs: BLAS runs on one thread, so that a second thread spinning on
# a shared core does not time the host's other tenants. Set before numpy is
# first imported, here and in the set-up probes.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

sys.path.insert(0, HERE)

import calibration  # noqa: E402
from checks import check_outputs, command_of, digest  # noqa: E402
from tracing import CLI_SPAN, LAYER_METRICS, Tracer, installed, iteration_metrics  # noqa: E402
from workloads import CLI_DEFAULT_SEEDS, REFERENCE_SEED, WORKLOADS, cli_seed  # noqa: E402

SETUP_PROBES = 5
MIN_ITERATIONS = 2
CALIBRATION_SHARE = 0.25  # calibration time after an iteration, as a share of it
PROBE_TIMEOUT_S = 60
MAX_PRINTED = 20  # problems printed in the summary; the report lists all
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import spinfaraday.cli as cli; cli.build_parser()"
)
IMPORT_LAYERS = {"numpy": "setup.import_numpy_s", "scipy": "setup.import_scipy_s",
                 "spinfaraday": "setup.import_spinfaraday_s"}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def _probe(importtime: bool) -> tuple[float, str]:
    """One fresh interpreter up to the parser built: (wall seconds, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", PROBE, SRC]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stderr


def import_seconds(importtime_log: str) -> dict[str, float]:
    """Self import time summed per top-level package from ``-X importtime``."""
    out = dict.fromkeys(IMPORT_LAYERS.values(), 0.0)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        metric = IMPORT_LAYERS.get(name.split(".")[0])
        if metric:
            out[metric] += int(self_us) * 1e-6
    return out


def environment(workload) -> dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    caches = {}
    cache_root = "/sys/devices/system/cpu/cpu0/cache"  # the caches cpu0 sees
    with contextlib.suppress(OSError):
        for index in sorted(os.listdir(cache_root)):
            if not index.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_root, index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            caches[f"L{fields['level']} {fields['type']}"] = fields["size"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "working_set_bytes_computed": workload.working_set_bytes,
    }


class Runner:
    """Runs and checks iterations of one workload."""

    def __init__(self, cli_main, workload, run_dir: str) -> None:
        self.main = cli_main
        self.workload = workload
        self.run_dir = run_dir
        self.config_path = None
        if workload.config is not None:
            self.config_path = os.path.join(run_dir, "workload.cfg")
            with open(self.config_path, "w", encoding="utf-8") as fh:
                fh.write(workload.config)
        self.records: list[dict] = []
        self.first_digest: dict[str, str] | None = None

    def iteration(self, seed: int, tag: str, tracer: Tracer | None = None) -> dict:
        out_dir = os.path.join(self.run_dir, tag)
        os.makedirs(out_dir)
        if tracer is not None:
            tracer.run = tag
        codes: dict[str, object] = {}
        stdout: dict[str, str] = {}
        stderr: dict[str, str] = {}
        wall = cpu = 0.0
        for argv in self.workload.invocations(seed, out_dir, self.config_path):
            out, err = io.StringIO(), io.StringIO()
            cpu_start = time.process_time()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if tracer is None:
                        code = self.main(argv)
                    else:
                        with tracer.span(CLI_SPAN):
                            code = self.main(argv)
                except (Exception, SystemExit):  # a crash is a failed invocation
                    code = traceback.format_exc()
            wall += time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            codes[argv[0]] = code
            stdout[argv[0]] = out.getvalue()
            stderr[argv[0]] = err.getvalue()

        problems = [
            (command, code if isinstance(code, str) else f"exit {code}: {stderr[command]}")
            for command, code in codes.items()
            if code != 0
        ]
        try:
            problems += check_outputs(self.workload.name, out_dir, seed, stdout)
        except Exception:  # a check that cannot read an output fails every invocation
            problems += [(command, traceback.format_exc()) for command in codes]
        files = digest(out_dir)
        if tag != "reference":
            if self.first_digest is None:
                self.first_digest = files
            for name in sorted(set(files) | set(self.first_digest)):
                if files.get(name) != self.first_digest.get(name):
                    problems.append((command_of(name), f"{name}: not byte-identical to the first iteration"))
        sizes = [os.path.getsize(os.path.join(out_dir, name)) for name in files]
        shutil.rmtree(out_dir)

        bad = {command for command, _ in problems}
        failed = sum(1 for command in codes if command in bad or not bad <= set(codes))
        record = {
            "tag": tag, "seed": seed, "wall_s": wall, "cpu_s": cpu, "traced": tracer is not None,
            "attempted": len(codes), "failed": failed, "problems": [list(p) for p in problems],
        }
        if tracer is not None:
            tracer.count("cli.bytes_written", sum(sizes))
            tracer.count("cli.files_written", len(sizes))
        self.records.append(record)
        return record

    def timed(self, seed: int, seconds: float, tracer: Tracer | None = None, between=None,
              calibrator: calibration.Calibrator | None = None) -> list[dict]:
        """Iterate for ``seconds``, at least MIN_ITERATIONS times, calling
        ``between()`` after each iteration.

        With a calibrator, the calibration kernel runs before the first
        iteration and after each one, and an iteration's ``cal_s`` is the
        mean of the kernel times on either side of it."""
        records = []
        before = calibrator.slot(0.0) if calibrator else 0.0
        start = time.perf_counter()
        while len(records) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            tag = f"it{len(self.records):03d}"
            record = self.iteration(seed, tag, tracer)
            if calibrator:
                after = calibrator.slot(CALIBRATION_SHARE * record["wall_s"])
                record["cal_s"] = (before + after) / 2
                record["wall_norm_s"] = record["wall_s"] * calibration.REFERENCE_S / record["cal_s"]
                before = after
            records.append(record)
            if between is not None:
                between()
        return records


def traced_iterations(tracer: Tracer, traced: list[dict]) -> list[dict[str, float]]:
    """Per-layer metrics of each traced iteration."""
    by_run = defaultdict(list)
    for span in tracer.spans:
        by_run[span.run].append(span)
    return [iteration_metrics(by_run[r["tag"]], tracer.counters[r["tag"]]) for r in traced]


def layer_metrics(per_iteration: list[dict], traced: list[dict], untraced: list[dict],
                  setup_logs: list[str]) -> dict[str, float]:
    """Medians over iterations of every per-layer metric."""
    values = {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
    imports = [import_seconds(log) for log in setup_logs]
    for name in IMPORT_LAYERS.values():
        values[name] = statistics.median(entry[name] for entry in imports)
    values["process.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    values["process.wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    values["process.calibration_s"] = statistics.median(r["cal_s"] for r in untraced)
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in untraced)
    )
    return values


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinfaraday", "cli.py")):
        print(f"error: no sources to benchmark under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(RUNS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)

    # Set-up probes are spread between the timed iterations, so that a
    # passing slowdown of the host weighs on few of them.
    probes: list[tuple[float, str]] = []

    def probe() -> None:
        if len(probes) < SETUP_PROBES:
            probes.append(_probe(importtime=bool(args.trace)))

    probe()
    sys.path.insert(0, SRC)
    import spinfaraday.cli as cli

    runner = Runner(cli.main, workload, run_dir)
    runner.iteration(REFERENCE_SEED, "reference")

    tracer = Tracer()
    with calibration.Calibrator() as calibrator:
        if args.trace:
            untraced = runner.timed(args.seed, args.seconds / 2, between=probe, calibrator=calibrator)
            with installed(tracer):
                traced = runner.timed(args.seed, args.seconds / 2, tracer)
            timed = untraced + traced
        else:
            untraced = timed = runner.timed(args.seed, args.seconds, between=probe, calibrator=calibrator)
    while len(probes) < SETUP_PROBES:
        probe()
    setup = [wall for wall, _ in probes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r["attempted"] for r in runner.records)
    failed = sum(r["failed"] for r in runner.records)
    count_problems = []
    if args.trace:
        per_iteration = traced_iterations(tracer, traced)
        values = layer_metrics(per_iteration, traced, untraced, [log for _, log in probes])
        for record, measured in zip(traced, per_iteration):
            for name, expected in workload.exact_counts.items():
                if measured[name] != expected:
                    count_problems.append(f"{record['tag']}: {name} = {measured[name]:.0f}, expected {expected}")
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
        tracer.write(os.path.join(run_dir, "trace.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_norm_s": {"value": statistics.median(r["wall_norm_s"] for r in timed), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    correct = failed == 0 and not count_problems

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "cli_seeds": {s[0]: cli_seed(s[0], args.seed) for s in workload.steps if s[0] in CLI_DEFAULT_SEEDS},
        "trace": args.trace,
        "environment": environment(workload),
        "setup_s": quartiles(setup),
        "wall_s_untraced": quartiles([r["wall_s"] for r in untraced]),
        "wall_norm_s_untraced": quartiles([r["wall_norm_s"] for r in untraced]),
        "cal_s_untraced": quartiles([r["cal_s"] for r in untraced]),
        "cpu_s_untraced": quartiles([r["cpu_s"] for r in untraced]),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "count_problems": count_problems,
        "iterations": runner.records,
        "metrics": metrics,
    }
    if args.trace:
        report["wall_s_traced"] = quartiles([r["wall_s"] for r in traced])
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  report {os.path.relpath(run_dir, ROOT)}/report.json")
    for name in ("wall_s", "wall_norm_s", "cal_s"):
        q = report[f"{name}_untraced"]
        print(f"{name} untraced: median {q['median']:.4f} s, quartiles {q['q1']:.4f}..{q['q3']:.4f} s over {q['n']} iterations")
    print(f"environment {json.dumps(report['environment'])}")
    print(f"  failed_ratio = {failed / attempted!r} ratio ({failed} failed of {attempted} CLI invocations)")
    failures = [(r["tag"], command, message) for r in runner.records for command, message in r["problems"]]
    for tag, command, message in failures[:MAX_PRINTED]:
        print(f"FAILED {tag} {command}: {message.strip()[:500]}")
    if len(failures) > MAX_PRINTED:
        print(f"FAILED ... {len(failures) - MAX_PRINTED} more problems in the report")
    for message in count_problems:
        print(f"COUNT DRIFT {message}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
