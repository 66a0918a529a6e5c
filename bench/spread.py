"""Run the benchmark on several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 bench/spread.py --workload lineshape --seeds 10

For every end-to-end metric this prints the median and quartiles over the
runs and the quartile distance as a share of the median, next to the
metric's bound in BENCHMARK.json. Runs are sequential, one fresh process each, with the
run length BENCHMARK.json fixes. The summary is also written to
``.bench_runs/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds first..first+seeds-1")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        values = "  ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct {result['correct']}  {values}", flush=True)

    summary = {}
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:>12}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}  bound {bound}  {verdict}")
    os.makedirs(os.path.join(ROOT, ".bench_runs"), exist_ok=True)
    out = os.path.join(ROOT, ".bench_runs", f"spread-{args.workload}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
