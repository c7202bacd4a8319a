"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload uncoded-long --seeds 1-10
    python3 perfbench/spread.py ... --record    # also store the result in baseline.json

Runs one ``run.py --trace 0`` process at a time (never two at once, so
runs do not contend with each other), each for ``run_seconds`` of
``BENCHMARK.json``, and prints, per metric, the median and the distance
between the first and third quartile (``statistics.quantiles`` with
``n=4``) as a share of the median. ``--record`` appends those figures as
one more set to the workload's ``sets`` in ``baseline.json``, and stores
the CSV digest and the per-detector BER of each seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    per_metric: dict = {}
    runs = []
    for seed in parse_seeds(args.seeds):
        report, result = run_once(args.workload, seed, seconds)
        runs.append((seed, report, result))
        values = {k: round(m["value"], 6) for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} csv_matches_baseline={report['csv_matches_baseline']} "
              f"{json.dumps(values)}", flush=True)
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
        # unscaled figures, to show what the host-speed reference removes
        for name in ("measured_setup_s", "measured_vectors_per_s", "host_slowdown"):
            if name in report["samples"]:
                per_metric.setdefault(name, []).append(report["samples"][name])

    summary = {name: summarize(vals) for name, vals in per_metric.items() if len(vals) >= 2}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:44s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {spread}")

    if args.record:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        entry = baseline.setdefault("workloads", {}).setdefault(args.workload, {})
        entry.setdefault("sets", []).append({
            "seconds": seconds,
            "seeds": [seed for seed, _, _ in runs],
            "summary": summary,
        })
        entry.setdefault("csv_sha256", {}).update(
            {str(seed): report["csv_sha256"] for seed, report, _ in runs})
        entry.setdefault("ber", {}).update({str(seed): report["ber"] for seed, report, _ in runs})
        baseline["env"] = runs[-1][1]["env"]
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if all(result["correct"] for _, _, result in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
