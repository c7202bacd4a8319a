"""Check a benchmark smoke run against the pinned values of its workload.

Usage: python .github/smoke_pins.py WORKLOAD OUTPUT

OUTPUT is what ``perfbench/run.py --workload WORKLOAD --seed 1 --seconds 0
--trace 1`` printed: its second-to-last line is the run report, its last
line the metrics. Every value that differs from :data:`PINS`, and every
stage of :data:`POSITIVE` that reads 0, is printed; the exit status is 1
if there is any.

Why each value is pinned:

- ``csv_sha256``: ``perfbench/baseline.json``'s digests predate the robust
  log-MAP soft output (coded-lspilot), the robust hard search on the
  whitened channel (the uncoded workloads) and the per-cell random streams
  shared by a cell's detectors (all three), so every workload's seed-1
  records are pinned to their digest here.
- ``numkit.sorted_qr.calls``: the sorted QRs must run through the name the
  tracer's plan stage reads.
- ``detectors.robust_plan.calls``, ``detectors.build_extended.calls``: the
  tree-search plans must run through the names the tracer wraps, or the
  plan stage loses them.
- the search-entry calls and the ``search`` stages: the tree searches (on
  coded-lspilot, the robust soft list through ``bench.kbest_detect``) must
  run through the entry points the tracer wraps, or their search stage
  reads 0 and drops out of view; uncoded-short shows the fixed per-call
  cost of the search helpers on its 2-vector blocks.
- the estimation calls and the ``estimate`` stage: the LS channel and
  covariance estimates must run through the names the tracer wraps.
- the decoder counts: every codeword must be decoded through
  ``fec.decode_min_sum``, the name the tracer reads convergence and
  iteration counts from.
"""

import json
import sys

PINS = {
    "uncoded-long": {
        "csv_sha256": "7956ed3780fc597fc2405e86419d0181e00004d57bb53e2b4f39fb8f40a286f8",
        "numkit.sorted_qr.calls": 96,
        "detectors.robust_plan.calls": 24,
        "detectors.build_extended.calls": 72,
        "detectors.kbest_detect.calls": 24,
        "detectors.sr_kbest_detect.calls": 48,
    },
    "uncoded-short": {
        "csv_sha256": "9fca3392da3a44885b3d27c89616f4377afd95eee0c30773f9bfc95cbfb64a05",
        "numkit.sorted_qr.calls": 600,
        "detectors.robust_plan.calls": 300,
        "detectors.build_extended.calls": 300,
        "detectors.osic_detect.calls": 300,
        "detectors.sr_kbest_detect.calls": 300,
    },
    "coded-lspilot": {
        "csv_sha256": "a82fdba0be608db06dc8519ba20e11b58c2d120e6f877814b8f6684ba1093b53",
        "numkit.sorted_qr.calls": 120,
        "detectors.robust_plan.calls": 120,
        "detectors.build_extended.calls": 0,
        "detectors.kbest_detect.calls": 120,
        "airlink.estimate_channel.calls": 240,
        "airlink.estimate_covariance.calls": 240,
        "fec.decode_min_sum.calls": 240,
        "fec.decode_min_sum.converged": 167,
        "fec.decode_min_sum.iterations": 2949,
    },
}

# stages that must read more than 0 us per vector
POSITIVE = {
    "uncoded-long": ["kbest.search", "sr-kbest.search", "robust-sr-kbest.search"],
    "uncoded-short": ["osic.search", "robust-sr-kbest.search"],
    "coded-lspilot": ["robust-sr-kbest.estimate", "robust-sr-kbest.search"],
}


def read_run(path):
    """``(report, result)``: the last two JSON lines of a smoke run."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def observed(report, result):
    """Every value a pin may name, read off one smoke run."""
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["correct"] = result["correct"]
    values["csv_sha256"] = report["csv_sha256"]
    calls = values.get("fec.decode_min_sum.calls", 0)
    values["fec.decode_min_sum.converged"] = round(
        values.get("fec.decode_min_sum.converged_frac", 0) * calls
    )
    values["fec.decode_min_sum.iterations"] = round(
        values.get("fec.decode_min_sum.iters_mean", 0) * calls
    )
    return values


def mismatches(workload, values):
    """One line for each pinned value that differs."""
    expected = {"correct": True, **PINS[workload]}
    out = [
        f"{name}: expected {want!r}, got {values.get(name)!r}"
        for name, want in expected.items()
        if values.get(name) != want
    ]
    for stage in POSITIVE[workload]:
        name = f"stage.{stage}.us_per_vec"
        if not values.get(name, 0) > 0:
            out.append(f"{name}: expected > 0, got {values.get(name)!r}")
    return out


def main(argv):
    workload, path = argv
    bad = mismatches(workload, observed(*read_run(path)))
    for line in bad:
        print(f"benchmark {workload}: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
