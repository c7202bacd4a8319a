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
  records are pinned to their digest here. uncoded-long's digest moved once
  more when kbest and sr-kbest left the MMSE-extended channel for the plain
  one (``sorted_qr(h_hat)``): only their rows changed. coded-lspilot's
  digest and decoder counts moved when its pilot and covariance slots went
  through ``airlink.apply_channel``, which draws their noise as ``(n_slots,
  n_rx)`` rows rather than ``(n_rx, n_slots)`` columns. All three digests,
  and coded-lspilot's decoder counts, moved once more when ``mrc`` and
  ``mmse-irc`` took one MMSE weight formula with the unit prior ``I`` (it
  was ``sigma_det I`` for mmse-irc) and began to slice the unbiased
  estimate ``x_eq / diag(W h_hat)``: only their rows changed, and each
  workload runs mmse-irc. coded-lspilot's digest and decoder iterations
  moved once more when the coded ``mrc`` and ``mmse-irc`` LLRs became list
  log-MAP over each user's points (``bench.logmap_llrs``) in place of
  max-log: only its mmse-irc rows changed.
- ``detectors.build_extended.calls`` on uncoded-long: 24, osic's plans
  alone, for that same reason (it was 72 while kbest and sr-kbest planned
  on the extension too); ``numkit.sorted_qr.calls`` stays 96, one sorted QR
  per tree-search plan.
- ``numkit.sorted_qr.calls``: the sorted QRs must run through the name the
  tracer's plan stage reads.
- ``detectors.build_extended.calls``: osic's plan must run through the
  name the tracer wraps, or the plan stage loses it.
- ``numkit.inv_sqrt.calls`` and the ``plan`` stages of ``mmse-irc`` and
  ``robust-sr-kbest``: both whiten by the covariance ``r_uu`` through
  ``detectors.whiten``, whose ``inv_sqrt`` is the name the tracer's plan
  stage reads, once per trial each (24 + 24 trials on uncoded-long, 300 +
  300 on uncoded-short, 120 + 120 on coded-lspilot). These pins replace
  ``detectors.robust_plan.calls``, which read 0 once the robust plan was
  composed from ``whiten`` and ``sorted_qr`` in ``bench._detect_uses``;
  one exact gate swapped for another.
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
        "csv_sha256": "1273eaeb62ff355ad9ba38dc1bf69c8aac86b453343a92d6da9b4c72dabc767c",
        "numkit.sorted_qr.calls": 96,
        "numkit.inv_sqrt.calls": 48,
        "detectors.build_extended.calls": 24,
        "detectors.kbest_detect.calls": 24,
        "detectors.sr_kbest_detect.calls": 48,
    },
    "uncoded-short": {
        "csv_sha256": "d05c0b387d19d8b276cee41f129faa32381b01f1a87832691d78707b2737acc7",
        "numkit.sorted_qr.calls": 600,
        "numkit.inv_sqrt.calls": 600,
        "detectors.build_extended.calls": 300,
        "detectors.osic_detect.calls": 300,
        "detectors.sr_kbest_detect.calls": 300,
    },
    "coded-lspilot": {
        "csv_sha256": "7355778357783d5e417e90ecf614108046fd658791f4fcf6b97d5bb758dc30c9",
        "numkit.sorted_qr.calls": 120,
        "numkit.inv_sqrt.calls": 240,
        "detectors.build_extended.calls": 0,
        "detectors.kbest_detect.calls": 120,
        "airlink.estimate_channel.calls": 240,
        "airlink.estimate_covariance.calls": 240,
        "fec.decode_min_sum.calls": 240,
        "fec.decode_min_sum.converged": 171,
        "fec.decode_min_sum.iterations": 2777,
    },
}

# stages that must read more than 0 us per vector
POSITIVE = {
    "uncoded-long": [
        "kbest.search", "sr-kbest.search", "robust-sr-kbest.search",
        "mmse-irc.plan", "robust-sr-kbest.plan",
    ],
    "uncoded-short": [
        "osic.search", "robust-sr-kbest.search", "mmse-irc.plan", "robust-sr-kbest.plan",
    ],
    "coded-lspilot": [
        "robust-sr-kbest.estimate", "robust-sr-kbest.search",
        "mmse-irc.plan", "robust-sr-kbest.plan",
    ],
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
