"""mudet benchmark: BER sweeps through ``mudet simulate``, timed in-process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uncoded-long --seed 1 --seconds 30 --trace 0

Each run writes a scenario config derived from ``--seed`` and calls
``mudet.cli.main(["simulate", ...])`` on it again and again until
``--seconds`` are used up. Every sweep re-imports the ``mudet`` package;
the same seed gives the same CSV on every sweep. Each CSV is checked cell
by cell (``check.py``). Set-up time is taken from fresh interpreters
(``setup_probe.py``), started one after another in child processes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced sweeps with traced ones (spans around each layer's functions,
``tracer.py``) and prints the per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result; the line before it is
a JSON report with the environment, sample counts, per-detector BER and
the CSV digest compared against ``baseline.json``. See README.md for why
the workloads are what they are.
"""

import os
from time import monotonic, perf_counter

# Pin BLAS to one thread before numpy is loaded by anything.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# reference units timed before and after each sweep and each set-up probe
CALIBRATION_UNITS = 20
# fresh interpreters started per --trace 0 run; setup_s is their median
SETUP_PROBES = 7

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from check import SweepSpec, check_csv, pooled_ber  # noqa: E402
from tracer import (  # noqa: E402
    END, FULL_WRAPS, NAME, PARENT, STAGE, STAGES, START, TRIAL, TRIAL_SPAN, Tracer,
)

# Shared by every workload: 16 rx x 4 users, QAM16, 2 equal-power
# interferers, exponential antenna correlation 0.5.
COMMON = {
    "n_rx": 16,
    "n_users": 4,
    "n_interferers": 2,
    "rx_correlation": 0.5,
    "interferer_power_ratio": 1.0,
    "constellation": "qam16",
}
BITS_PER_SYMBOL = 4

# Why each workload exists, and what it should and should not move, is in
# README.md. ``trials`` sizes one sweep so that a run holds many sweeps.
WORKLOADS = {
    "uncoded-long": {
        "detectors": ("mmse-irc", "osic", "kbest", "sr-kbest", "robust-sr-kbest"),
        "snr_db": (4.0, 8.0, 12.0),
        "trials": 8,
        "symbols_per_trial": 50,
        "coded": False,
        "ce_mode": "ideal",
    },
    "uncoded-short": {
        "detectors": ("mrc", "mmse-irc", "osic", "robust-sr-kbest"),
        "snr_db": (4.0, 8.0, 12.0),
        "trials": 100,
        "symbols_per_trial": 2,
        "coded": False,
        "ce_mode": "ideal",
    },
    "coded-lspilot": {
        "detectors": ("mmse-irc", "robust-sr-kbest"),
        "snr_db": (5.0, 6.0, 7.0),
        "trials": 40,
        "symbols_per_trial": 50,  # unused when coded: one codeword per trial
        "coded": True,
        "ce_mode": "ls_pilot",
        "pilot_count": 8,
        "covariance_samples": 168,
    },
}

ALL_DETECTORS = ("mrc", "mmse-irc", "osic", "kbest", "sr-kbest", "robust-sr-kbest")
# run by every workload, so their BER is a per-layer metric on each
BER_DETECTORS = ("mmse-irc", "robust-sr-kbest")

END_TO_END_UNITS = {
    "setup_s": "s",
    "vectors_per_s": "1/s",
    "trial_ms.p50": "ms",
    "trial_ms.p99": "ms",
}
SELF_ONLY = ("fec.build_code", "bench.parse_config", "cli.main", "bench.run_scenario")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    functions = dict.fromkeys(name for _, _, name in FULL_WRAPS if name not in SELF_ONLY)
    for name in functions:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.us_per_call": "us"})
    units.update({"fec.decode_min_sum.iters_mean": "count", "fec.decode_min_sum.converged_frac": "ratio"})
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for det in ALL_DETECTORS:
        for stage in STAGES:
            units[f"stage.{det}.{stage}.us_per_vec"] = "us"
    for det in BER_DETECTORS:
        units[f"ber.{det}"] = "ratio"
    units.update({
        "trace.vectors_per_s": "1/s",
        "trace.untraced_vectors_per_s": "1/s",
        "trace.overhead_vectors_per_s": "1/s",
        "trace.sweep_s": "s",
        "trace.self_sum_s": "s",
    })
    return units


def sweep_spec(name: str, seed: int) -> SweepSpec:
    wl = WORKLOADS[name]
    return SweepSpec(
        detectors=wl["detectors"],
        snr_db=wl["snr_db"],
        trials=wl["trials"],
        symbols_per_trial=wl["symbols_per_trial"],
        n_users=COMMON["n_users"],
        bits_per_symbol=BITS_PER_SYMBOL,
        coded=wl["coded"],
        ce_mode=wl["ce_mode"],
        seed=seed,
    )


def config_text(name: str, seed: int) -> str:
    """The scenario file the program receives; it is all the program sees."""
    wl = WORKLOADS[name]
    keys = dict(COMMON)
    keys.update({
        "snr_db": ",".join(f"{s:g}" for s in wl["snr_db"]),
        "trials_per_point": wl["trials"],
        "symbols_per_trial": wl["symbols_per_trial"],
        "master_seed": seed,
        "detectors": ",".join(wl["detectors"]),
        "coded": "true" if wl["coded"] else "false",
        "ce_mode": wl["ce_mode"],
    })
    for key in ("pilot_count", "covariance_samples"):
        if key in wl:
            keys[key] = wl[key]
    return f"# perfbench workload {name}, seed {seed}\n" + "".join(
        f"{k} = {v}\n" for k, v in keys.items()
    )


# ---------------------------------------------------------------------------
# the program


class ProgramMissing(Exception):
    pass


def fresh_import() -> dict:
    """Import ``mudet`` from this checkout anew; returns the layer modules."""
    for mod in [m for m in sys.modules if m == "mudet" or m.startswith("mudet.")]:
        del sys.modules[mod]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {n: importlib.import_module(f"mudet.{n}") for n in ("cli", "bench", "detectors", "fec")}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import mudet from {SRC}: {exc}") from exc
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"mudet was imported from {origin}, not from {SRC}")
    return mods


@dataclass
class Sweep:
    traced: bool
    wall_s: float
    sweep_s: float | None
    cells_ok: list
    csv: str
    tracer: Tracer = field(repr=False)
    detector_names: tuple = ()

    @property
    def scale(self) -> float:
        return self.tracer.scale


def run_sweep(spec: SweepSpec, cfg_path: Path, csv_path: Path, traced: bool) -> Sweep:
    csv_path.unlink(missing_ok=True)
    tracer = Tracer(full=traced)
    tracer.calibrate(CALIBRATION_UNITS)
    t0 = perf_counter()
    mods = fresh_import()
    tracer.install(mods)
    try:
        status = mods["cli"].main(["simulate", "--config", str(cfg_path), "--out", str(csv_path)])
    except Exception:  # a crash fails this sweep's cells; the run goes on
        traceback.print_exc()
        status = None
    tracer.calibrate(CALIBRATION_UNITS)
    wall = perf_counter() - t0
    csv = csv_path.read_text(encoding="utf-8") if status == 0 and csv_path.exists() else ""
    cells_ok = check_csv(csv, spec) if csv else [False] * len(spec.cells)
    durations = tracer.trial_durations()
    sweep = sum(d for _, d in durations) if status == 0 and durations else None
    names = tuple(getattr(mods["bench"], "DETECTOR_NAMES", ()))
    return Sweep(traced, wall, sweep, cells_ok, csv, tracer, names)


def probe_setup(cfg_path: Path, csv_path: Path) -> tuple:
    """Time one fresh interpreter from its start to mudet's first trial.

    Returns (measured seconds or None when no trial was reached, scale).
    """
    ref = Tracer(full=False)
    ref.calibrate(CALIBRATION_UNITS)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(cfg_path), str(csv_path)]
    t0 = monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    ref.calibrate(CALIBRATION_UNITS)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, ref.scale
    return float(proc.stdout.split()[-1]) - t0, ref.scale


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list, q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(n=100, method='inclusive')``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(spec: SweepSpec, sweeps: list, setups: list) -> tuple:
    # A sweep that ran to the end is timed even when its output is wrong:
    # the wrong cells count as failed, and the result says so.
    good = [s for s in sweeps if s.sweep_s is not None]
    setups = [(t, scale) for t, scale in setups if t is not None]
    if not good:
        return {}, {}
    vectors = len(spec.cells) * spec.trials * spec.vectors_per_trial
    # Every sweep repeats the same trials, so a trial's latency is the median
    # of its times over the sweeps; the quantiles are over distinct trials.
    # Pooling every (trial, sweep) time instead puts the host's sub-trial
    # speed flicker into the tail (see README.md).
    per_trial = defaultdict(list)
    for s in good:
        for key, d in s.tracer.trial_durations():
            per_trial[key].append(d * s.scale * 1e3)
    trial_ms = [statistics.median(times) for times in per_trial.values()]
    values = {
        "vectors_per_s": statistics.median(vectors / (s.sweep_s * s.scale) for s in good),
        "trial_ms.p50": quantile(trial_ms, 50),
        "trial_ms.p99": quantile(trial_ms, 99),
    }
    samples = {
        "setup_s": len(setups),
        "vectors_per_s": len(good),
        "trial_ms.p50": len(trial_ms),
        "trial_ms.p99": len(trial_ms),
        "sweeps_per_trial": len(good),
        "vectors_per_sweep": vectors,
        "measured_vectors_per_s": statistics.median(vectors / s.sweep_s for s in good),
        "host_slowdown": statistics.median(1 / s.scale for s in good),
    }
    if setups:  # a run whose probes all failed reports no set-up time
        values = {"setup_s": statistics.median(t * scale for t, scale in setups), **values}
        samples["measured_setup_s"] = statistics.median(t for t, _ in setups)
    return values, samples


def per_layer(spec: SweepSpec, sweeps: list, ber: dict) -> dict:
    traced = [s for s in sweeps if s.traced and s.sweep_s is not None]
    untraced = [s for s in sweeps if not s.traced and s.sweep_s is not None]
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    if not traced:
        return values
    n = len(traced)
    calls, self_s = Counter(), Counter()
    stage_s = defaultdict(float)
    for sweep in traced:
        names = sweep.detector_names
        for span, own in sweep.tracer.self_times():
            own *= sweep.scale
            self_s[span[NAME]] += own
            if span[NAME] != TRIAL_SPAN:
                calls[span[NAME]] += 1
            if span[TRIAL] is not None:
                det = span[TRIAL][0]
                det = names[det] if det < len(names) else str(det)
                stage_s[(det, span[STAGE] or "other")] += own
    for name in dict.fromkeys(name for _, _, name in FULL_WRAPS if name not in SELF_ONLY):
        values[f"{name}.calls"] = calls[name] / n
        values[f"{name}.self_s"] = self_s[name] / n
        values[f"{name}.us_per_call"] = self_s[name] / calls[name] * 1e6 if calls[name] else 0.0
    decodes = [d for s in traced for d in s.tracer.decodes]
    if decodes:
        values["fec.decode_min_sum.iters_mean"] = statistics.fmean(i for _, i in decodes)
        values["fec.decode_min_sum.converged_frac"] = sum(c for c, _ in decodes) / len(decodes)
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = self_s[name] / n
    vectors_per_det = len(spec.snr_db) * spec.trials * spec.vectors_per_trial * n
    for det in spec.detectors:
        for stage in STAGES:
            values[f"stage.{det}.{stage}.us_per_vec"] = stage_s[(det, stage)] / vectors_per_det * 1e6
    for det in BER_DETECTORS:
        values[f"ber.{det}"] = ber.get(det, 0.0)
    vectors = len(spec.cells) * spec.trials * spec.vectors_per_trial
    traced_vps = statistics.median(vectors / (s.sweep_s * s.scale) for s in traced)
    untraced_vps = (
        statistics.median(vectors / (s.sweep_s * s.scale) for s in untraced) if untraced else 0.0
    )
    values["trace.vectors_per_s"] = traced_vps
    values["trace.untraced_vectors_per_s"] = untraced_vps
    values["trace.overhead_vectors_per_s"] = untraced_vps - traced_vps
    values["trace.sweep_s"] = sum(s.sweep_s * s.scale for s in traced) / n
    values["trace.self_sum_s"] = sum(stage_s.values()) / n
    return values


# ---------------------------------------------------------------------------
# environment and records


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _openblas(np) -> tuple:
    """(OpenBLAS version string, threads it will use), or None where unknown."""
    version = threads = None
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        pass
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = int(getter())
                break
    return version, threads


def environment(seed: int) -> dict:
    import numpy as np

    version, threads = _openblas(np)
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": tree_sha256(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": seed,
    }


def baseline_digest(workload: str, seed: int) -> str | None:
    try:
        baseline = json.loads((HERE / "baseline.json").read_text())
    except (OSError, ValueError):
        return None
    return baseline.get("workloads", {}).get(workload, {}).get("csv_sha256", {}).get(str(seed))


def write_spans(path: Path, sweeps: list) -> None:
    """Write every traced span, one per line, once the run has ended."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sweep\tspan\tname\tstart_s\tend_s\tparent\ttrial\tstage\tself_s\n")
        for k, sweep in enumerate(s for s in sweeps if s.traced):
            for i, (span, own) in enumerate(sweep.tracer.self_times()):
                trial = "" if span[TRIAL] is None else "/".join(map(str, span[TRIAL]))
                fh.write(
                    f"{k}\t{i}\t{span[NAME]}\t{span[START]:.9f}\t{span[END]:.9f}\t"
                    f"{span[PARENT]}\t{trial}\t{span[STAGE] or ''}\t{own:.9f}\n"
                )


# ---------------------------------------------------------------------------
# one run: sweeps, checks and the result line


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run sweeps for ``seconds``; returns (report, result) dictionaries."""
    spec = sweep_spec(workload, seed)
    OUT.mkdir(exist_ok=True)
    cfg_path = OUT / f"{workload}-seed{seed}.cfg"
    csv_path = OUT / f"{workload}-seed{seed}.csv"
    cfg_path.write_text(config_text(workload, seed), encoding="utf-8")

    # The first sweep comes first: it stops a run that cannot import mudet.
    sweeps: list = []
    setups: list = []
    start = perf_counter()
    while True:
        sweeps.append(run_sweep(spec, cfg_path, csv_path, traced=trace and len(sweeps) % 2 == 1))
        if not trace and not setups:
            setups = [probe_setup(cfg_path, csv_path) for _ in range(SETUP_PROBES)]
        elapsed = perf_counter() - start
        if len(sweeps) >= (2 if trace else 1) and elapsed + sweeps[-1].wall_s > seconds:
            break

    # The same seed must give the same record on every sweep: a cell's row
    # is compared with the first row of that cell that passed the check.
    attempted = failed = 0
    first_ok: dict = {}
    for sweep in sweeps:
        rows = sweep.csv.splitlines()[1:]
        for i, ok in enumerate(sweep.cells_ok):
            attempted += 1
            failed += not (ok and first_ok.setdefault(i, rows[i]) == rows[i])
    record = next((s.csv for s in sweeps if all(s.cells_ok)), "")
    digest = hashlib.sha256(record.encode("utf-8")).hexdigest() if record else None
    expected = baseline_digest(workload, seed)
    ber = pooled_ber(record)

    e2e, samples = end_to_end(spec, [s for s in sweeps if not s.traced], setups)
    if trace:
        values = per_layer(spec, sweeps, ber)
        units = per_layer_units()
        write_spans(OUT / f"{workload}-seed{seed}.spans.tsv", sweeps)
    else:
        values, units = e2e, END_TO_END_UNITS
    # a set-up probe that reaches no trial is a failed operation too
    probes_failed = sum(t is None for t, _ in setups)
    report = {
        "workload": workload,
        "trace": int(trace),
        "sweeps": len(sweeps),
        "traced_sweeps": sum(s.traced for s in sweeps),
        "cells_attempted": attempted,
        "cells_failed": failed,
        "failed_frac": failed / attempted,
        "setup_probes": len(setups),
        "setup_probes_failed": probes_failed,
        "ber": ber,
        "samples": samples,
        "csv_sha256": digest,
        "baseline_csv_sha256": expected,
        "csv_matches_baseline": None if expected is None or digest is None else digest == expected,
        "env": environment(seed),
    }
    result = {
        "correct": failed + probes_failed == 0 and len(values) == len(units),
        "attempted": attempted + len(setups),
        "failed": failed + probes_failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    return report, result


def print_table(report: dict, result: dict) -> None:
    samples = report["samples"]
    for name, metric in result["metrics"].items():
        n = samples.get(name)
        if n and name.startswith("trial_ms"):
            n = f"{n} trials x {samples['sweeps_per_trial']} sweeps"
        elif n and name == "setup_s":
            n = f"{n} fresh interpreters"
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']:6s}" + (f" n={n}" if n else ""))
    print(f"{'failed_frac':44s} {report['failed_frac']:>16.6g} ratio  n={report['cells_attempted']}")
    for det, value in report["ber"].items():
        print(f"{'ber.' + det:44s} {value:>16.6g} ratio  (pooled over the SNR grid)")
    if report["csv_sha256"] is None:
        print("csv sha256: no sweep's CSV passed the check")
        return
    match = report["csv_matches_baseline"]
    print(f"csv sha256 {report['csv_sha256']} baseline: "
          + {None: "no record for this seed", True: "match", False: "MISMATCH"}[match])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not result["metrics"]:
        print("perfbench: no sweep completed; nothing to report", file=sys.stderr)
        return 1
    print_table(report, result)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
