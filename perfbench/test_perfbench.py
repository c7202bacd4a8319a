"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload is run once untraced and once traced for a single sweep
(``--seconds 0``), in a child process, exactly as the benchmark command
runs it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import CSV_HEADER, SweepSpec, check_csv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def tiny_run():
    """One single-sweep run per (workload, trace), shared by the tests."""
    runs = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in runs:
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            runs[workload, trace] = (
                lines, json.loads(lines[-2])["report"], json.loads(lines[-1])
            )
        return runs[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_named_metric_with_unit(tiny_run, workload, trace):
    lines, report, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    table = {line.split()[0]: line.split() for line in lines[:-2]}
    for name, metric in result["metrics"].items():
        assert table[name][2] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert report["samples"]["trial_ms.p50"] >= 1
        assert report["samples"]["setup_s"] == report["setup_probes"] >= 3
        assert report["setup_probes_failed"] == 0
    assert report["env"]["blas_threads"] in (1, None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_sweep_time(tiny_run, workload):
    _, _, result = tiny_run(workload, 1)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["trace.sweep_s"] > 0
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.sweep_s"], rel=1e-6)
    assert sum(v for k, v in metrics.items() if k.startswith("stage.")) > 0


def _valid_csv(spec: SweepSpec) -> str:
    bits = spec.trials * spec.bits_per_trial
    rows = [
        f"{d},{s:g},{spec.trials},{bits},7,{7 / bits:.6g},"
        f"{'true' if spec.coded else 'false'},{spec.ce_mode},{spec.seed}"
        for d, s in spec.cells
    ]
    return "\n".join([CSV_HEADER] + rows) + "\n"


@pytest.mark.parametrize("coded", [False, True])
def test_output_check_flags_corrupted_bit_count(coded):
    spec = SweepSpec(("mmse-irc", "robust-sr-kbest"), (6.0, 5.0), trials=3,
                     symbols_per_trial=2, n_users=4, bits_per_symbol=4, coded=coded,
                     ce_mode="ideal", seed=11)
    text = _valid_csv(spec)
    assert check_csv(text, spec) == [True] * 4
    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[3] = str(int(fields[3]) + 1)
    lines[2] = ",".join(fields)
    assert check_csv("\n".join(lines), spec) == [True, False, True, True]


def test_output_check_flags_header_order_and_ber():
    spec = SweepSpec(("mrc",), (4.0, 8.0), trials=2, symbols_per_trial=5, n_users=4,
                     bits_per_symbol=4, coded=False, ce_mode="ideal", seed=0)
    lines = _valid_csv(spec).splitlines()
    assert check_csv("\n".join(["x" + lines[0]] + lines[1:]), spec) == [False, False]
    assert check_csv("\n".join([lines[0], lines[2], lines[1]]), spec) == [False, False]
    assert check_csv("\n".join(lines[:2]), spec) == [False, False]
    bad_ber = lines[1].split(",")
    bad_ber[5] = "0.5"
    assert check_csv("\n".join([lines[0], ",".join(bad_ber), lines[2]]), spec) == [False, True]


def test_fails_without_printing_a_result_when_program_is_absent():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run_bench(WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
