"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
Monte-Carlo scenarios use frozen seeds, so every number here is
reproducible bit-for-bit.
"""

import hashlib
import time

import numpy as np
import pytest

from mudet import bench, detectors as det, fec
from mudet.airlink import build_constellation, complex_randn
from mudet.numkit import inv_sqrt, sorted_qr

from conftest import csv_bytes, exhaustive_search

QAM16 = build_constellation("qam16")
QPSK = build_constellation("qpsk")

MASTER_SEED = 20260808

INTERFERENCE_SCENARIO = f"""
n_rx = 16
n_users = 4
n_interferers = 2
rx_correlation = 0.5
interferer_power_ratio = 1.0
constellation = qam16
ce_mode = ideal
snr_db = 4:14:2
trials_per_point = 500
symbols_per_trial = 50
detectors = mmse-irc,robust-sr-kbest
master_seed = {MASTER_SEED}
"""

# SHA-256 of the CSV of INTERFERENCE_SCENARIO: its records are frozen, so a
# change to the numerics that moves any bit error shows here. Re-recorded
# when each (SNR, trial) cell got its own stream, shared by its detectors.
INTERFERENCE_CSV_SHA256 = "66d511ebee93b3e8c62ed450e2833a2e1929c5fcf502b1456595271c6129e651"

AWGN_SCENARIO = f"""
n_rx = 16
n_users = 4
n_interferers = 0
rx_correlation = 0.5
constellation = qam16
ce_mode = ideal
snr_db = 6:14:2
trials_per_point = 2000
symbols_per_trial = 50
detectors = mmse-irc,sr-kbest
master_seed = {MASTER_SEED}
"""

NEAR_ML_SCENARIO = f"""
n_rx = 16
n_users = 2
n_interferers = 0
rx_correlation = 0.5
constellation = qam16
ce_mode = ideal
snr_db = 7:10:1
trials_per_point = 1000
symbols_per_trial = 50
detectors = ml,kbest
master_seed = {MASTER_SEED}
"""

CODED_SCENARIO = f"""
n_rx = 16
n_users = 4
n_interferers = 2
rx_correlation = 0.5
interferer_power_ratio = 1.0
constellation = qam16
ce_mode = ls_pilot
pilot_count = 8
covariance_samples = 168
coded = true
snr_db = 3:9:1
trials_per_point = 600
detectors = mmse-irc,robust-sr-kbest
master_seed = {MASTER_SEED}
"""

# C12: the coded sorting-reduced search stays near full-sort K-best, both
# scoring their lists by list log-MAP on the extended model's likelihood.
# The 1.25 bound was fixed before the first run on this seed.
CODED_SR_SCENARIO = f"""
n_rx = 16
n_users = 4
n_interferers = 0
rx_correlation = 0.5
constellation = qam16
ce_mode = ls_pilot
pilot_count = 8
covariance_samples = 168
coded = true
snr_db = 2:4:1
trials_per_point = 200
detectors = kbest,sr-kbest
master_seed = {MASTER_SEED}
"""


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _separated(ber_low, bits_low, ber_high, bits_high, z=1.96) -> bool:
    se = np.sqrt(
        ber_low * (1 - ber_low) / bits_low + ber_high * (1 - ber_high) / bits_high
    )
    return ber_high - ber_low > z * se


def _by_detector(records):
    table = {}
    for rec in records:
        table.setdefault(rec.detector, {})[rec.snr_db] = rec
    return table


@pytest.fixture(scope="module")
def interference_run():
    cfg = bench.parse_config(INTERFERENCE_SCENARIO)
    start = time.perf_counter()
    records = bench.run_scenario(cfg)
    return cfg, records, time.perf_counter() - start


def random_pd(rng, n):
    b = complex_randn(rng, n, n)
    return b @ b.conj().T + 0.05 * np.eye(n)


def test_c01_kbest_matches_ml_exactly():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        h = complex_randn(rng, 8, 2)
        y = h @ QAM16.points[rng.integers(0, 16, 2)] + 0.35 * complex_randn(rng, 8)
        sq = sorted_qr(h)
        cl = det.kbest_detect(sq.r, (sq.q.conj().T @ y)[None], 256, QAM16, expand=16)
        cl = cl.permuted(sq.perm)
        hard = exhaustive_search(h, y[None], QAM16)[0]
        if not np.array_equal(cl.symbols[0, 0], hard[0]):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        "C1 ML equivalence",
        mismatches == 0 and elapsed < 30.0,
        f"{1000 - mismatches}/1000 identical, {elapsed:.1f} s",
    )


def test_c02_sherman_morrison_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(1000):
        n = (3, 8, 64)[i % 3]
        h = complex_randn(rng, n)
        r_uu = random_pd(rng, n)
        y = complex_randn(rng, n)
        direct = complex(np.linalg.solve(r_uu + np.outer(h, h.conj()), h).conj() @ y)
        ours = complex(det.mmse_irc_weights(h[:, None], r_uu, 1.0)[0] @ y)
        worst = max(worst, abs(ours - direct) / max(1.0, abs(direct)))
    _report("C2 Sherman-Morrison", worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_c03_whitening_identity_and_whiteness():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        r_uu = random_pd(rng, n)
        w = inv_sqrt(r_uu)
        worst = max(
            worst, np.linalg.norm(w @ r_uu @ w.conj().T - np.eye(n)) / n
        )
    g = complex_randn(rng, 16, 2)
    sigma2 = 0.1
    w = inv_sqrt(g @ g.conj().T + sigma2 * np.eye(16))
    s = QAM16.points[rng.integers(0, 16, (100000, 2))]
    u = s @ g.T + np.sqrt(sigma2) * complex_randn(rng, 100000, 16)
    u1 = u @ w.T
    cov = (u1[:, :, None] * u1[:, None, :].conj()).mean(axis=0)
    mc_err = np.linalg.norm(cov - np.eye(16)) / np.linalg.norm(np.eye(16))
    _report(
        "C3 whitening identity + whiteness",
        worst <= 1e-10 and mc_err <= 0.05,
        f"identity residual {worst:.2e} (per n), whiteness error {mc_err:.3f}",
    )


def test_c04_robust_pipeline_hand_check():
    rng = np.random.default_rng(404)
    y = complex_randn(rng, 4)
    rotate, sq = det.robust_plan(np.eye(4), np.eye(4))
    y_tilde = (y[None] @ rotate.T)[0]
    checks = [
        np.allclose(rotate, np.eye(4), atol=1e-12),
        np.allclose(sq.r, np.eye(4), atol=1e-12),
        list(sq.perm) == [0, 1, 2, 3],
        np.allclose(y_tilde, y, atol=1e-12),
    ]
    _report("C4 robust hand-check", all(checks), "rotate=r=I, perm=identity, y_tilde=y at 1e-12")


def test_c05_interference_suppression_ordering(interference_run):
    cfg, records, elapsed = interference_run
    table = _by_detector(records)
    in_band = []
    ordered = True
    separated = 0
    for snr in sorted(cfg.snr_grid_db):
        m = table["mmse-irc"][snr]
        r = table["robust-sr-kbest"][snr]
        assert m.bits >= 4 * 10**5
        if 1e-3 <= m.ber <= 1e-1:
            in_band.append(snr)
            if r.ber > m.ber:
                ordered = False
            if _separated(r.ber, r.bits, m.ber, m.bits):
                separated += 1
    ok = ordered and separated >= 2 and len(in_band) >= 2 and elapsed < 600.0
    _report(
        "C5 interference ordering",
        ok,
        f"in-band SNRs {in_band}, ordered={ordered}, separated at {separated}, "
        f"{elapsed:.0f} s",
    )


def test_c05_records_match_frozen_digest(interference_run):
    _, records, _ = interference_run
    digest = hashlib.sha256(csv_bytes(records)).hexdigest()
    _report("C5 frozen records", digest == INTERFERENCE_CSV_SHA256, f"CSV SHA-256 {digest}")


def test_c06_awgn_near_ml_ordering():
    cfg = bench.parse_config(AWGN_SCENARIO)
    table = _by_detector(bench.run_scenario(cfg))
    in_band = []
    ordered = True
    for snr in sorted(cfg.snr_grid_db):
        m = table["mmse-irc"][snr]
        s = table["sr-kbest"][snr]
        if 1e-3 <= m.ber <= 1e-1:
            in_band.append(snr)
            if s.ber > m.ber:
                ordered = False
    cfg2 = bench.parse_config(NEAR_ML_SCENARIO)
    table2 = _by_detector(bench.run_scenario(cfg2))
    snr_star = min(
        sorted(cfg2.snr_grid_db),
        key=lambda s: abs(np.log10(max(table2["ml"][s].ber, 1e-12)) + 3.0),
    )
    ml_ber = table2["ml"][snr_star].ber
    kb_ber = table2["kbest"][snr_star].ber
    near_ml = 2e-4 <= ml_ber <= 5e-3 and kb_ber <= 2.0 * ml_ber
    _report(
        "C6 AWGN near-ML",
        ordered and len(in_band) >= 2 and near_ml,
        f"sr<=mmse in band {in_band}; at {snr_star} dB ml {ml_ber:.2e}, "
        f"kbest {kb_ber:.2e} (ratio {kb_ber / max(ml_ber, 1e-12):.2f})",
    )


def test_c07_osic_equals_kbest_k1():
    rng = np.random.default_rng(707)
    mismatches = 0
    for _ in range(1000):
        h = complex_randn(rng, 8, 4)
        y = h @ QAM16.points[rng.integers(0, 16, 4)] + 0.3 * complex_randn(rng, 8)
        rotate, sq = det.build_extended(h, 0.09, 0.0)
        y_tilde = y[None] @ rotate.T
        osic = det.osic_detect(sq.r, y_tilde, QAM16)
        kb = det.kbest_detect(sq.r, y_tilde, 1, QAM16, expand=1)
        if not np.array_equal(osic.symbols, kb.symbols):
            mismatches += 1
    _report("C7 OSIC = K-best(1)", mismatches == 0, f"{1000 - mismatches}/1000 identical")


def test_c08_noiseless_exactness_every_detector():
    # each detector as run_scenario composes it, fed one noiseless vector
    # with the noiseless floor as its noise power
    rng = np.random.default_rng(808)
    cfg = bench.ScenarioConfig(n_rx=8, n_users=3)
    floor = bench.NOISELESS_FLOOR
    failures = []
    for trial in range(100):
        h = complex_randn(rng, 8, 3)
        idx = rng.integers(0, 16, 3)
        y = h @ QAM16.points[idx]
        know = bench._TrialKnowledge(
            h_hat=h, r_uu=floor * np.eye(8), sigma_det=floor, sigma_i2=0.0
        )
        for name in bench.DETECTOR_NAMES:
            hard = bench._detect_uses(cfg, name, QAM16, know, y[None, :], coded=False)
            if not np.array_equal(hard[0], idx):
                failures.append((trial, name))
    _report(
        "C8 noiseless exactness",
        not failures,
        "all 7 detectors exact on 100 instances" if not failures else f"failures: {failures[:5]}",
    )


def test_c09_ldpc_sanity():
    code = fec.build_code(seed=0)
    rng = np.random.default_rng(909)
    # every converged decode satisfies all parity checks
    msgs = rng.integers(0, 2, (200, 144))
    cws = fec.encode(code, msgs)
    noisy = (1.0 - 2.0 * cws) + 1.1 * rng.standard_normal(cws.shape)
    bits, converged, _ = fec.decode_min_sum_batch(code, 2.0 * noisy / 1.21)
    parity_clean = all(
        not ((code.parity @ fec.encode(code, bits[i])) % 2).any() for i in np.flatnonzero(converged)
    )
    # 3-bit-flip recovery
    recovered = 0
    for t in range(100):
        trng = np.random.default_rng(5000 + t)
        m = trng.integers(0, 2, 144)
        llr = np.where(fec.encode(code, m) == 0, 30.0, -30.0)
        llr[trng.choice(288, 3, replace=False)] *= -1.0
        out, conv, _ = fec.decode_min_sum(code, llr)
        recovered += int(conv and np.array_equal(out, m))
    # scale invariance of hard decisions
    base = 2.0 * noisy[:50] / 1.21
    b0, c0, _ = fec.decode_min_sum_batch(code, base)
    scale_ok = all(
        np.array_equal(b0, fec.decode_min_sum_batch(code, c * base)[0])
        and np.array_equal(c0, fec.decode_min_sum_batch(code, c * base)[1])
        for c in (0.1, 10.0)
    )
    _report(
        "C9 LDPC sanity",
        parity_clean and recovered >= 99 and scale_ok,
        f"parity-on-convergence={parity_clean}, flips recovered {recovered}/100, "
        f"scale-invariant={scale_ok}",
    )


def test_c10_coded_ordering_with_real_ce():
    cfg = bench.parse_config(CODED_SCENARIO)
    table = _by_detector(bench.run_scenario(cfg))
    grid = sorted(cfg.snr_grid_db)
    usable = [s for s in grid if 2e-3 <= table["mmse-irc"][s].ber <= 5e-2]
    assert usable, "no grid point with coded mmse-irc BER near 1e-2"
    snr_star = min(usable, key=lambda s: abs(np.log10(table["mmse-irc"][s].ber) + 2.0))
    m = table["mmse-irc"][snr_star]
    r = table["robust-sr-kbest"][snr_star]
    ok = r.ber < m.ber and _separated(r.ber, r.bits, m.ber, m.bits)
    _report(
        "C10 coded ordering (real CE)",
        ok,
        f"at {snr_star} dB coded mmse {m.ber:.3e} ({m.bit_errors}/{m.bits}), "
        f"coded robust {r.ber:.3e} ({r.bit_errors}/{r.bits})",
    )


def test_c11_determinism_byte_identical(interference_run):
    cfg, records, _ = interference_run
    again = bench.run_scenario(cfg)
    same = csv_bytes(records) == csv_bytes(again)
    _report("C11 determinism", same, "two full runs produced byte-identical CSV")


def test_c12_coded_sr_kbest_near_kbest():
    cfg = bench.parse_config(CODED_SR_SCENARIO)
    start = time.perf_counter()
    table = _by_detector(bench.run_scenario(cfg))
    elapsed = time.perf_counter() - start
    kb = sum(rec.bit_errors for rec in table["kbest"].values())
    sr = sum(rec.bit_errors for rec in table["sr-kbest"].values())
    bits = sum(rec.bits for rec in table["kbest"].values())
    _report(
        "C12 coded sr-kbest near kbest",
        sr <= 1.25 * kb,
        f"pooled bit errors sr-kbest {sr}, kbest {kb} of {bits} "
        f"(ratio {sr / max(kb, 1):.2f}), {elapsed:.1f} s",
    )
