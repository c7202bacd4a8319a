import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudet import detectors as det
from mudet.errors import (
    InvalidSearchParamsError,
    SearchSpaceTooLargeError,
)
from mudet.numkit import inv_sqrt, qr_decompose, sorted_qr

from conftest import crandn


def random_pd(rng, n, floor=0.1):
    b = crandn(rng, n, n)
    return b @ b.conj().T + floor * np.eye(n)


# --- linear detectors ---------------------------------------------------------


def test_mmse_single_hand_cases():
    est = det.mmse_single([1.0, 0.0, 0.0], np.eye(3), [1.0, 0.0, 0.0])
    assert abs(est - 0.5) < 1e-12
    assert det.mmse_single(np.zeros(3), np.eye(3), np.ones(3)) == 0.0


def test_mmse_single_sherman_morrison_equivalence():
    rng = np.random.default_rng(0)
    for n in (3, 8, 64):
        for _ in range(40):
            h = crandn(rng, n)
            r_uu = random_pd(rng, n)
            y = crandn(rng, n)
            direct = complex(np.linalg.solve(r_uu + np.outer(h, h.conj()), h).conj() @ y)
            ours = det.mmse_single(h, r_uu, y)
            assert abs(ours - direct) <= 1e-10 * max(1.0, abs(direct))


def test_mmse_irc_identity_case():
    w = det.mmse_irc_weights(np.eye(2), np.eye(2), 1.0)
    assert np.allclose(w, 0.5 * np.eye(2))
    assert np.allclose(w @ np.array([2.0, 4.0]), [1.0, 2.0])


def test_mmse_irc_reduces_to_mrc_for_white_covariance():
    rng = np.random.default_rng(1)
    h = crandn(rng, 6, 3)
    y = crandn(rng, 6)
    x_irc = det.mmse_irc_weights(h, np.eye(6), 0.3) @ y
    x_mrc = det.linear_weights(h, h, 0.3) @ y
    assert np.allclose(x_irc, x_mrc)


def test_mmse_irc_matches_independent_solver():
    rng = np.random.default_rng(2)
    for _ in range(30):
        h = crandn(rng, 8, 3)
        r_uu = random_pd(rng, 8)
        y = crandn(rng, 8)
        x = det.mmse_irc_weights(h, r_uu, 0.5) @ y
        ri = np.linalg.inv(r_uu)
        ref = np.linalg.solve(0.5 * np.eye(3) + h.conj().T @ ri @ h, h.conj().T @ ri @ y)
        assert np.linalg.norm(x - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))


def test_mrc_white_cases():
    # white-noise MRC: linear_weights with Z = H
    def mrc(h, sigma_n2, y):
        return det.linear_weights(h, h, sigma_n2) @ y

    y = np.array([1.0 + 1j, 2.0])
    assert np.allclose(mrc(np.eye(2), 0.5, y), y / 1.5)
    rng = np.random.default_rng(3)
    h = crandn(rng, 4, 4)
    x = crandn(rng, 4)
    sol = mrc(h, 0.0, h @ x)
    assert np.linalg.norm(sol - x) <= 1e-9 * np.linalg.norm(x)
    # ridge oracle
    h = crandn(rng, 6, 2)
    y = crandn(rng, 6)
    ref = np.linalg.inv(0.3 * np.eye(2) + h.conj().T @ h) @ (h.conj().T @ y)
    assert np.allclose(mrc(h, 0.3, y), ref)


# --- extended model -------------------------------------------------------------


def test_build_extended_blocks():
    rng = np.random.default_rng(4)
    h = crandn(rng, 6, 3)
    y = crandn(rng, 6)
    ext = det.build_extended(h, y, 1.0, 0.0)
    assert np.allclose(ext.h_ext[6:], np.eye(3))
    ext = det.build_extended(h, y, 1.0, 3.0)
    assert np.allclose(ext.h_ext[6:], 2.0 * np.eye(3))
    assert ext.h_ext.shape == (9, 3) and ext.y_ext.shape == (9,)
    assert np.all(ext.y_ext[6:] == 0)
    with pytest.raises(ValueError):
        det.build_extended(h, y, 0.0, 0.0)


# --- OSIC -----------------------------------------------------------------------


def extended_triangle(h, y, sigma_n2):
    """Sorted QR of the extended model and the rotated received vector(s)."""
    ext = det.build_extended(h, y, sigma_n2, 0.0)
    sq = sorted_qr(ext.h_ext)
    return sq, ext.y_ext @ sq.q.conj()


def test_osic_single_user_noiseless(qam16):
    rng = np.random.default_rng(5)
    h = crandn(rng, 4, 1)
    x = qam16.points[[7]]
    sq, y_tilde = extended_triangle(h, h @ x, 1e-12)
    out = det.osic_detect(sq.r, y_tilde, qam16)
    assert len(out) == 1 and out.symbols[0, 0] == 7


def test_osic_noiseless_multiuser_exact(qam16):
    rng = np.random.default_rng(6)
    for _ in range(50):
        h = crandn(rng, 8, 4)
        idx = rng.integers(0, 16, 4)
        sq, y_tilde = extended_triangle(h, h @ qam16.points[idx], 1e-12)
        out = det.osic_detect(sq.r, y_tilde, qam16).permuted(sq.perm)
        assert np.array_equal(out.symbols[0], idx)


def test_osic_equals_kbest_k1(qam16):
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = crandn(rng, 8, 4)
        y = h @ qam16.points[rng.integers(0, 16, 4)] + 0.3 * crandn(rng, 8)
        sq, y_tilde = extended_triangle(h, y, 0.09)
        out = det.osic_detect(sq.r, y_tilde, qam16)
        cl = det.kbest_detect(sq.r, y_tilde, 1, qam16, expand=1)
        assert np.array_equal(out.symbols, cl.symbols)
        assert np.isclose(out.metrics[0], cl.metrics[0], rtol=1e-12, atol=1e-12)


# --- K-best ---------------------------------------------------------------------


def test_kbest_identity_channel_is_slicing(qam16):
    rng = np.random.default_rng(8)
    y = crandn(rng, 4)
    cl = det.kbest_detect(np.eye(4), y, 1, qam16, expand=1)
    assert np.array_equal(cl.symbols[0], qam16.nearest(y))


def test_kbest_exhaustive_equals_ml(qam16):
    rng = np.random.default_rng(9)
    for _ in range(60):
        h = crandn(rng, 4, 2)
        y = h @ qam16.points[rng.integers(0, 16, 2)] + 0.2 * crandn(rng, 4)
        q, r = qr_decompose(h)
        y_tilde = q.conj().T @ y
        cl = det.kbest_detect(r, y_tilde, 256, qam16, expand=16)
        mlo = det.ml_bruteforce(r, y_tilde, qam16)
        assert np.array_equal(cl.symbols[0], mlo.hard)
        assert abs(cl.metrics[0] - mlo.metric) < 1e-9


def test_kbest_exhaustive_equals_ml_qpsk_four_users(qpsk):
    rng = np.random.default_rng(24)
    for _ in range(60):
        h = crandn(rng, 6, 4)
        y = h @ qpsk.points[rng.integers(0, 4, 4)] + 0.3 * crandn(rng, 6)
        q, r = qr_decompose(h)
        y_tilde = q.conj().T @ y
        cl = det.kbest_detect(r, y_tilde, 256, qpsk, expand=4)
        mlo = det.ml_bruteforce(r, y_tilde, qpsk)
        assert np.array_equal(cl.symbols[0], mlo.hard)


def test_kbest_noiseless_keeps_transmitted(qam16):
    rng = np.random.default_rng(10)
    for k in (1, 4, 16):
        h = crandn(rng, 6, 3)
        idx = rng.integers(0, 16, 3)
        q, r = qr_decompose(h)
        cl = det.kbest_detect(r, q.conj().T @ (h @ qam16.points[idx]), k, qam16)
        assert np.array_equal(cl.symbols[0], idx)
        assert cl.metrics[0] < 1e-18


def test_kbest_output_sorted(qam16):
    rng = np.random.default_rng(11)
    h = crandn(rng, 6, 3)
    y = crandn(rng, 6)
    q, r = qr_decompose(h)
    cl = det.kbest_detect(r, q.conj().T @ y, 16, qam16, expand=4)
    assert np.all(np.diff(cl.metrics) >= 0)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (1, 16), (3, 256), (2, 4, 16), (50, 17)]),
    count=st.integers(1, 20),
    levels=st.sampled_from([0, 2, 5]),
    seed=st.integers(0, 2**31 - 1),
)
def test_smallest_equals_stable_argsort(shape, count, levels, seed):
    rng = np.random.default_rng(seed)
    if levels:  # few distinct values: ties everywhere, at the cut too
        values = rng.integers(0, levels, shape).astype(float)
    else:
        values = rng.random(shape)
    ref = np.argsort(values, axis=-1, kind="stable")[..., :count]
    assert np.array_equal(det._smallest(values, count), ref)


def _sorted_children_kbest(r, y_tilde, k, points):
    """Full-expansion K-best whose layers stable-sort the children of each
    parent before the cut, as the search did before the unsorted cut."""
    n_vec, m = y_tilde.shape
    size = points.size
    rows = np.arange(n_vec)[:, None]
    symbols = np.zeros((n_vec, 1, m), dtype=np.int64)
    metrics = np.zeros((n_vec, 1))
    for layer in range(m - 1, -1, -1):
        inc = det._layer_increments(r, y_tilde, layer, symbols, points)
        order = np.argsort(inc, axis=-1, kind="stable")
        flat = (metrics[:, :, None] + np.take_along_axis(inc, order, axis=-1)).reshape(n_vec, -1)
        sel = np.argsort(flat, axis=-1, kind="stable")[:, :k]
        symbols = symbols[rows, sel // size]
        symbols[:, :, layer] = order.reshape(n_vec, -1)[rows, sel]
        metrics = flat[rows, sel]
    return symbols, metrics


def _tie_rule_kbest(r, y_tilde, k, points):
    """Full-expansion K-best that ranks every child of a layer by
    (accumulated metric, survivor index, constellation index)."""
    n_vec, m = y_tilde.shape
    symbols = np.zeros((n_vec, 1, m), dtype=np.int64)
    metrics = np.zeros((n_vec, 1))
    for layer in range(m - 1, -1, -1):
        child = metrics[:, :, None] + det._layer_increments(r, y_tilde, layer, symbols, points)
        survivor, point = np.indices(child.shape[1:]).reshape(2, -1)
        new_symbols, new_metrics = [], []
        for b in range(n_vec):
            keep = np.lexsort((point, survivor, child[b].ravel()))[:k]
            row = symbols[b, survivor[keep]]
            row[:, layer] = point[keep]
            new_symbols.append(row)
            new_metrics.append(child[b].ravel()[keep])
        symbols, metrics = np.stack(new_symbols), np.stack(new_metrics)
    return symbols, metrics


@pytest.mark.parametrize("k", [1, 5, 16, 64])
def test_full_expansion_matches_sorted_children(qpsk, qam16, k):
    rng = np.random.default_rng(29)
    for cons, m in ((qam16, 4), (qpsk, 6)):
        h = crandn(rng, m + 2, m)
        q, r = qr_decompose(h)
        x = cons.points[rng.integers(0, cons.size, (40, m))]
        y_tilde = (x @ h.T + 0.5 * crandn(rng, 40, m + 2)) @ q.conj()
        cl = det.kbest_detect(r, y_tilde, k, cons)
        symbols, metrics = _sorted_children_kbest(r, y_tilde, k, cons.points)
        assert np.array_equal(cl.symbols, symbols)
        assert np.array_equal(cl.metrics, metrics)


@pytest.mark.parametrize("k", [1, 3, 16, 40, 64])
def test_full_expansion_tie_rule(qpsk, qam16, k):
    # y = 0: every layer is full of exact ties, at the cut as well
    rng = np.random.default_rng(30)
    for cons in (qam16, qpsk):
        q, r = qr_decompose(crandn(rng, 5, 3))
        y_tilde = crandn(rng, 6, 3)
        y_tilde[::2] = 0.0
        cl = det.kbest_detect(r, y_tilde, k, cons)
        symbols, metrics = _tie_rule_kbest(r, y_tilde, k, cons.points)
        assert np.array_equal(cl.symbols, symbols)
        assert np.array_equal(cl.metrics, metrics)


# --- SR-K-best ------------------------------------------------------------------


def test_sr_params_default_schedule():
    p = det.SrKBestParams.default_16_4()
    assert p.k == 16 and p.s == 4
    assert int(p.p.sum()) == p.k - p.s == 12
    assert list(p.q) == [2, 4, 6, 8]
    assert np.all(p.p + p.v <= det.SR_EXPAND_BUDGET)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=16, s=20, p=[0] * 16, v=[1] * 16, q=list(range(1, 21))),
        dict(k=16, s=4, p=[1] * 16, v=[1] * 16, q=[2, 4, 6, 8]),  # sum(p) != k-s
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[4] * 16, q=[2, 4, 6, 8]),
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[1] * 16, q=[4, 2, 6, 8]),
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[0] * 16, q=[2, 4, 6, 8]),
    ],
)
def test_sr_params_invalid(kwargs):
    with pytest.raises(InvalidSearchParamsError):
        det.SrKBestParams(**kwargs)


def test_sr_degenerate_reduces_to_kbest(qam16, qpsk):
    rng = np.random.default_rng(12)
    for cons, k in ((qam16, 16), (qpsk, 4)):
        degen = det.SrKBestParams(k=k, s=0, p=[1] * k, v=[0] * k, q=[])
        for _ in range(50):
            h = crandn(rng, 12, 6)
            y = h @ cons.points[rng.integers(0, cons.size, 6)] + 0.3 * crandn(rng, 12)
            q, r = qr_decompose(h)
            y_tilde = q.conj().T @ y
            a = det.sr_kbest_detect(r, y_tilde, degen, cons)
            b = det.kbest_detect(r, y_tilde, k, cons, expand=1)
            assert np.array_equal(a.symbols, b.symbols)
            assert np.allclose(a.metrics, b.metrics)


def test_sr_never_beats_exhaustive_search(qpsk):
    rng = np.random.default_rng(13)
    params = det.SrKBestParams.default_16_4()
    for _ in range(300):
        h = crandn(rng, 8, 4)
        y = h @ qpsk.points[rng.integers(0, 4, 4)] + 0.3 * crandn(rng, 8)
        q, r = qr_decompose(h)
        y_tilde = q.conj().T @ y
        sr = det.sr_kbest_detect(r, y_tilde, params, qpsk)
        mlo = det.ml_bruteforce(r, y_tilde, qpsk)
        assert sr.metrics[0] >= mlo.metric - 1e-9


def test_sr_dominance_and_equality_rate_vs_kbest(qam16):
    # operating point where the plain K-best BER is around 1e-2; the
    # equality rate is a frozen regression baseline for these seeds
    rng = np.random.default_rng(14)
    params = det.SrKBestParams.default_16_4()
    equal = 0
    n_trials = 1000
    for _ in range(n_trials):
        h = crandn(rng, 8, 4)
        y = h @ qam16.points[rng.integers(0, 16, 4)] + 0.5 * crandn(rng, 8)
        q, r = qr_decompose(h)
        y_tilde = q.conj().T @ y
        sr = det.sr_kbest_detect(r, y_tilde, params, qam16)
        kb = det.kbest_detect(r, y_tilde, 16, qam16, expand=4)
        assert sr.metrics[0] >= kb.metrics[0] - 1e-9
        if abs(sr.metrics[0] - kb.metrics[0]) < 1e-9:
            equal += 1
    assert equal >= 0.9 * n_trials


# --- batching over received vectors -----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n_vec=st.integers(1, 6),
    m=st.integers(1, 4),
    use_qpsk=st.booleans(),
    k=st.sampled_from([1, 3, 16]),
    zero_row=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_batched_searches_equal_row_by_row(qpsk, qam16, n_vec, m, use_qpsk, k, zero_row, seed):
    cons = qpsk if use_qpsk else qam16
    rng = np.random.default_rng(seed)
    h = crandn(rng, m + 2, m)
    y = h @ cons.points[rng.integers(0, cons.size, (m, n_vec))] + 0.5 * crandn(rng, m + 2, n_vec)
    y = y.T
    if zero_row:
        y[0] = 0.0  # y_tilde = 0: every layer is full of exact ties
    ext = det.build_extended(h, y, 0.25, 0.0)
    sq = sorted_qr(ext.h_ext)
    y_tilde = ext.y_ext @ sq.q.conj()
    params = det.SrKBestParams.default_16_4()
    expand = min(4, cons.size)
    kb = det.kbest_detect(sq.r, y_tilde, k, cons, expand)
    sr = det.sr_kbest_detect(sq.r, y_tilde, params, cons)
    os_ = det.osic_detect(sq.r, y_tilde, cons)
    assert kb.symbols.shape[0] == sr.symbols.shape[0] == os_.symbols.shape[0] == n_vec
    for t in range(n_vec):
        one = det.kbest_detect(sq.r, y_tilde[t], k, cons, expand)
        assert np.array_equal(kb.symbols[t], one.symbols)
        assert np.array_equal(kb.metrics[t], one.metrics)
        one = det.sr_kbest_detect(sq.r, y_tilde[t], params, cons)
        assert np.array_equal(sr.symbols[t], one.symbols)
        assert np.array_equal(sr.metrics[t], one.metrics)
        one = det.osic_detect(sq.r, y_tilde[t], cons)
        assert np.array_equal(os_.symbols[t], one.symbols)
        assert np.allclose(os_.metrics[t], one.metrics, rtol=1e-12, atol=1e-12)


def test_batched_apply_and_llrs_equal_row_by_row(qam16, monkeypatch):
    rng = np.random.default_rng(28)
    h = crandn(rng, 8, 3)
    r_uu = random_pd(rng, 8)
    y = crandn(rng, 5, 8)
    plan = det.robust_plan(h, r_uu)
    batch = det.robust_apply(plan, y)
    cands = det.sr_kbest_detect(batch.r2, batch.y3, det.SrKBestParams.default_16_4(), qam16)
    llr = det.compute_llrs(cands, qam16, 3)
    x_eq = 1.3 * crandn(rng, 5, 3)
    bias = np.array([0.9, 1.0, 1.1])
    noise = np.array([0.1, 0.2, 0.3])
    eq = det.equalizer_llrs(x_eq, bias, noise, qam16)
    for t in range(5):
        one = det.robust_apply(plan, y[t])
        for field in ("y1", "y2", "y3", "x_mid"):
            assert np.allclose(getattr(batch, field)[t], getattr(one, field), rtol=0, atol=1e-12)
        row = det.CandidateList(symbols=cands.symbols[t], metrics=cands.metrics[t])
        assert np.array_equal(llr[t], det.compute_llrs(row, qam16, 3))
        assert np.array_equal(eq[t], det.equalizer_llrs(x_eq[t], bias, noise, qam16))
    # 4096 candidates in chunks of 64, scored 12 at a time for 5 vectors, so
    # a row's minimum can fall in any chunk; at y = 0 the candidates x and
    # -x tie exactly, and they lie in different chunks
    monkeypatch.setattr(det, "_ML_CHUNK", 64)
    y[4] = 0.0
    ml = det.ml_bruteforce(h, y, qam16)
    for t in range(5):
        one = det.ml_bruteforce(h, y[t], qam16)
        assert np.array_equal(ml.hard[t], one.hard)
        assert np.array_equal(ml.llr[t], one.llr)
        assert np.isclose(ml.metric[t], one.metric, rtol=1e-12, atol=1e-12)
    every = (np.arange(4096)[:, None] // np.array([256, 16, 1])) % 16
    dist = np.sum(np.abs(qam16.points[every] @ h.T) ** 2, axis=1)
    assert np.array_equal(ml.hard[4], every[np.argmin(dist)])  # lowest index wins


def test_hard_only_paths_match_soft(qam16):
    rng = np.random.default_rng(31)
    h = crandn(rng, 6, 2)
    y = h @ qam16.points[rng.integers(0, 16, (2, 7))] + 0.4 * crandn(rng, 6, 7)
    y = y.T
    pairs = (
        (det.ml_bruteforce(h, y, qam16), det.ml_bruteforce(h, y, qam16, soft=False)),
        (det.ml_bruteforce(h, y[0], qam16), det.ml_bruteforce(h, y[0], qam16, soft=False)),
    )
    for soft, hard in pairs:
        assert hard.llr is None and soft.llr is not None
        assert np.array_equal(hard.hard, soft.hard)
        assert np.array_equal(hard.metric, soft.metric)


# --- brute-force ML -------------------------------------------------------------


def test_ml_single_user_nearest_point(qpsk):
    out = det.ml_bruteforce(np.array([[1.0]]), np.array([0.9 + 0.1j]), qpsk)
    assert np.isclose(qpsk.points[out.hard[0]], (1 + 1j) / np.sqrt(2))


def test_ml_noiseless(qam16):
    rng = np.random.default_rng(15)
    h = crandn(rng, 5, 3)
    idx = rng.integers(0, 16, 3)
    out = det.ml_bruteforce(h, h @ qam16.points[idx], qam16)
    assert np.array_equal(out.hard, idx)


def test_ml_double_loop_oracle(qam16):
    rng = np.random.default_rng(16)
    h = crandn(rng, 4, 2)
    y = crandn(rng, 4)
    best = None
    for i in range(16):
        for j in range(16):
            x = np.array([qam16.points[i], qam16.points[j]])
            m = float(np.sum(np.abs(y - h @ x) ** 2))
            if best is None or m < best[0]:
                best = (m, [i, j])
    out = det.ml_bruteforce(h, y, qam16)
    assert list(out.hard) == best[1]
    assert abs(out.metric - best[0]) < 1e-12


def test_ml_guard(qam16):
    with pytest.raises(SearchSpaceTooLargeError):
        det.ml_bruteforce(np.eye(6), np.zeros(6), qam16)


# --- robust chain ---------------------------------------------------------------


def robust_state(h, y, r_uu):
    return det.robust_apply(det.robust_plan(h, r_uu), y)


def robust_hard(h, y, r_uu, params, cons):
    """Hard decisions of the robust detector, as ``mudet.bench`` composes it."""
    st_ = robust_state(h, y, r_uu)
    return det.sr_kbest_detect(st_.r2, st_.y3, params, cons).permuted(st_.perm).symbols[0]


def test_robust_identity_hand_check():
    rng = np.random.default_rng(17)
    y = crandn(rng, 4)
    st_ = robust_state(np.eye(4), y, np.eye(4))
    assert np.allclose(st_.r1, np.eye(4), atol=1e-12)
    assert np.allclose(st_.x_mid, y / 2, atol=1e-12)
    assert np.allclose(st_.h2, 2 * np.eye(4), atol=1e-12)
    assert np.allclose(st_.r2, 2 * np.eye(4), atol=1e-12)
    assert np.allclose(st_.y3, y, atol=1e-12)
    assert list(st_.perm) == [0, 1, 2, 3]


def test_robust_identity_whitening_passthrough():
    rng = np.random.default_rng(18)
    h = crandn(rng, 6, 3)
    st_ = robust_state(h, crandn(rng, 6), np.eye(6))
    assert np.allclose(st_.h1, h)


def test_robust_apply_follows_chain_steps():
    # w = R_uu^-1/2; y1 = w y, h1 = w h = q1 r1; y2 = q1' y1;
    # h2 = inv(r1') + r1 = q2 r2 (sorted by perm); y3 = q2' y2
    rng = np.random.default_rng(19)
    h = crandn(rng, 8, 4)
    r_uu = random_pd(rng, 8)
    y = crandn(rng, 8)
    st_ = robust_state(h, y, r_uu)
    assert np.allclose(st_.w @ r_uu @ st_.w.conj().T, np.eye(8))
    assert np.allclose(st_.y1, st_.w @ y)
    assert np.allclose(st_.h1, st_.w @ h)
    assert np.allclose(st_.q1 @ st_.r1, st_.h1)
    assert np.allclose(st_.y2, st_.q1.conj().T @ st_.y1)
    assert np.allclose(st_.h2, np.linalg.inv(st_.r1.conj().T) + st_.r1)
    assert np.allclose(st_.q2 @ st_.r2, st_.h2[:, st_.perm])
    assert np.allclose(st_.y3, st_.q2.conj().T @ st_.y2)


def test_robust_whiteness_monte_carlo(qam16):
    rng = np.random.default_rng(20)
    g = crandn(rng, 16, 2)
    sigma2 = 0.1
    w = inv_sqrt(g @ g.conj().T + sigma2 * np.eye(16))
    s = qam16.points[rng.integers(0, 16, (100000, 2))]
    u = s @ g.T + np.sqrt(sigma2) * crandn(rng, 100000, 16)
    u1 = u @ w.T
    cov = (u1[:, :, None] * u1[:, None, :].conj()).mean(axis=0)
    assert np.linalg.norm(cov - np.eye(16)) <= 0.05 * np.linalg.norm(np.eye(16))


def test_robust_sr_kbest_noiseless_recovery(qam16):
    rng = np.random.default_rng(21)
    params = det.SrKBestParams.default_16_4()
    for _ in range(100):
        h = crandn(rng, 8, 4)
        idx = rng.integers(0, 16, 4)
        hard = robust_hard(h, h @ qam16.points[idx], 1e-12 * np.eye(8), params, qam16)
        assert np.array_equal(hard, idx)


def test_whitening_preserves_ml_argmin(qam16):
    # for white noise r_uu = sigma^2 I, the whitened model is a positive
    # scalar multiple of the original, so the ML decision is unchanged
    rng = np.random.default_rng(25)
    for _ in range(40):
        h = crandn(rng, 5, 2)
        y = h @ qam16.points[rng.integers(0, 16, 2)] + 0.4 * crandn(rng, 5)
        w = inv_sqrt(0.16 * np.eye(5))
        a = det.ml_bruteforce(h, y, qam16)
        b = det.ml_bruteforce(w @ h, w @ y, qam16)
        assert np.array_equal(a.hard, b.hard)


def test_robust_full_search_matches_whitened_ml(qam16):
    # with the search relaxed to exhaustive and a near-zero noise floor, the
    # hard output must equal brute-force ML on the whitened model
    rng = np.random.default_rng(22)
    full = det.SrKBestParams(k=256, s=0, p=[1] * 256, v=[0] * 256, q=[])
    for _ in range(50):
        h = crandn(rng, 6, 2)
        g = crandn(rng, 6, 1)
        r_uu = 1e-6 * (g @ g.conj().T + np.eye(6))
        idx = rng.integers(0, 16, 2)
        y = h @ qam16.points[idx]
        st_ = robust_state(h, y, r_uu)
        mlo = det.ml_bruteforce(st_.h1, st_.y1, qam16)
        assert np.array_equal(robust_hard(h, y, r_uu, full, qam16), mlo.hard)


# --- soft output ----------------------------------------------------------------


def test_compute_llrs_two_candidate_example(qpsk):
    cl = det.CandidateList(symbols=np.array([[0], [1]]), metrics=np.array([1.0, 3.0]))
    llr = det.compute_llrs(cl, qpsk, 1)
    assert llr[0] == 30.0  # bit 0 never takes value 1 in the list
    assert llr[1] == 2.0  # metrics 1.0 (bit=0) vs 3.0 (bit=1)


def test_compute_llrs_equal_metrics_zero(qpsk):
    cl = det.CandidateList(symbols=np.array([[0], [1]]), metrics=np.array([2.0, 2.0]))
    assert det.compute_llrs(cl, qpsk, 1)[1] == 0.0


def test_compute_llrs_missing_hypothesis_clamps(qpsk):
    cl = det.CandidateList(symbols=np.array([[1]]), metrics=np.array([0.5]))
    llr = det.compute_llrs(cl, qpsk, 1)
    assert llr[1] == -30.0


def test_compute_llrs_empty_raises(qpsk):
    cl = det.CandidateList(symbols=np.zeros((0, 1), dtype=int), metrics=np.zeros(0))
    with pytest.raises(ValueError):
        det.compute_llrs(cl, qpsk, 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=12), st.integers(0, 2**31 - 1))
def test_compute_llrs_sign_flips_under_complement(qam16, symbols, seed):
    symbols = np.asarray(symbols)[:, None]
    metrics = np.random.default_rng(seed).random(symbols.shape[0])
    cl = det.CandidateList(symbols=symbols, metrics=metrics)
    llr = det.compute_llrs(cl, qam16, 1)
    flipped = det.CandidateList(symbols=15 - symbols, metrics=metrics)
    llr_f = det.compute_llrs(flipped, qam16, 1)
    assert np.allclose(llr_f, -llr)


def test_robust_llrs_match_bruteforce_logmap(qpsk):
    # QPSK with 3 users has 64 hypotheses, all inside the soft-output list,
    # so the list LLRs must equal exhaustive log-MAP on the whitened model
    assert qpsk.size**3 == det.SOFT_LIST_WIDTH
    rng = np.random.default_rng(26)
    every = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), -1).reshape(-1, 3)
    bits = qpsk.bit_patterns[every].reshape(every.shape[0], -1)
    for _ in range(30):
        h = crandn(rng, 6, 3)
        g = crandn(rng, 6, 2)
        r_uu = g @ g.conj().T + 0.5 * np.eye(6)
        y = h @ qpsk.points[rng.integers(0, 4, 3)] + g @ crandn(rng, 2) + 0.7 * crandn(rng, 6)
        plan = det.robust_plan(h, r_uu)
        llr = det.robust_soft_llrs(plan, y, qpsk)
        st_ = det.robust_apply(plan, y)
        like = np.exp(-np.sum(np.abs(st_.y1 - qpsk.points[every] @ st_.h1.T) ** 2, axis=1))
        ref = np.log(like @ (bits == 0)) - np.log(like @ (bits == 1))
        assert np.max(np.abs(llr - np.clip(ref, -det.LLR_MAX, det.LLR_MAX))) <= 1e-9


def test_logmap_llrs_missing_hypothesis_clamps(qpsk):
    # both candidates carry bit 0 = 0 (QPSK indices 0 and 1)
    llr = det.logmap_llrs(np.array([[0], [1]]), np.array([1.0, 3.0]), qpsk)
    assert llr[0] == det.LLR_MAX
    assert llr[1] == pytest.approx(np.log(np.exp(-1.0)) - np.log(np.exp(-3.0)))
    llr = det.logmap_llrs(np.array([[3]]), np.array([0.5]), qpsk)
    assert list(llr) == [-det.LLR_MAX, -det.LLR_MAX]


def test_robust_soft_llrs_block_matches_rows(qam16):
    # a y = 0 row fills every layer of the soft list with exact ties; its
    # rotation is exactly zero alone or in a block, so its LLRs must match
    # bit for bit. The rotation of a nonzero row rounds differently alone
    # than inside a block product, so those rows match to rounding.
    rng = np.random.default_rng(27)
    h = crandn(rng, 16, 4)
    g = crandn(rng, 16, 2)
    plan = det.robust_plan(h, g @ g.conj().T + 0.3 * np.eye(16))
    y_block = 2.0 * crandn(rng, 18, 16)
    y_block[5] = 0.0
    llr = det.robust_soft_llrs(plan, y_block, qam16)
    assert llr.shape == (18, 4 * qam16.bits_per_symbol)
    assert np.array_equal(llr[5], det.robust_soft_llrs(plan, y_block[5], qam16))
    for t in range(18):
        one = det.robust_soft_llrs(plan, y_block[t], qam16)
        assert np.allclose(llr[t], one, rtol=0, atol=1e-12)


def test_robust_soft_llrs_rejects_non_finite_row(qam16):
    rng = np.random.default_rng(31)
    plan = det.robust_plan(crandn(rng, 16, 4), np.eye(16))
    y_block = crandn(rng, 3, 16)
    for bad in (np.nan, np.inf):
        y_block[1, 7] = bad
        with pytest.raises(ValueError):
            det.robust_soft_llrs(plan, y_block, qam16)


def test_equalizer_llrs_signs_at_high_snr(qam16):
    rng = np.random.default_rng(23)
    idx = rng.integers(0, 16, 50)
    x_eq = qam16.points[idx] + 0.01 * crandn(rng, 50)
    llr = det.equalizer_llrs(x_eq, np.ones(50), np.full(50, 1e-4), qam16)
    bits = qam16.bit_patterns[idx].ravel()
    assert np.all((llr > 0) == (bits == 0))
