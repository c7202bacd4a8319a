import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudet import bench
from mudet import detectors as det
from mudet.airlink import estimate_covariance
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


def one_user_wiener(h, r_uu, y):
    """Wiener estimate of one unit-power user: the one row of the MMSE-IRC
    weights, ``h' R_uu^-1 / (1 + h' R_uu^-1 h)`` by Sherman-Morrison."""
    return complex(det.mmse_irc_weights(np.asarray(h, dtype=complex)[:, None], r_uu, 1.0)[0] @ y)


def test_mmse_irc_single_user_hand_cases():
    est = one_user_wiener([1.0, 0.0, 0.0], np.eye(3), [1.0, 0.0, 0.0])
    assert abs(est - 0.5) < 1e-12
    assert one_user_wiener(np.zeros(3), np.eye(3), np.ones(3)) == 0.0


def test_mmse_irc_single_user_sherman_morrison_equivalence():
    rng = np.random.default_rng(0)
    for n in (3, 8, 64):
        for _ in range(40):
            h = crandn(rng, n)
            r_uu = random_pd(rng, n)
            y = crandn(rng, n)
            direct = complex(np.linalg.solve(r_uu + np.outer(h, h.conj()), h).conj() @ y)
            ours = one_user_wiener(h, r_uu, y)
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
    y = crandn(rng, 6)[None]
    ext = det.build_extended(h, y, 1.0, 0.0)
    assert np.allclose(ext.h_ext[6:], np.eye(3))
    ext = det.build_extended(h, y, 1.0, 3.0)
    assert np.allclose(ext.h_ext[6:], 2.0 * np.eye(3))
    assert ext.h_ext.shape == (9, 3) and ext.y_ext.shape == (1, 9)
    assert np.all(ext.y_ext[0, 6:] == 0)
    with pytest.raises(ValueError):
        det.build_extended(h, y, 0.0, 0.0)


# --- OSIC -----------------------------------------------------------------------


def extended_triangle(h, y, sigma_n2):
    """Sorted QR of the extended model and the rotated received rows ``y (B, n)``."""
    ext = det.build_extended(h, y, sigma_n2, 0.0)
    sq = sorted_qr(ext.h_ext)
    return sq, ext.y_ext @ sq.q.conj()


def test_osic_single_user_noiseless(qam16):
    rng = np.random.default_rng(5)
    h = crandn(rng, 4, 1)
    x = qam16.points[[7]]
    sq, y_tilde = extended_triangle(h, (h @ x)[None], 1e-12)
    out = det.osic_detect(sq.r, y_tilde, qam16)
    assert out.metrics.shape[-1] == 1 and np.array_equal(out.symbols[0, 0], [7])


def test_osic_noiseless_multiuser_exact(qam16):
    rng = np.random.default_rng(6)
    for _ in range(50):
        h = crandn(rng, 8, 4)
        idx = rng.integers(0, 16, 4)
        sq, y_tilde = extended_triangle(h, (h @ qam16.points[idx])[None], 1e-12)
        out = det.osic_detect(sq.r, y_tilde, qam16).permuted(sq.perm)
        assert np.array_equal(out.symbols[0, 0], idx)


def test_osic_equals_kbest_k1(qam16):
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = crandn(rng, 8, 4)
        y = h @ qam16.points[rng.integers(0, 16, 4)] + 0.3 * crandn(rng, 8)
        sq, y_tilde = extended_triangle(h, y[None], 0.09)
        out = det.osic_detect(sq.r, y_tilde, qam16)
        cl = det.kbest_detect(sq.r, y_tilde, 1, qam16, expand=1)
        assert np.array_equal(out.symbols, cl.symbols)
        assert np.isclose(out.metrics[0, 0], cl.metrics[0, 0], rtol=1e-12, atol=1e-12)


# --- K-best ---------------------------------------------------------------------


def test_kbest_identity_channel_is_slicing(qam16):
    rng = np.random.default_rng(8)
    y = crandn(rng, 4)
    cl = det.kbest_detect(np.eye(4), y[None], 1, qam16, expand=1)
    assert np.array_equal(cl.symbols[0, 0], qam16.nearest(y))


def test_kbest_exhaustive_equals_ml(qam16):
    rng = np.random.default_rng(9)
    for _ in range(60):
        h = crandn(rng, 4, 2)
        y = h @ qam16.points[rng.integers(0, 16, 2)] + 0.2 * crandn(rng, 4)
        q, r = qr_decompose(h)
        y_tilde = (q.conj().T @ y)[None]
        cl = det.kbest_detect(r, y_tilde, 256, qam16, expand=16)
        hard, _, metric = det.ml_bruteforce(r, y_tilde, qam16)
        assert np.array_equal(cl.symbols[0, 0], hard[0])
        assert abs(cl.metrics[0, 0] - metric[0]) < 1e-9


def test_kbest_exhaustive_equals_ml_qpsk_four_users(qpsk):
    rng = np.random.default_rng(24)
    for _ in range(60):
        h = crandn(rng, 6, 4)
        y = h @ qpsk.points[rng.integers(0, 4, 4)] + 0.3 * crandn(rng, 6)
        q, r = qr_decompose(h)
        y_tilde = (q.conj().T @ y)[None]
        cl = det.kbest_detect(r, y_tilde, 256, qpsk, expand=4)
        hard = det.ml_bruteforce(r, y_tilde, qpsk)[0]
        assert np.array_equal(cl.symbols[0, 0], hard[0])


def test_kbest_noiseless_keeps_transmitted(qam16):
    rng = np.random.default_rng(10)
    for k in (1, 4, 16):
        h = crandn(rng, 6, 3)
        idx = rng.integers(0, 16, 3)
        q, r = qr_decompose(h)
        cl = det.kbest_detect(r, (q.conj().T @ (h @ qam16.points[idx]))[None], k, qam16)
        assert np.array_equal(cl.symbols[0, 0], idx)
        assert cl.metrics[0, 0] < 1e-18


def test_kbest_output_sorted(qam16):
    rng = np.random.default_rng(11)
    h = crandn(rng, 6, 3)
    y = crandn(rng, 6)
    q, r = qr_decompose(h)
    cl = det.kbest_detect(r, (q.conj().T @ y)[None], 16, qam16, expand=4)
    assert cl.metrics.shape == (1, 16) and np.all(np.diff(cl.metrics[0]) >= 0)


def _smallest_input(family, shape, rng):
    """Non-negative metrics of one family that stresses the packed keys."""
    if family == "random":
        return rng.random(shape)
    if family == "levels":  # few distinct values: ties everywhere, at the cut too
        return rng.integers(0, 3, shape).astype(float)
    if family == "ulps":  # neighbours 0-40 ulps apart, within the index bits
        base = rng.choice([1.0, 0.75, 3.5e-7], shape)
        return (base.view(np.int64) + rng.integers(0, 40, shape)).view(float)
    if family == "nextafter":  # distinct values with 1-ulp neighbours
        values = rng.random(shape)
        nudge = rng.random(shape) < 0.3
        values[nudge] = np.nextafter(np.roll(values, 1, axis=-1)[nudge], np.inf)
        return values
    if family == "cut_tie":  # an exact tie around every cut position
        values = rng.random(shape)
        for c in (1, 4, 16, 64):
            if shape[-1] > c:
                ranked = np.sort(values, axis=-1)
                pos = rng.integers(0, shape[-1], shape[:-1])
                np.put_along_axis(values, pos[..., None], ranked[..., c - 1 : c], axis=-1)
        return values
    if family == "inf":
        return np.where(rng.random(shape) < 0.2, np.inf, rng.random(shape))
    if family == "zeros":  # one -0.0 per row, and in half of the rows a +0.0
        values = 0.5 + rng.random(shape)
        neg = rng.integers(0, shape[-1], shape[:-1])[..., None]
        np.put_along_axis(values, neg, -0.0, axis=-1)
        values[rng.random(shape[:-1]) < 0.5, rng.integers(0, shape[-1])] = 0.0
        return values
    if family == "index_xor":  # two smallest one ulp apart, the larger first,
        # at indices whose packed keys differ in every index bit
        values = 1.0 + rng.random(shape)
        n = shape[-1]
        low = (1 << (n - 1).bit_length()) - 1
        first = np.array([i for i in range(n) if i < i ^ low < n] or [0])
        i = rng.choice(first, shape[:-1])[..., None]
        j = np.where(i ^ low < n, i ^ low, i)
        np.put_along_axis(values, i, np.nextafter(0.5, 1.0), axis=-1)
        np.put_along_axis(values, j, 0.5, axis=-1)
        return values
    assert family == "magnitudes"
    return 10.0 ** rng.uniform(-300, 300, shape)


def test_smallest_equals_stable_argsort():
    shapes = [
        (1, 1), (1, 16), (3, 256), (2, 4, 16), (50, 17), (50, 16, 16), (50, 256), (18, 1024),
        # either side of the partition threshold, with cuts up to the whole row
        (4, 511), (4, 512), (2, 1024), (3, 4096),
    ]
    assert det._PARTITION_MIN == 512
    families = (
        "random", "levels", "ulps", "nextafter", "cut_tie", "inf", "zeros", "index_xor",
        "magnitudes",
    )
    rng = np.random.default_rng(37)
    for shape in shapes:
        n = shape[-1]
        counts = {1, 2, 4, 5, 16, 20, 64, 70}
        if n >= 500:
            counts |= {n // 2, n - 2, n - 1, n}
        for family in families:
            for _ in range(3):
                values = _smallest_input(family, shape, rng)
                order = np.argsort(values, axis=-1, kind="stable")
                for count in sorted(counts):
                    got = det._smallest(values, count)
                    assert np.array_equal(got, order[..., :count]), (shape, family, count)


def test_smallest_partitions_in_place():
    # the partition path must not copy the keys (np.partition would):
    # peak 1.51x the input's bytes in place against 2.02x with a copy
    values = np.random.default_rng(38).random((18, 1024))
    det._smallest(values, 64)  # warm
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        det._smallest(values, 64)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * values.nbytes


class _NoArgsort(np.ndarray):
    """An array whose ``argsort`` (method or ``np.argsort``) raises."""

    def argsort(self, *args, **kwargs):
        raise AssertionError("argsort called")


def test_smallest_key_sort_needs_no_argsort():
    rng = np.random.default_rng(31)
    big = {shape: rng.random(shape) for shape in ((50, 16, 16), (50, 256), (18, 1024))}
    small = rng.random((2, 256))
    refs = {shape: np.argsort(v, axis=-1, kind="stable") for shape, v in big.items()}
    for shape, values in big.items():
        assert values.size >= det._KEY_SORT_MIN
        got = det._smallest(values.view(_NoArgsort), 16)
        assert np.array_equal(got, refs[shape][..., :16])
    with pytest.raises(AssertionError, match="argsort called"):
        det._smallest(small.view(_NoArgsort), 16)  # under the size threshold


def _sorted_children_step(r, y_tilde, layer, symbols, metrics, cons, expand, k):
    """One layer that stable-sorts the children of each parent, keeps the
    first ``expand`` and stable-sorts those for the cut, read back through
    fancy indices, as the search did before its selections went through
    ``_smallest`` and its gathers through ``take``."""
    n_vec = y_tilde.shape[0]
    rows = np.arange(n_vec)[:, None]
    inc = det._layer_increments(r, y_tilde, layer, symbols, cons)
    order = np.argsort(inc, axis=-1, kind="stable")[:, :, :expand]
    flat = (metrics[:, :, None] + np.take_along_axis(inc, order, axis=-1)).reshape(n_vec, -1)
    sel = np.argsort(flat, axis=-1, kind="stable")[:, :k]
    symbols = symbols[rows, sel // expand]
    symbols[:, :, layer] = order.reshape(n_vec, -1)[rows, sel]
    return symbols, flat[rows, sel]


def _sorted_children_kbest(r, y_tilde, k, cons, expand=None):
    """K-best whose layers are :func:`_sorted_children_step`, expanding
    ``expand`` children per parent (all by default) below the root."""
    n_vec, m = y_tilde.shape
    symbols = np.zeros((n_vec, 1, m), dtype=np.int64)
    metrics = np.zeros((n_vec, 1))
    for layer in range(m - 1, -1, -1):
        eff = cons.size if layer == m - 1 or expand is None else expand
        symbols, metrics = _sorted_children_step(r, y_tilde, layer, symbols, metrics, cons, eff, k)
    return symbols, metrics


def _tie_rule_kbest(r, y_tilde, k, cons):
    """Full-expansion K-best that ranks every child of a layer by
    (accumulated metric, survivor index, constellation index)."""
    n_vec, m = y_tilde.shape
    symbols = np.zeros((n_vec, 1, m), dtype=np.int64)
    metrics = np.zeros((n_vec, 1))
    for layer in range(m - 1, -1, -1):
        child = metrics[:, :, None] + det._layer_increments(r, y_tilde, layer, symbols, cons)
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
        symbols, metrics = _sorted_children_kbest(r, y_tilde, k, cons)
        assert np.array_equal(cl.symbols, symbols)
        assert np.array_equal(cl.metrics, metrics)


@pytest.mark.parametrize("zero_rows", [False, True])
def test_partial_expansion_matches_sorted_children(qpsk, qam16, zero_rows):
    # 60 rows: the per-parent ranking and the cut are large enough for keys
    rng = np.random.default_rng(43)
    for cons, m, expand in ((qam16, 4, 4), (qam16, 5, 2), (qpsk, 6, 3)):
        h = crandn(rng, m + 2, m)
        q, r = qr_decompose(h)
        x = cons.points[rng.integers(0, cons.size, (60, m))]
        y_tilde = (x @ h.T + 0.5 * crandn(rng, 60, m + 2)) @ q.conj()
        if zero_rows:
            y_tilde[::5] = 0.0
        cl = det.kbest_detect(r, y_tilde, 16, cons, expand)
        symbols, metrics = _sorted_children_kbest(r, y_tilde, 16, cons, expand)
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
        symbols, metrics = _tie_rule_kbest(r, y_tilde, k, cons)
        assert np.array_equal(cl.symbols, symbols)
        assert np.array_equal(cl.metrics, metrics)


@pytest.mark.parametrize("cons_name", ["qpsk", "qam16"])
@pytest.mark.parametrize("n_vec", [1, 2, 50])
@pytest.mark.parametrize("k", [1, 16, 64])
def test_layer_increments_are_complex_offset_squares_bit_for_bit(request, cons_name, n_vec, k):
    # every child's distance is x.real * x.real + x.imag * x.imag of its
    # complex offset; rows on a lattice point give exact zeros and ties
    cons = request.getfixturevalue(cons_name)
    points = cons.points
    rng = np.random.default_rng(97)
    q, r = qr_decompose(crandn(rng, 6, 4))
    y_tilde = crandn(rng, n_vec, 4)
    y_tilde[::3] = points[rng.integers(0, cons.size, (y_tilde[::3].shape[0], 4))] @ r.T
    y_tilde[1::4] = 0.0
    symbols = rng.integers(0, cons.size, (n_vec, k, 4))
    for layer in range(4):
        inc = det._layer_increments(r, y_tilde, layer, symbols, cons)
        tail = points[symbols[:, :, layer + 1 :]] @ r[layer, layer + 1 :]
        x = (y_tilde[:, layer, None] - tail)[:, :, None] - r[layer, layer] * points
        assert inc.shape == (n_vec, k, cons.size)
        assert np.array_equal(inc.view(np.uint64), (x.real * x.real + x.imag * x.imag).view(np.uint64))


def test_tree_searches_reject_a_complex_diagonal(qam16):
    r = np.triu(crandn(np.random.default_rng(5), 3, 3))
    y_tilde = np.zeros((1, 3), dtype=complex)
    params = det.SrKBestParams.default_16_4()
    for search in (
        lambda: det.kbest_detect(r, y_tilde, 4, qam16),
        lambda: det.sr_kbest_detect(r, y_tilde, params, qam16),
        lambda: det.osic_detect(r, y_tilde, qam16),
    ):
        with pytest.raises(ValueError, match="real diagonal"):
            search()


# --- SR-K-best ------------------------------------------------------------------


def test_sr_params_default_schedule():
    p = det.SrKBestParams.default_16_4()
    assert p.k == 16 and p.s == 4
    assert sum(p.p) == p.k - p.s == 12
    assert p.q == (2, 4, 6, 8)
    assert all(a + b <= det.SR_EXPAND_BUDGET for a, b in zip(p.p, p.v))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=16, s=20, p=[0] * 16, v=[1] * 16, q=list(range(1, 21))),
        dict(k=16, s=4, p=[1] * 16, v=[1] * 16, q=[2, 4, 6, 8]),  # sum(p) != k-s
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[4] * 16, q=[2, 4, 6, 8]),
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[1] * 16, q=[4, 2, 6, 8]),
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[0] * 16, q=[2, 4, 6, 8]),
        # entries that are not integers, or not a flat list: the fractions
        # would truncate to a valid schedule
        dict(k=16, s=4, p=[2.9] + [1] * 10 + [0] * 5, v=[1] * 16, q=[2, 4, 6, 8]),
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[1] * 16, q=[2.5, 4, 6, 8]),
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[True] * 16, q=[2, 4, 6, 8]),
        dict(k=16, s=4, p=[2] + [1] * 10 + [0] * 5, v=[1] * 16, q=["2", "4", "6", "8"]),
        dict(k=16, s=4, p=np.reshape([2] + [1] * 10 + [0] * 5, (4, 4)), v=[1] * 16, q=[2, 4, 6, 8]),
    ],
)
def test_sr_params_invalid(kwargs):
    with pytest.raises(InvalidSearchParamsError):
        det.SrKBestParams(**kwargs)


def test_sr_params_direct_slots_are_the_slots_outside_q():
    for params in SR_SCHEDULES.values():
        _, direct_slots, q_slots, _ = params.fill_indices
        assert direct_slots.dtype.kind == q_slots.dtype.kind == "i"
        assert np.array_equal(q_slots, np.array(params.q, dtype=int) - 1)
        assert np.array_equal(direct_slots, np.setdiff1d(np.arange(params.k), q_slots))


def test_sr_params_compare_and_hash_by_value():
    ref = det.SrKBestParams.default_16_4()
    as_list = det.SrKBestParams(k=16, s=4, p=list(ref.p), v=list(ref.v), q=[2, 4, 6, 8])
    as_array = det.SrKBestParams(
        k=16, s=4, p=np.array(ref.p), v=np.array(ref.v, dtype=np.uint8), q=np.arange(2, 9, 2)
    )
    assert ref == as_list == as_array and hash(ref) == hash(as_list) == hash(as_array)
    assert all(type(e) is int for e in as_array.p + as_array.v + as_array.q)
    other = det.SrKBestParams(k=16, s=4, p=(1, 2) + ref.p[2:], v=(3, 0) + ref.v[2:], q=ref.q)
    assert other != ref and len({ref, as_list, as_array, other}) == 2


def test_first_sr_search_imports_no_masked_arrays():
    code = (
        "import sys\n"
        "from mudet import airlink, detectors as det\n"
        "cons = airlink.build_constellation('qam16')\n"
        "det.sr_kbest_detect(4 * __import__('numpy').eye(4), [[1, 2, 3, 4]],\n"
        "                    det.SrKBestParams.default_16_4(), cons)\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


def test_build_code_imports_no_masked_arrays():
    code = (
        "import sys\n"
        "from mudet import fec\n"
        "fec.build_code(0)\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


def test_sr_degenerate_reduces_to_kbest(qam16, qpsk):
    rng = np.random.default_rng(12)
    for cons, k in ((qam16, 16), (qpsk, 4)):
        degen = det.SrKBestParams(k=k, s=0, p=[1] * k, v=[0] * k, q=[])
        for _ in range(50):
            h = crandn(rng, 12, 6)
            y = h @ cons.points[rng.integers(0, cons.size, 6)] + 0.3 * crandn(rng, 12)
            q, r = qr_decompose(h)
            y_tilde = (q.conj().T @ y)[None]
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
        y_tilde = (q.conj().T @ y)[None]
        sr = det.sr_kbest_detect(r, y_tilde, params, qpsk)
        metric = det.ml_bruteforce(r, y_tilde, qpsk)[2]
        assert sr.metrics[0, 0] >= metric[0] - 1e-9


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
        y_tilde = (q.conj().T @ y)[None]
        sr = det.sr_kbest_detect(r, y_tilde, params, qam16)
        kb = det.kbest_detect(r, y_tilde, 16, qam16, expand=4)
        assert sr.metrics[0, 0] >= kb.metrics[0, 0] - 1e-9
        if abs(sr.metrics[0, 0] - kb.metrics[0, 0]) < 1e-9:
            equal += 1
    assert equal >= 0.9 * n_trials


def _sr_reference(r, y_tilde, params, cons):
    """Sorting-reduced K-best whose scheduled layers stable-sort all children
    of each parent, then place the direct children and the stable-sorted
    pool winners with separate gathers, as the search did before its
    selections went through packed keys. The warm-up layers are
    :func:`_sorted_children_step`."""
    n_vec, m = y_tilde.shape
    k, s = params.k, params.s
    rows = np.arange(n_vec)[:, None]
    direct_parent = np.repeat(np.arange(k), params.p)
    direct_rank = np.concatenate([np.arange(c) for c in params.p]).astype(int)
    pool_parent = np.repeat(np.arange(k), params.v)
    pool_rank = np.concatenate([p + np.arange(c) for p, c in zip(params.p, params.v)]).astype(int)
    q_slots = np.array(params.q) - 1
    direct_slots = np.setdiff1d(np.arange(k), q_slots)
    symbols = np.zeros((n_vec, 1, m), dtype=np.int64)
    metrics = np.zeros((n_vec, 1))
    for layer in range(m - 1, -1, -1):
        if symbols.shape[1] < k:
            symbols, metrics = _sorted_children_step(
                r, y_tilde, layer, symbols, metrics, cons, cons.size, k
            )
            continue
        inc = det._layer_increments(r, y_tilde, layer, symbols, cons)
        order = np.argsort(inc, axis=-1, kind="stable")
        child = metrics[:, :, None] + np.take_along_axis(inc, order, axis=-1)
        out_symbols = np.empty_like(symbols)
        out_metrics = np.empty(metrics.shape)
        out_symbols[:, direct_slots] = symbols[:, direct_parent]
        out_symbols[:, direct_slots, layer] = order[:, direct_parent, direct_rank]
        out_metrics[:, direct_slots] = child[:, direct_parent, direct_rank]
        if s:
            pool = child[:, pool_parent, pool_rank]
            winners = np.argsort(pool, axis=-1, kind="stable")[:, :s]
            parents = pool_parent[winners]
            out_symbols[:, q_slots] = symbols[rows, parents]
            out_symbols[:, q_slots, layer] = order[rows, parents, pool_rank[winners]]
            out_metrics[:, q_slots] = pool[rows, winners]
        symbols, metrics = out_symbols, out_metrics
    final = np.argsort(metrics, axis=-1, kind="stable")
    return symbols[rows, final], metrics[rows, final]


SR_SCHEDULES = {
    "default": det.SrKBestParams.default_16_4(),
    "no-pool": det.SrKBestParams(
        k=16, s=0, p=[4, 3, 2, 2, 1, 1, 1, 1, 1] + [0] * 7, v=[0] * 16, q=[]
    ),
    "full-budget": det.SrKBestParams(
        k=16,
        s=6,
        p=[2, 2, 1, 1, 1, 1, 1, 1] + [0] * 8,
        v=[2, 2, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 4, 4, 0, 0],
        q=[1, 3, 6, 9, 12, 16],
    ),
}


@pytest.mark.parametrize("schedule", sorted(SR_SCHEDULES))
@pytest.mark.parametrize("zero_rows", [False, True])
def test_sr_matches_reference(qpsk, qam16, schedule, zero_rows):
    params = SR_SCHEDULES[schedule]
    rng = np.random.default_rng(41)
    for cons in (qam16, qpsk):
        for _ in range(3):
            h = crandn(rng, 7, 5)
            q, r = qr_decompose(h)
            x = cons.points[rng.integers(0, cons.size, (60, 5))]
            y_tilde = (x @ h.T + 0.6 * crandn(rng, 60, 7)) @ q.conj()
            if zero_rows:  # y_tilde = 0: exact ties in every selection
                y_tilde[::5] = 0.0
            cl = det.sr_kbest_detect(r, y_tilde, params, cons)
            symbols, metrics = _sr_reference(r, y_tilde, params, cons)
            assert np.array_equal(cl.symbols, symbols)
            assert np.array_equal(cl.metrics, metrics)


def _wide_schedule(k):
    """A valid ``k``-survivor schedule: every parent sends one direct child
    and two pool members, the first ``k // 8`` two direct children, and the
    pool fills every other slot of the list's head."""
    s = k // 8
    p = [2] * s + [1] * (k - 3 * s) + [0] * (2 * s)
    return det.SrKBestParams(k=k, s=s, p=p, v=[2] * k, q=list(range(2, 2 * s + 1, 2)))


@pytest.mark.parametrize("n_vec", [1, 2, 18, 50])
@pytest.mark.parametrize("k", [1, 16, 64])
def test_lists_bit_identical_to_fancy_index_searches(qpsk, qam16, n_vec, k):
    # the take gathers and the partition cut (a 64-wide QAM16 list ranks
    # 1024 children per layer) against the stable-sort, fancy-index layers
    rng = np.random.default_rng(47)
    params = _wide_schedule(k)
    for cons, m in ((qam16, 4), (qpsk, 6)):
        h = crandn(rng, m + 2, m)
        q, r = qr_decompose(h)
        x = cons.points[rng.integers(0, cons.size, (n_vec, m))]
        y_tilde = (x @ h.T + 0.5 * crandn(rng, n_vec, m + 2)) @ q.conj()
        y_tilde[::3] = 0.0  # exact ties in every selection of those rows
        ref = _sorted_children_kbest(r, y_tilde, k, cons)
        for best_only, keep in ((False, k), (True, 1)):
            cl = det.kbest_detect(r, y_tilde, k, cons, best_only=best_only)
            assert np.array_equal(cl.symbols, ref[0][:, :keep])
            assert np.array_equal(cl.metrics, ref[1][:, :keep])
        ref = _sr_reference(r, y_tilde, params, cons)
        for best_only, keep in ((False, k), (True, 1)):
            cl = det.sr_kbest_detect(r, y_tilde, params, cons, best_only=best_only)
            assert np.array_equal(cl.symbols, ref[0][:, :keep])
            assert np.array_equal(cl.metrics, ref[1][:, :keep])


def _leaf_models(rng, cons, m, n_vec, case):
    """``(r, y_tilde)`` of the extended model and of the robust
    ``(sq.r, y @ rotate.T)`` model. ``zero-rows`` zeroes every fifth row
    and ``tied-norms`` gives the channel equal column norms (``r`` has a
    constant diagonal), both of which tie the last layer's minimum. The
    noise is strong enough that a parent outside ``leaf_parents`` often
    holds the best child of a scheduled last layer."""
    h = np.kron([[1.0], [1.0]], np.eye(m)) if case == "tied-norms" else crandn(rng, 2 * m, m)
    y = cons.points[rng.integers(0, cons.size, (n_vec, m))] @ h.T + 2.0 * crandn(rng, n_vec, 2 * m)
    if case == "zero-rows":
        y[::5] = 0.0
    ext = det.build_extended(h, y, 0.2, 0.1)
    sq = sorted_qr(ext.h_ext)
    rotate, robust = det.robust_plan(h, random_pd(rng, 2 * m))
    return (sq.r, ext.y_ext @ sq.q.conj()), (robust.r, y @ rotate.T)


LEAF_SEARCHES = {
    "kbest-full": lambda r, y, cons, best_only: det.kbest_detect(
        r, y, 16, cons, best_only=best_only
    ),
    "kbest-partial": lambda r, y, cons, best_only: det.kbest_detect(
        r, y, 16, cons, expand=2, best_only=best_only
    ),
    **{
        f"sr-{name}": (
            lambda r, y, cons, best_only, params=params: det.sr_kbest_detect(
                r, y, params, cons, best_only=best_only
            )
        )
        for name, params in SR_SCHEDULES.items()
    },
}


@pytest.mark.parametrize("search", sorted(LEAF_SEARCHES))
@pytest.mark.parametrize("cons_name", ["qam16", "qpsk"])
def test_best_only_is_the_first_candidate_of_the_full_list(request, search, cons_name):
    # symbols and metric bits of full[:, :1]; zero rows and tied column
    # norms put exact ties into the last layer's minimum
    cons = request.getfixturevalue(cons_name)
    run = LEAF_SEARCHES[search]
    rng = np.random.default_rng(73)
    for n_vec in (1, 2, 50):
        for m in (1, 2, 4):
            for case in ("plain", "zero-rows", "tied-norms"):
                for r, y_tilde in _leaf_models(rng, cons, m, n_vec, case):
                    full = run(r, y_tilde, cons, False)
                    best = run(r, y_tilde, cons, True)
                    assert best.symbols.shape == (n_vec, 1, m)
                    assert np.array_equal(best.symbols, full.symbols[:, :1])
                    assert np.array_equal(
                        best.metrics.view(np.uint64), full.metrics[:, :1].view(np.uint64)
                    )


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
        row = y_tilde[t, None]
        one = det.kbest_detect(sq.r, row, k, cons, expand)
        assert np.array_equal(kb.symbols[t], one.symbols[0])
        assert np.array_equal(kb.metrics[t], one.metrics[0])
        one = det.sr_kbest_detect(sq.r, row, params, cons)
        assert np.array_equal(sr.symbols[t], one.symbols[0])
        assert np.array_equal(sr.metrics[t], one.metrics[0])
        one = det.osic_detect(sq.r, row, cons)
        assert np.array_equal(os_.symbols[t], one.symbols[0])
        assert np.allclose(os_.metrics[t], one.metrics[0], rtol=1e-12, atol=1e-12)


ENTRY_POINTS = (
    "build_extended", "osic_detect", "kbest_detect", "sr_kbest_detect", "ml_bruteforce",
    "equalizer_llrs",
)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_take_blocks_only(qam16, name):
    # one vector is passed as a one-row block, and every output keeps its row axis
    rng = np.random.default_rng(67)
    h = crandn(rng, 6, 3)
    y = crandn(rng, 6)
    r = qr_decompose(h)[1]
    params = det.SrKBestParams.default_16_4()

    def listed(cands):
        return cands.symbols, cands.metrics

    call, width = {
        "build_extended": (lambda v: (det.build_extended(h, v, 0.5, 0.0).y_ext,), 6),
        "osic_detect": (lambda v: listed(det.osic_detect(r, v, qam16)), 3),
        "kbest_detect": (lambda v: listed(det.kbest_detect(r, v, 4, qam16)), 3),
        "sr_kbest_detect": (lambda v: listed(det.sr_kbest_detect(r, v, params, qam16)), 3),
        "ml_bruteforce": (lambda v: det.ml_bruteforce(h, v, qam16), 6),
        "equalizer_llrs": (
            lambda v: (det.equalizer_llrs(v, np.ones(3), np.full(3, 0.1), qam16),), 3
        ),
    }[name]
    with pytest.raises(ValueError, match=rf"\(B, {width}\) block, got ndim=1"):
        call(y[:width])
    for out in call(y[None, :width]):
        assert isinstance(out, np.ndarray) and out.shape[0] == 1


def test_batched_apply_and_llrs_equal_row_by_row(qam16, monkeypatch):
    rng = np.random.default_rng(28)
    h = crandn(rng, 8, 3)
    r_uu = random_pd(rng, 8)
    y = crandn(rng, 5, 8)
    rotate, sq = det.robust_plan(h, r_uu)
    y_tilde = y @ rotate.T
    cands = det.sr_kbest_detect(sq.r, y_tilde, det.SrKBestParams.default_16_4(), qam16)
    llr = det.logmap_llrs(cands.symbols, cands.metrics, qam16)
    x_eq = 1.3 * crandn(rng, 5, 3)
    bias = np.array([0.9, 1.0, 1.1])
    noise = np.array([0.1, 0.2, 0.3])
    eq = det.equalizer_llrs(x_eq, bias, noise, qam16)
    for t in range(5):
        assert np.allclose(y_tilde[t], (y[t, None] @ rotate.T)[0], rtol=0, atol=1e-12)
        assert np.array_equal(llr[t], det.logmap_llrs(cands.symbols[t], cands.metrics[t], qam16))
        assert np.array_equal(eq[t], det.equalizer_llrs(x_eq[t, None], bias, noise, qam16)[0])
    # 4096 candidates in chunks of 64, scored 12 at a time for 5 vectors, so
    # a row's minimum can fall in any chunk; at y = 0 the candidates x and
    # -x tie exactly, and they lie in different chunks
    monkeypatch.setattr(det, "_ML_CHUNK", 64)
    y[4] = 0.0
    hard, llr, metric = det.ml_bruteforce(h, y, qam16)
    for t in range(5):
        one_hard, one_llr, one_metric = det.ml_bruteforce(h, y[t, None], qam16)
        assert np.array_equal(hard[t], one_hard[0])
        assert np.array_equal(llr[t], one_llr[0])
        assert np.isclose(metric[t], one_metric[0], rtol=1e-12, atol=1e-12)
    every = (np.arange(4096)[:, None] // np.array([256, 16, 1])) % 16
    dist = np.sum(np.abs(qam16.points[every] @ h.T) ** 2, axis=1)
    assert np.array_equal(hard[4], every[np.argmin(dist)])  # lowest index wins


def test_hard_only_paths_match_soft(qam16):
    rng = np.random.default_rng(31)
    h = crandn(rng, 6, 2)
    y = h @ qam16.points[rng.integers(0, 16, (2, 7))] + 0.4 * crandn(rng, 6, 7)
    y = y.T
    pairs = (
        (det.ml_bruteforce(h, y, qam16), det.ml_bruteforce(h, y, qam16, soft=False)),
        (det.ml_bruteforce(h, y[:1], qam16), det.ml_bruteforce(h, y[:1], qam16, soft=False)),
    )
    for soft, hard in pairs:
        assert hard[1] is None and soft[1] is not None
        assert np.array_equal(hard[0], soft[0])
        assert np.array_equal(hard[2], soft[2])


# --- brute-force ML -------------------------------------------------------------


def test_ml_single_user_nearest_point(qpsk):
    hard = det.ml_bruteforce(np.array([[1.0]]), np.array([[0.9 + 0.1j]]), qpsk)[0]
    assert np.isclose(qpsk.points[hard[0, 0]], (1 + 1j) / np.sqrt(2))


def test_ml_noiseless(qam16):
    rng = np.random.default_rng(15)
    h = crandn(rng, 5, 3)
    idx = rng.integers(0, 16, 3)
    hard = det.ml_bruteforce(h, (h @ qam16.points[idx])[None], qam16)[0]
    assert np.array_equal(hard[0], idx)


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
    hard, _, metric = det.ml_bruteforce(h, y[None], qam16)
    assert list(hard[0]) == best[1]
    assert abs(metric[0] - best[0]) < 1e-12


def test_ml_guard(qam16):
    with pytest.raises(SearchSpaceTooLargeError):
        det.ml_bruteforce(np.eye(6), np.zeros((1, 6)), qam16)


# --- robust chain ---------------------------------------------------------------


def robust_detect(h, r_uu, y_block, cons, coded, params=None):
    """Hard decisions (uncoded) or LLRs (coded) of the robust detector on
    the rows of ``y_block``, as ``mudet.bench`` composes them; it reads no
    noise power."""
    n_rx, n_users = h.shape
    params = params or det.SrKBestParams.default_16_4()
    cfg = bench.ScenarioConfig(n_rx=n_rx, n_users=n_users, sr_params=params)
    know = bench._TrialKnowledge(h_hat=h, r_uu=r_uu, sigma_det=1.0, sigma_i2=0.0)
    return bench._detect_uses(cfg, "robust-sr-kbest", cons, know, y_block, coded=coded)


def test_robust_identity_whitening_passthrough():
    # white unit-power noise needs no whitening: the rotation only
    # triangularizes, so it maps the sorted QR back onto the channel
    rng = np.random.default_rng(18)
    h = crandn(rng, 6, 3)
    rotate, sq = det.robust_plan(h, np.eye(6))
    assert np.allclose(rotate.conj().T @ sq.r, h[:, sq.perm])


def _covariance_inputs(rng):
    """(h, r_uu) pairs: C- and Fortran-ordered, ill-conditioned, and sample
    covariances from fewer samples than antennas at the default loading."""
    pairs = []
    for n, m in ((16, 4), (8, 4), (6, 2), (64, 16)):
        g = crandn(rng, n, 2)
        pairs.append((crandn(rng, n, m), g @ g.conj().T + 0.3 * np.eye(n)))
        pairs.append((np.asfortranarray(crandn(rng, n, m)), np.asfortranarray(random_pd(rng, n))))
        pairs.append((crandn(rng, n, m), 1e-6 * (g @ g.conj().T) + 1e-9 * np.eye(n)))
        for samples in (1, n // 4, n - 1):
            res = crandn(rng, samples, n) @ np.diag(np.linspace(1.0, 3.0, n))
            pairs.append((crandn(rng, n, m), estimate_covariance(res)))
    pairs.append((np.eye(4), np.eye(4)))  # r1 = I: tied column norms in its sorted QR
    pairs.append((np.kron([[1.0], [1.0]], np.eye(4)), 2.0 * np.eye(8)))
    return pairs


def test_robust_plan_rotates_onto_the_sorted_whitened_channel():
    # the rotation whitens the noise and triangularizes the permuted channel:
    # rotate h_hat[:, perm] = r with a real, positive diagonal, and the
    # rotated noise is white with unit power
    rng = np.random.default_rng(47)
    for h, r_uu in _covariance_inputs(rng):
        rotate, sq = det.robust_plan(h, r_uu)
        m = h.shape[1]
        assert rotate.shape == (m, h.shape[0]) and sq.r.shape == (m, m)
        assert sorted(sq.perm) == list(range(m))
        scale = np.linalg.norm(sq.r)
        assert np.allclose(rotate @ h[:, sq.perm], sq.r, rtol=0, atol=1e-10 * scale)
        assert np.allclose(rotate @ r_uu @ rotate.conj().T, np.eye(m), rtol=0, atol=1e-6)
        assert np.array_equal(np.triu(sq.r), sq.r)
        assert not sq.r.diagonal().imag.any() and np.all(sq.r.diagonal().real > 0)


def test_whitening_few_samples_at_default_loading(qam16):
    # the paper's regime: a covariance estimated from fewer residual samples
    # than antennas, made positive definite only by the 1e-6 relative loading
    rng = np.random.default_rng(59)
    for n, samples in ((16, 4), (16, 15), (64, 16), (64, 63)):
        g = crandn(rng, n, 2)
        res = crandn(rng, samples, 2) @ g.T + 0.1 * crandn(rng, samples, n)
        r_uu = estimate_covariance(res)
        w = inv_sqrt(r_uu)
        assert np.linalg.norm(w @ r_uu @ w.conj().T - np.eye(n)) <= 1e-6
        h = crandn(rng, n, 4)
        rotate, sq = det.robust_plan(h, r_uu)
        h1 = w @ h
        assert np.allclose(rotate @ h[:, sq.perm], sq.r, rtol=0, atol=1e-8 * np.linalg.norm(h1))
        idx = rng.integers(0, 16, (3, 4))
        y_tilde = (qam16.points[idx] @ h.T) @ rotate.T
        params = det.SrKBestParams.default_16_4()
        cands = det.sr_kbest_detect(sq.r, y_tilde, params, qam16)
        assert np.all(np.isfinite(cands.metrics))
        llr = robust_detect(h, r_uu, qam16.points[idx] @ h.T, qam16, coded=True)
        assert np.all(np.isfinite(llr))


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
        y = (h @ qam16.points[idx])[None]
        hard = robust_detect(h, 1e-12 * np.eye(8), y, qam16, coded=False, params=params)
        assert np.array_equal(hard[0], idx)


def test_whitening_preserves_ml_argmin(qam16):
    # for white noise r_uu = sigma^2 I, the whitened model is a positive
    # scalar multiple of the original, so the ML decision is unchanged
    rng = np.random.default_rng(25)
    for _ in range(40):
        h = crandn(rng, 5, 2)
        y = h @ qam16.points[rng.integers(0, 16, 2)] + 0.4 * crandn(rng, 5)
        w = inv_sqrt(0.16 * np.eye(5))
        a = det.ml_bruteforce(h, y[None], qam16)[0]
        b = det.ml_bruteforce(w @ h, (w @ y)[None], qam16)[0]
        assert np.array_equal(a, b)


def test_robust_full_search_matches_whitened_ml(qam16):
    # with the search relaxed to exhaustive, the hard output must equal
    # brute-force ML on the whitened model, noise and interferer included
    rng = np.random.default_rng(2323)
    full = det.SrKBestParams(k=256, s=0, p=[1] * 256, v=[0] * 256, q=[])
    for _ in range(100):
        h = crandn(rng, 6, 2)
        g = crandn(rng, 6, 1)
        r_uu = g @ g.conj().T + 0.3 * np.eye(6)
        x = qam16.points[rng.integers(0, 16, (8, 2))]
        y = x @ h.T + crandn(rng, 8, 1) @ g.T + np.sqrt(0.3) * crandn(rng, 8, 6)
        w = inv_sqrt(r_uu)
        hard = det.ml_bruteforce(w @ h, y @ w.T, qam16, soft=False)[0]
        assert np.array_equal(robust_detect(h, r_uu, y, qam16, coded=False, params=full), hard)


# --- soft output ----------------------------------------------------------------


# list log-MAP (logmap_llrs) on hand-sized lists; each behaviour held under
# the max-log rule these tests were first written for


def test_logmap_llrs_two_candidate_example(qpsk):
    llr = det.logmap_llrs(np.array([[0], [1]]), np.array([1.0, 3.0]), qpsk)
    assert llr[0] == 30.0  # bit 0 never takes value 1 in the list
    assert llr[1] == pytest.approx(2.0)  # likelihoods e^-1 (bit=0) vs e^-3 (bit=1)


def test_logmap_llrs_equal_metrics_zero(qpsk):
    assert det.logmap_llrs(np.array([[0], [1]]), np.array([2.0, 2.0]), qpsk)[1] == 0.0


def test_logmap_llrs_lone_candidate_clamps(qpsk):
    llr = det.logmap_llrs(np.array([[1]]), np.array([0.5]), qpsk)
    assert llr[1] == -30.0


def test_logmap_llrs_empty_raises(qpsk):
    with pytest.raises(ValueError):
        det.logmap_llrs(np.zeros((0, 1), dtype=int), np.zeros(0), qpsk)


def _logmap_llrs_before(symbols, metrics, cons):
    """``logmap_llrs`` as it was before its bit patterns were gathered by
    ``take``: one fancy index into ``cons.bit_patterns``."""
    bits = cons.bit_patterns[symbols].reshape(*metrics.shape, -1)
    weight = np.exp(metrics.min(axis=-1, keepdims=True) - metrics)
    sum1 = np.einsum("...c,...cb->...b", weight, bits)
    sum0 = np.einsum("...c,...cb->...b", weight, 1 - bits)
    with np.errstate(divide="ignore"):
        llr = np.log(sum0) - np.log(sum1)
    return np.clip(llr, -det.LLR_MAX, det.LLR_MAX)


@pytest.mark.parametrize("lead", [(), (5,), (3, 18)])
def test_logmap_llrs_bit_identical_to_fancy_index(qpsk, qam16, lead):
    # 1-D to 3-D metrics; close and distant metrics, absent hypotheses included
    rng = np.random.default_rng(53)
    for cons in (qpsk, qam16):
        for n_cand, n_users in ((1, 1), (4, 3), (64, 4)):
            symbols = rng.integers(0, cons.size, (*lead, n_cand, n_users))
            metrics = np.sort(rng.exponential(4.0, (*lead, n_cand)), axis=-1)
            got = det.logmap_llrs(symbols, metrics, cons)
            ref = _logmap_llrs_before(symbols, metrics, cons)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=12), st.integers(0, 2**31 - 1))
def test_logmap_llrs_sign_flips_under_complement(qam16, symbols, seed):
    symbols = np.asarray(symbols)[:, None]
    metrics = np.random.default_rng(seed).random(symbols.shape[0])
    llr = det.logmap_llrs(symbols, metrics, qam16)
    llr_f = det.logmap_llrs(15 - symbols, metrics, qam16)
    assert np.allclose(llr_f, -llr)


def test_robust_llrs_match_bruteforce_logmap(qpsk):
    # QPSK with 3 users has 64 hypotheses, all inside the soft-output list,
    # so the list LLRs must equal exhaustive log-MAP on the whitened model
    assert qpsk.size**3 == bench.SOFT_LIST_WIDTH
    rng = np.random.default_rng(26)
    every = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), -1).reshape(-1, 3)
    bits = qpsk.bit_patterns[every].reshape(every.shape[0], -1)
    for _ in range(30):
        h = crandn(rng, 6, 3)
        g = crandn(rng, 6, 2)
        r_uu = g @ g.conj().T + 0.5 * np.eye(6)
        y = h @ qpsk.points[rng.integers(0, 4, 3)] + g @ crandn(rng, 2) + 0.7 * crandn(rng, 6)
        w = inv_sqrt(r_uu)
        llr = robust_detect(h, r_uu, y[None], qpsk, coded=True)[0]
        y1 = w @ y
        like = np.exp(-np.sum(np.abs(y1 - qpsk.points[every] @ (w @ h).T) ** 2, axis=1))
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
    r_uu = g @ g.conj().T + 0.3 * np.eye(16)
    y_block = 2.0 * crandn(rng, 18, 16)
    y_block[5] = 0.0
    llr = robust_detect(h, r_uu, y_block, qam16, coded=True)
    assert llr.shape == (18, 4 * qam16.bits_per_symbol)
    assert np.array_equal(llr[5], robust_detect(h, r_uu, y_block[5, None], qam16, coded=True)[0])
    for t in range(18):
        one = robust_detect(h, r_uu, y_block[t, None], qam16, coded=True)
        assert one.shape == (1, llr.shape[1])
        assert np.allclose(llr[t], one[0], rtol=0, atol=1e-12)


def test_robust_soft_llrs_rejects_non_finite_row(qam16):
    rng = np.random.default_rng(31)
    h = crandn(rng, 16, 4)
    y_block = crandn(rng, 3, 16)
    for bad in (np.nan, np.inf):
        y_block[1, 7] = bad
        with pytest.raises(ValueError):
            robust_detect(h, np.eye(16), y_block, qam16, coded=True)


def test_equalizer_llrs_signs_at_high_snr(qam16):
    rng = np.random.default_rng(23)
    idx = rng.integers(0, 16, 50)
    x_eq = qam16.points[idx] + 0.01 * crandn(rng, 50)
    llr = det.equalizer_llrs(x_eq[None], np.ones(50), np.full(50, 1e-4), qam16)
    bits = qam16.bit_patterns[idx].ravel()
    assert llr.shape == (1, bits.size) and np.all((llr[0] > 0) == (bits == 0))
