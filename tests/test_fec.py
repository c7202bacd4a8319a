import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudet import fec

# SHA-256 of ``parity`` and of ``column_order`` (as little-endian int64) per
# seed, recorded from the set-based pair bookkeeping the sampler used first
CODE_DIGESTS = {
    0: ("5ce496d0d634d0a0345fd745a371e3e99b62bb9ee46bea93a566ca106a1eb06d",
        "278cf0cf87ad0ce5c3f03370e7204e25b21abfc9d506f9f84c324c4fbce925c4"),
    1: ("cba07f20f13192d4786b35b20de0ba75b5ba08abda0f86c27210e409c1cc5844",
        "6474fa17491c720867c06eea6b428a24f4db422f2d2b23d8c8e17b3d357d49f0"),
    2: ("0c1b2cda146a6b554ebcff1e66ce089324d922ce57ba090d29a4a96dd85d2e88",
        "43c89f9353b68d64d30dd83d68314e724ac66e638b60ff4a46810f0e3e20b682"),
    3: ("03ffb2840de9f4eef41e6dcf3a227ddb16b77d38b08e4a1421b85770518e5b92",
        "a64b4d69543bfe3815fe39f853cb7a1b147d349fa99b4a447d9e4cef8f76433a"),
}


@pytest.fixture(scope="module")
def code():
    return fec.build_code(seed=0)


def test_regular_degrees(code):
    assert code.parity.shape == (144, 288)
    assert np.all(code.parity.sum(axis=0) == 3)
    assert np.all(code.parity.sum(axis=1) == 6)


def test_construction_deterministic():
    a = fec.build_code(seed=5)
    b = fec.build_code(seed=5)
    assert np.array_equal(a.parity, b.parity)
    assert np.array_equal(a.column_order, b.column_order)


@pytest.mark.parametrize("seed", sorted(CODE_DIGESTS))
def test_construction_frozen(seed):
    c = fec.build_code(seed=seed)
    digests = (
        hashlib.sha256(c.parity.astype(np.uint8).tobytes()).hexdigest(),
        hashlib.sha256(c.column_order.astype("<i8").tobytes()).hexdigest(),
    )
    assert digests == CODE_DIGESTS[seed]


def test_edge_tables_match_parity(code):
    # every check lists its variables in ascending order, one per slot
    for c in range(code.parity.shape[0]):
        assert np.array_equal(code.check_vars[:, c], np.flatnonzero(code.parity[c]))
    # every variable lists its edges in ascending check order
    edge_check = np.tile(np.arange(code.parity.shape[0]), fec.ROW_WEIGHT)
    edge_var = code.check_vars.reshape(-1)
    for v in range(code.n):
        edges = code.var_edges[:, v]
        assert np.all(edge_var[edges] == v)
        assert np.array_equal(edge_check[edges], np.flatnonzero(code.parity[:, v]))


def test_any_seed_valid():
    for seed in (1, 2, 3):
        c = fec.build_code(seed=seed)
        assert np.all(c.parity.sum(axis=0) == 3) and np.all(c.parity.sum(axis=1) == 6)
        m = np.arange(144) % 2
        assert fec.parity_ok(c, fec.encode(c, m))


def test_encode_zero_message(code):
    cw = fec.encode(code, np.zeros(144, dtype=int))
    assert not cw.any()
    assert fec.parity_ok(code, cw)


def test_encode_parity_recomputation_oracle(code):
    rng = np.random.default_rng(1)
    m = rng.integers(0, 2, 144)
    cw = fec.encode(code, m)
    # literal GF(2) recomputation over all 144 checks
    for row in code.parity:
        assert int(np.sum(row.astype(int) * cw)) % 2 == 0


def test_encode_systematic_and_injective(code):
    rng = np.random.default_rng(2)
    m1, m2 = rng.integers(0, 2, (2, 144))
    c1, c2 = fec.encode(code, m1), fec.encode(code, m2)
    assert np.array_equal(c1[:144], m1)
    assert not np.array_equal(c1, c2)


def test_encode_linearity(code):
    rng = np.random.default_rng(3)
    for _ in range(100):
        m1, m2 = rng.integers(0, 2, (2, 144)).astype(np.uint8)
        assert np.array_equal(
            fec.encode(code, m1 ^ m2), fec.encode(code, m1) ^ fec.encode(code, m2)
        )


def test_generator_matrix(code):
    rng = np.random.default_rng(4)
    g = fec.encode(code, np.eye(144, dtype=np.uint8))
    assert g.shape == (144, 288)
    m = rng.integers(0, 2, 144).astype(np.uint8)
    assert np.array_equal(((m @ g) % 2).astype(np.uint8), fec.encode(code, m))


@pytest.mark.parametrize("seed", sorted(CODE_DIGESTS))
def test_every_generator_row_is_a_codeword(seed):
    # G H^T = 0 over the whole generator, so every message encodes to a codeword
    c = fec.build_code(seed=seed)
    g = fec.encode(c, np.eye(144, dtype=np.uint8))
    syndromes = (c.parity.astype(np.int64) @ g.T.astype(np.int64)) % 2
    assert syndromes.shape == (144, 144) and not syndromes.any()


def test_encode_length_mismatch(code):
    with pytest.raises(ValueError):
        fec.encode(code, np.zeros(100, dtype=int))


# --- decoding -------------------------------------------------------------------


def test_decode_clean_codeword_zero_iterations(code):
    rng = np.random.default_rng(5)
    m = rng.integers(0, 2, 144)
    cw = fec.encode(code, m)
    llr = np.where(cw == 0, 30.0, -30.0)
    bits, converged, iters = fec.decode_min_sum(code, llr)
    assert converged and iters == 0
    assert np.array_equal(bits, m)


def test_decode_three_flip_recovery(code):
    recovered = 0
    for t in range(100):
        rng = np.random.default_rng(1000 + t)
        m = rng.integers(0, 2, 144)
        llr = np.where(fec.encode(code, m) == 0, 30.0, -30.0)
        llr[rng.choice(288, 3, replace=False)] *= -1.0
        bits, converged, _ = fec.decode_min_sum(code, llr)
        if converged and np.array_equal(bits, m):
            recovered += 1
    assert recovered >= 99


def test_decode_scale_invariance(code):
    rng = np.random.default_rng(6)
    msgs = rng.integers(0, 2, (50, 144))
    cws = fec.encode(code, msgs)
    y = (1.0 - 2.0 * cws) + 0.8 * rng.standard_normal(cws.shape)
    base = 2.0 * y / 0.64
    b0, c0, i0 = fec.decode_min_sum_batch(code, base)
    for c in (0.1, 10.0):
        b1, c1, i1 = fec.decode_min_sum_batch(code, c * base)
        assert np.array_equal(b0, b1)
        assert np.array_equal(c0, c1)
        assert np.array_equal(i0, i1)


def test_decode_converged_implies_parity(code):
    rng = np.random.default_rng(7)
    msgs = rng.integers(0, 2, (200, 144))
    cws = fec.encode(code, msgs)
    y = (1.0 - 2.0 * cws) + 1.1 * rng.standard_normal(cws.shape)  # noisy enough to fail some
    llrs = 2.0 * y / 1.21
    bits, converged, iters = fec.decode_min_sum_batch(code, llrs)
    assert not converged.all()  # the test should exercise both outcomes
    for i in np.flatnonzero(converged):
        full, conv, _ = fec.decode_min_sum(code, llrs[i])
        assert conv
    # converged rows reproduce a valid codeword when re-encoded
    re = fec.encode(code, bits[converged])
    assert np.array_equal(re[:, :144], bits[converged])


def test_decode_batch_matches_single(code):
    rng = np.random.default_rng(8)
    msgs = rng.integers(0, 2, (20, 144))
    cws = fec.encode(code, msgs)
    llrs = 2.0 * ((1.0 - 2.0 * cws) + 0.7 * rng.standard_normal(cws.shape)) / 0.49
    bits_b, conv_b, iters_b = fec.decode_min_sum_batch(code, llrs)
    for i in range(20):
        bits_s, conv_s, iters_s = fec.decode_min_sum(code, llrs[i])
        assert np.array_equal(bits_s, bits_b[i])
        assert conv_s == conv_b[i] and iters_s == iters_b[i]


def test_decode_rejects_bad_input(code):
    with pytest.raises(ValueError):
        fec.decode_min_sum(code, np.zeros(100))
    bad = np.zeros(288)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        fec.decode_min_sum(code, bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_decode_batch_rejects_non_finite_rows(code, value):
    llrs = np.ones((3, code.n))
    llrs[1, 7] = value
    with pytest.raises(ValueError, match="finite"):
        fec.decode_min_sum_batch(code, llrs)


@pytest.mark.parametrize("shape", [(2, 300), (1, 287), (288,), (1, 1, 288)])
def test_decode_batch_rejects_rows_of_the_wrong_shape(code, shape):
    with pytest.raises(ValueError, match="288 LLRs"):
        fec.decode_min_sum_batch(code, np.ones(shape))


def test_bpsk_awgn_coded_ber_regression(code):
    # frozen Monte-Carlo baseline: Eb/N0 = 4 dB, rate 1/2 BPSK
    ebn0 = 10.0 ** 0.4
    sigma2 = 1.0 / (2 * 0.5 * ebn0)
    rng = np.random.default_rng(42)
    errors = 0
    bits = 0
    for _ in range(10):
        msgs = rng.integers(0, 2, (1000, 144))
        cws = fec.encode(code, msgs)
        y = (1.0 - 2.0 * cws) + np.sqrt(sigma2) * rng.standard_normal(cws.shape)
        decoded, _, _ = fec.decode_min_sum_batch(code, 2.0 * y / sigma2)
        errors += int(np.sum(decoded != msgs))
        bits += msgs.size
    assert errors / bits < 1e-3


# --- decoding against a per-edge reference --------------------------------------


def _reference_min_sum(code, llr):
    """Flooding normalized min-sum written one check and one edge at a time.

    Sums run in ascending check order and a zero message counts as positive,
    as in the library, so results must match bit for bit.
    """
    checks = [np.flatnonzero(row) for row in code.parity]
    var_checks = [np.flatnonzero(col) for col in code.parity.T]

    def satisfied(hard):
        return all(sum(hard[v] for v in vs) % 2 == 0 for vs in checks)

    llr = [float(x) for x in llr]
    hard = [int(x < 0) for x in llr]
    if satisfied(hard):
        return hard[: code.k], True, 0
    v2c = {(c, v): llr[v] for c, vs in enumerate(checks) for v in vs}
    for it in range(1, fec.MAX_ITERS + 1):
        c2v = {}
        for c, vs in enumerate(checks):
            for v in vs:
                others = [v2c[c, u] for u in vs if u != v]
                sign = 1.0
                for x in others:
                    if x < 0:
                        sign = -sign
                c2v[c, v] = sign * (fec.NORMALIZATION * min(abs(x) for x in others))
        total = []
        for v, cs in enumerate(var_checks):
            acc = 0.0
            for c in cs:
                acc += c2v[c, v]
            total.append(llr[v] + acc)
        for c, v in v2c:
            v2c[c, v] = total[v] - c2v[c, v]
        hard = [int(t < 0) for t in total]
        if satisfied(hard):
            return hard[: code.k], True, it
    return hard[: code.k], False, fec.MAX_ITERS


def _assert_matches_reference(code, llrs):
    """Both entry points against the reference, row by row."""
    llrs = np.atleast_2d(llrs)
    bits_b, conv_b, iters_b = fec.decode_min_sum_batch(code, llrs)
    for i, row in enumerate(llrs):
        ref_bits, ref_conv, ref_iters = _reference_min_sum(code, row)
        bits, conv, iters = fec.decode_min_sum(code, row)
        assert (list(bits), conv, iters) == (ref_bits, ref_conv, ref_iters)
        assert (list(bits_b[i]), bool(conv_b[i]), int(iters_b[i])) == (
            ref_bits, ref_conv, ref_iters
        )
    return conv_b, iters_b


def _noisy_llrs(code, rng, sigma, rows=1):
    cws = fec.encode(code, rng.integers(0, 2, (rows, code.k)))
    y = (1.0 - 2.0 * cws) + sigma * rng.standard_normal(cws.shape)
    return 2.0 * y / sigma**2


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma=st.sampled_from([0.6, 0.75, 0.9]),
    zeros=st.integers(0, 60),
)
def test_decoder_matches_reference_on_tied_llrs(code, seed, sigma, zeros):
    # half-step LLRs put many equal magnitudes on one check; a zero prefix
    # adds exact zeros, whose sign must count as positive
    rng = np.random.default_rng(seed)
    llr = np.clip(np.round(2.0 * _noisy_llrs(code, rng, sigma)[0]) / 2.0, -4.0, 4.0)
    llr[:zeros] = 0.0
    _assert_matches_reference(code, llr)


def test_decoder_all_zero_llrs(code):
    # hard decision all zeros is the zero codeword: valid before any iteration
    conv, iters = _assert_matches_reference(code, np.zeros(code.n))
    assert conv[0] and iters[0] == 0


def test_decoder_valid_codeword_zero_iterations_matches_reference(code):
    rng = np.random.default_rng(20)
    cw = fec.encode(code, rng.integers(0, 2, code.k))
    conv, iters = _assert_matches_reference(code, np.where(cw == 0, 0.5, -0.5))
    assert conv[0] and iters[0] == 0


def test_decoder_max_iters_unconverged_matches_reference(code):
    llr = _noisy_llrs(code, np.random.default_rng(21), sigma=1.5)[0]
    conv, iters = _assert_matches_reference(code, llr)
    assert not conv[0] and iters[0] == fec.MAX_ITERS


def test_decoder_batch_rows_stop_at_different_iterations(code):
    rng = np.random.default_rng(22)
    sigmas = (0.3, 0.6, 0.7, 0.75, 0.8, 1.5)
    llrs = np.vstack([_noisy_llrs(code, rng, s) for s in sigmas])
    conv, iters = _assert_matches_reference(code, llrs)
    assert len(set(iters.tolist())) >= 4
    assert conv.any() and not conv.all()
