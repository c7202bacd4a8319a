import numpy as np
import pytest

from mudet.airlink import (
    CONSTELLATION_KINDS,
    ChannelConfig,
    build_constellation,
    complex_randn,
    estimate_channel,
    estimate_covariance,
    generate_channel,
    apply_channel,
    rx_correlation_root,
)
from mudet.errors import (
    DimensionMismatchError,
    EmptySampleSetError,
    InsufficientPilotsError,
    NotPositiveDefiniteError,
)
from mudet.numkit import cholesky

from conftest import crandn


# --- constellations ----------------------------------------------------------


def test_qpsk_definition(qpsk):
    assert qpsk.bits_per_symbol == 2
    assert np.allclose(sorted(np.abs(qpsk.points)), np.ones(4))
    assert abs(np.mean(np.abs(qpsk.points) ** 2) - 1.0) < 1e-12


def test_qam16_unit_energy(qam16):
    assert qam16.bits_per_symbol == 4
    assert abs(np.mean(np.abs(qam16.points) ** 2) - 1.0) < 1e-12
    levels = sorted(set(np.round(qam16.points.real, 12)))
    assert np.allclose(levels, np.array([-3, -1, 1, 3]) / np.sqrt(10))


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_gray_adjacency_exhaustive(kind):
    cons = build_constellation(kind)
    pts = cons.points
    spacing = np.min(np.abs(pts[0] - np.delete(pts, 0)))
    n_adjacent = 0
    for i in range(cons.size):
        for j in range(i + 1, cons.size):
            if abs(abs(pts[i] - pts[j]) - spacing) < 1e-9:
                assert int(np.sum(cons.bit_patterns[i] != cons.bit_patterns[j])) == 1
                n_adjacent += 1
    assert n_adjacent == (4 if kind == "qpsk" else 24)


@pytest.mark.parametrize("kind", CONSTELLATION_KINDS)
def test_grid_tables_rebuild_every_constellation(kind):
    cons = build_constellation(kind)
    side = cons.levels.shape[1]
    assert cons.levels.shape == (2, side) and cons.levels.flags.c_contiguous
    idx = np.arange(cons.size)
    rebuilt = cons.levels[0, idx // side] + 1j * cons.levels[1, idx % side]
    assert np.array_equal(rebuilt.view(np.uint64), cons.points.view(np.uint64))
    # column i * side + q adds in-phase term i to quadrature term q, and no other
    expected = np.zeros((2 * side, cons.size))
    for i in range(side):
        for q in range(side):
            expected[[i, side + q], i * side + q] = 1.0
    assert np.array_equal(cons.pairs, expected)
    for table in (cons.levels, cons.pairs):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


def test_bit_symbol_roundtrip(qam16):
    idx = np.arange(qam16.size)
    assert np.array_equal(qam16.bits_to_indices(qam16.indices_to_bits(idx)), idx)
    assert np.array_equal(qam16.nearest(qam16.points), idx)


def test_indices_to_bits_equals_fancy_index(qpsk, qam16):
    rng = np.random.default_rng(17)
    for cons in (qpsk, qam16):
        for shape in ((), (7,), (50, 4), (18, 64, 4)):
            idx = rng.integers(0, cons.size, shape)
            assert np.array_equal(cons.indices_to_bits(idx), cons.bit_patterns[idx])
        assert np.array_equal(cons.indices_to_bits([0, 3]), cons.bit_patterns[[0, 3]])


def test_unsupported_kind():
    with pytest.raises(ValueError):
        build_constellation("qam64")


def test_constellations_compare_and_hash_by_identity():
    # array fields: a field-wise comparison would raise numpy's ambiguous truth value
    a, b = build_constellation("qam16"), build_constellation("qam16")
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    assert {a: "qam16"}[a] == "qam16"


# --- channel generation -------------------------------------------------------


def test_channel_determinism():
    cfg = ChannelConfig(n_rx=8, n_users=4, n_interferers=2, rx_correlation=0.7)
    a = generate_channel(cfg, np.random.default_rng(9), 0.3)
    b = generate_channel(cfg, np.random.default_rng(9), 0.3)
    assert np.array_equal(a.h, b.h) and np.array_equal(a.g, b.g)


def test_channel_uncorrelated_covariance():
    cfg = ChannelConfig(n_rx=8, n_users=2, rx_correlation=0.0)
    rng = np.random.default_rng(1)
    cols = np.stack([generate_channel(cfg, rng, 0.1).h[:, 0] for _ in range(10000)])
    cov = (cols[:, :, None] * cols[:, None, :].conj()).mean(axis=0)
    assert np.linalg.norm(cov - np.eye(8)) <= 0.05 * np.linalg.norm(np.eye(8))


def test_channel_correlated_covariance_matches_model():
    rho = 0.9
    cfg = ChannelConfig(n_rx=8, n_users=2, rx_correlation=rho)
    c = rho ** np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
    cholesky(c)  # PD
    rng = np.random.default_rng(2)
    cols = np.stack([generate_channel(cfg, rng, 0.1).h[:, 0] for _ in range(10000)])
    cov = (cols[:, :, None] * cols[:, None, :].conj()).mean(axis=0)
    assert np.linalg.norm(cov - c) <= 0.05 * np.linalg.norm(c)


@pytest.mark.parametrize("rho", [0.0, 0.9])
def test_rx_correlation_root_cached_read_only(rho):
    root = rx_correlation_root(8, rho)
    assert rx_correlation_root(8, rho) is root
    c = rho ** np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
    assert np.allclose(root @ root.T, c, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        root[0, 0] = 2.0


def test_interferer_power_scaling():
    cfg = ChannelConfig(n_rx=6, n_users=2, n_interferers=3, interferer_power_ratio=4.0)
    rng = np.random.default_rng(3)
    pwr = np.mean(
        [np.mean(np.abs(generate_channel(cfg, rng, 0.1).g) ** 2) for _ in range(2000)]
    )
    assert abs(pwr - 4.0) < 0.2


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(n_rx=2, n_users=4)
    with pytest.raises(ValueError):
        ChannelConfig(n_rx=4, n_users=2, rx_correlation=1.0)


@pytest.mark.parametrize("ratio", [0.0, -1.0, np.nan, np.inf])
def test_channel_config_rejects_interferer_power_outside_zero_inf(ratio):
    with pytest.raises(ValueError, match="interferer_power_ratio"):
        ChannelConfig(n_rx=4, n_users=2, n_interferers=1, interferer_power_ratio=ratio)


@pytest.mark.parametrize("sigma_n2", [-0.1, np.nan, np.inf])
def test_generate_channel_rejects_noise_power_outside_zero_inf(sigma_n2):
    cfg = ChannelConfig(n_rx=4, n_users=2, n_interferers=1)
    with pytest.raises(ValueError, match="sigma_n2"):
        generate_channel(cfg, np.random.default_rng(0), sigma_n2)


# --- transmission --------------------------------------------------------------


def test_apply_channel_identity_noiseless():
    cfg = ChannelConfig(n_rx=3, n_users=3)
    real = generate_channel(cfg, np.random.default_rng(0), 0.0)
    real = type(real)(h=np.eye(3, dtype=complex), g=real.g, sigma_n2=0.0)
    x = np.array([[1 + 1j, -1 + 0j, 0.5j]])
    y = apply_channel(real, x, np.zeros((1, 0)), np.random.default_rng(1))
    assert np.allclose(y, x)


def test_apply_channel_noise_variance():
    cfg = ChannelConfig(n_rx=4, n_users=1)
    real = generate_channel(cfg, np.random.default_rng(5), 0.25)
    rng = np.random.default_rng(6)
    samples = apply_channel(real, np.zeros((10000, 1)), np.zeros((10000, 0)), rng)
    assert abs(np.mean(np.abs(samples) ** 2) - 0.25) < 0.25 * 0.05


def test_apply_channel_recomputation_oracle():
    cfg = ChannelConfig(n_rx=5, n_users=2, n_interferers=1)
    real = generate_channel(cfg, np.random.default_rng(7), 0.4)
    rng = np.random.default_rng(8)
    x = crandn(np.random.default_rng(9), 1, 2)
    s = crandn(np.random.default_rng(10), 1, 1)
    y = apply_channel(real, x, s, rng)
    # replay the same noise draw with a cloned generator
    noise = complex_randn(np.random.default_rng(8), 1, 5)
    expected = x @ real.h.T + s @ real.g.T + np.sqrt(0.4) * noise
    assert np.allclose(y, expected)


def test_apply_channel_block_oracle():
    # a (B, n_users) block takes its noise as one (B, n_rx) draw
    cfg = ChannelConfig(n_rx=5, n_users=2, n_interferers=1)
    real = generate_channel(cfg, np.random.default_rng(11), 0.4)
    x = crandn(np.random.default_rng(12), 4, 2)
    s = crandn(np.random.default_rng(13), 4, 1)
    block = apply_channel(real, x, s, np.random.default_rng(14))
    noise = complex_randn(np.random.default_rng(14), 4, 5)
    assert block.shape == (4, 5)
    assert np.array_equal(block, x @ real.h.T + s @ real.g.T + np.sqrt(0.4) * noise)


@pytest.mark.parametrize("shape", [(16, 4), (2, 16), (50, 16), (16, 168)])
def test_complex_randn_is_the_two_draw_formula_bit_for_bit(shape):
    rng, ref = np.random.default_rng(41), np.random.default_rng(41)
    draw = complex_randn(rng, *shape)
    expected = (ref.standard_normal(shape) + 1j * ref.standard_normal(shape)) / np.sqrt(2.0)
    assert draw.shape == shape and draw.dtype == complex
    assert np.array_equal(draw.view(np.uint64), expected.view(np.uint64))
    # the stream is consumed the same way
    assert rng.standard_normal() == ref.standard_normal()


def test_apply_channel_dimension_mismatch():
    cfg = ChannelConfig(n_rx=4, n_users=2)
    real = generate_channel(cfg, np.random.default_rng(0), 0.1)
    with pytest.raises(DimensionMismatchError):
        apply_channel(real, np.zeros(3), np.zeros(0), np.random.default_rng(1))
    with pytest.raises(DimensionMismatchError):
        apply_channel(real, np.zeros((4, 2)), np.zeros(0), np.random.default_rng(1))
    # one vector is a (1, n_users) block; a 1-D input raises, as every
    # detectors entry point does
    with pytest.raises(DimensionMismatchError):
        apply_channel(real, np.zeros(2), np.zeros(0), np.random.default_rng(1))


# --- channel estimation ---------------------------------------------------------


def _pilot_block(real, pilots_per_user, rng):
    n_users = real.h.shape[1]
    n_slots = pilots_per_user * n_users
    users = np.arange(n_slots) % n_users
    symbols = np.exp(2j * np.pi * rng.integers(0, 4, n_slots) / 4)
    y = real.h[:, users] * symbols
    y = y + np.sqrt(real.sigma_n2) * complex_randn(rng, real.h.shape[0], n_slots)
    return users, symbols, y


def test_estimate_channel_noiseless_ls_exact():
    cfg = ChannelConfig(n_rx=6, n_users=3)
    real = generate_channel(cfg, np.random.default_rng(1), 0.0)
    users, symbols, y = _pilot_block(real, 3, np.random.default_rng(2))
    est = estimate_channel(users, symbols, y, 3)
    assert np.linalg.norm(est.h_hat - real.h) < 1e-10


def test_estimate_channel_error_variance_scaling():
    # LS error variance per entry should track sigma_n2 / pilot_count
    sigma_n2 = 0.1
    cfg = ChannelConfig(n_rx=4, n_users=2)
    for pilots in (2, 8):
        rng = np.random.default_rng(100 + pilots)
        errs = []
        for _ in range(4000):
            real = generate_channel(cfg, rng, sigma_n2)
            users, symbols, y = _pilot_block(real, pilots, rng)
            est = estimate_channel(users, symbols, y, 2)
            errs.append(np.mean(np.abs(est.h_hat - real.h) ** 2))
        measured = float(np.mean(errs))
        assert abs(measured - sigma_n2 / pilots) <= 0.1 * sigma_n2 / pilots


def test_estimate_channel_insufficient_pilots():
    cfg = ChannelConfig(n_rx=4, n_users=3)
    real = generate_channel(cfg, np.random.default_rng(3), 0.1)
    users = np.array([0, 1, 0, 1])  # user 2 never sounds
    symbols = np.ones(4, dtype=complex)
    y = real.h[:, users] * symbols
    with pytest.raises(InsufficientPilotsError):
        estimate_channel(users, symbols, y, 3)


def test_estimate_channel_dimension_mismatch():
    users = np.array([0, 1, 0, 1])
    y = np.zeros((4, 4), dtype=complex)
    with pytest.raises(DimensionMismatchError):
        estimate_channel(users, np.ones(3), y, 2)
    with pytest.raises(DimensionMismatchError):
        estimate_channel(users, np.ones(4), y[:, :3], 2)


# --- covariance estimation -------------------------------------------------------


def test_covariance_diagonal_truth():
    rng = np.random.default_rng(4)
    scale = np.sqrt(np.array([0.5, 1.0, 1.5]))
    res = scale * crandn(rng, 100000, 3) * np.sqrt(2)
    r_uu = estimate_covariance(res)
    truth = np.diag([1.0, 2.0, 3.0])
    assert np.all(np.abs(r_uu - truth) <= 0.05 * np.max(np.abs(truth)) + 0.05)
    assert np.allclose(np.diag(r_uu).real, [1, 2, 3], rtol=0.05)


def test_covariance_rank_one_structure():
    rng = np.random.default_rng(5)
    g = crandn(rng, 6, 1)
    sigma2 = 0.2
    s = np.exp(2j * np.pi * rng.random(100000))
    res = (g @ s[None, :]).T + np.sqrt(sigma2) * crandn(rng, 100000, 6)
    r_uu = estimate_covariance(res)
    truth = g @ g.conj().T + sigma2 * np.eye(6)
    assert np.linalg.norm(r_uu - truth) <= 0.05 * np.linalg.norm(truth)


def test_covariance_hermitian_pd_always():
    rng = np.random.default_rng(6)
    res = crandn(rng, 4, 8)  # fewer samples than antennas
    r_uu = estimate_covariance(res)
    assert np.linalg.norm(r_uu - r_uu.conj().T) <= 1e-12
    cholesky(r_uu)


def test_covariance_empty_raises():
    with pytest.raises(EmptySampleSetError):
        estimate_covariance(np.zeros((0, 4)))


def test_covariance_takes_a_block_only():
    with pytest.raises(DimensionMismatchError):
        estimate_covariance(crandn(np.random.default_rng(7), 4))
    with pytest.raises(DimensionMismatchError):
        estimate_covariance(np.zeros((2, 3, 4)))


def test_covariance_loading_floor():
    # noise-free residuals can all be 0; the floor keeps the estimate PD
    with pytest.raises(NotPositiveDefiniteError):
        estimate_covariance(np.zeros((5, 3)))
    assert np.array_equal(estimate_covariance(np.zeros((5, 3)), 1e-12), 1e-12 * np.eye(3))
    # a floor below the relative loading changes nothing
    res = crandn(np.random.default_rng(8), 6, 3)
    assert np.array_equal(estimate_covariance(res, 1e-12), estimate_covariance(res))
