import numpy as np
import pytest

from mudet.errors import NotPositiveDefiniteError, RankDeficientError
from mudet.numkit import (
    cholesky,
    inv_sqrt,
    qr_decompose,
    solve_hermitian,
    sorted_qr,
)

from conftest import crandn


def random_pd(rng, n):
    b = crandn(rng, n, n)
    return b @ b.conj().T + np.eye(n)


# --- plain QR ---------------------------------------------------------------


def test_qr_identity():
    q, r = qr_decompose(np.eye(3))
    assert np.allclose(q, np.eye(3)) and np.allclose(r, np.eye(3))


def test_qr_345_column():
    q, r = qr_decompose([[3.0], [4.0]])
    assert np.allclose(q.ravel(), [0.6, 0.8])
    assert np.allclose(r, [[5.0]])


def test_qr_random_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, n + 1))
        a = crandn(rng, n, m)
        q, r = qr_decompose(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(m)) <= 1e-10 * m
        assert np.linalg.norm(q @ r - a) <= 1e-10 * np.linalg.norm(a)
        diag = np.diag(r)
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)
        assert np.all(r[np.tril_indices(m, -1)] == 0)


def test_qr_seeded_8x4():
    rng = np.random.default_rng(42)
    a = crandn(rng, 8, 4)
    q, r = qr_decompose(a)
    assert np.linalg.norm(q.conj().T @ q - np.eye(4)) <= 1e-10 * 4
    assert np.linalg.norm(q @ r - a) <= 1e-10 * np.linalg.norm(a)


def test_qr_rank_deficient_raises():
    with pytest.raises(RankDeficientError):
        qr_decompose([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RankDeficientError):
        sorted_qr([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 3.0]])


def test_qr_rejects_bad_input():
    with pytest.raises(ValueError):
        qr_decompose(np.ones((2, 3)))  # rows < cols
    with pytest.raises(ValueError):
        qr_decompose(np.array([[np.nan], [1.0]]))


# --- sorted QR --------------------------------------------------------------


def test_sorted_qr_weak_column_first():
    sq = sorted_qr(np.array([[10.0, 0.0], [0.0, 1.0]]))
    assert list(sq.perm) == [1, 0]
    assert abs(sq.r[0, 0] - 1.0) < 1e-12


def test_sorted_qr_tie_prefers_lowest_index():
    sq = sorted_qr(np.eye(4))
    assert list(sq.perm) == [0, 1, 2, 3]
    assert np.allclose(np.diag(sq.r), 1.0)


def _greedy_oracle(a):
    """Independent greedy ordering via explicit projections."""
    m = a.shape[1]
    chosen: list[int] = []
    remaining = list(range(m))
    basis = np.zeros((a.shape[0], 0), dtype=complex)
    for _ in range(m):
        resid = {}
        for j in remaining:
            col = a[:, j]
            if basis.shape[1]:
                coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
                col = col - basis @ coef
            resid[j] = np.linalg.norm(col)
        best = min(resid[j] for j in remaining)
        pick = min(j for j in remaining if resid[j] <= best * (1 + 1e-9))
        chosen.append(pick)
        remaining.remove(pick)
        col = a[:, pick]
        if basis.shape[1]:
            coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
            col = col - basis @ coef
        basis = np.hstack([basis, (col / np.linalg.norm(col))[:, None]])
    return chosen


def test_sorted_qr_greedy_matches_projection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, min(n, 6) + 1))
        a = crandn(rng, n, m)
        sq = sorted_qr(a)
        assert list(sq.perm) == _greedy_oracle(a)
        assert np.linalg.norm(sq.q @ sq.r - a[:, sq.perm]) <= 1e-10 * np.linalg.norm(a)
        # step-1 greedy optimality: r11 is the smallest column norm
        assert abs(sq.r[0, 0] - np.linalg.norm(a, axis=0).min()) < 1e-9


def _with_condition_number(rng, n, m, kappa):
    """Random complex n x m matrix, singular values log-spaced from 1 to 1/kappa."""
    u, _ = np.linalg.qr(crandn(rng, n, m))
    v, _ = np.linalg.qr(crandn(rng, m, m))
    return (u * np.logspace(0, -np.log10(kappa), m)) @ v.conj().T


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8])
def test_sorted_qr_orthonormal_when_ill_conditioned(kappa):
    rng = np.random.default_rng(13)
    for _ in range(20):
        sq = sorted_qr(_with_condition_number(rng, 20, 4, kappa))
        assert np.linalg.norm(sq.q.conj().T @ sq.q - np.eye(4)) <= 1e-12


def test_sorted_qr_r_equals_plain_qr_of_permuted_input():
    rng = np.random.default_rng(17)
    inputs = [crandn(rng, int(n), int(m)) for n, m in rng.integers(1, 9, (40, 2)) if n >= m]
    inputs += [_with_condition_number(rng, 20, 4, 1e6) for _ in range(10)]
    for a in inputs:
        sq = sorted_qr(a)
        _, r = qr_decompose(a[:, sq.perm])
        assert np.max(np.abs(sq.r - r)) <= 1e-10


# --- cholesky / whitening / solves ------------------------------------------


def test_cholesky_identity_and_diag():
    assert np.allclose(cholesky(np.eye(3)), np.eye(3))
    assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_cholesky_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_pd(rng, int(rng.integers(2, 16)))
        low = cholesky(a)
        assert np.linalg.norm(low @ low.conj().T - a) <= 1e-10 * np.linalg.norm(a)
        assert np.all(np.diag(low).real > 0)


def test_cholesky_rejects_indefinite_and_non_hermitian():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_inv_sqrt_diagonal_cases():
    assert np.allclose(inv_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))


def test_inv_sqrt_whitening_identity_up_to_64():
    rng = np.random.default_rng(11)
    for n in (2, 5, 16, 64):
        r_uu = random_pd(rng, n)
        w = inv_sqrt(r_uu)
        assert np.linalg.norm(w @ r_uu @ w.conj().T - np.eye(n)) <= 1e-10 * n


def test_solve_hermitian():
    rng = np.random.default_rng(5)
    b = crandn(rng, 4)
    assert np.allclose(solve_hermitian(np.eye(4), b), b)
    assert np.allclose(solve_hermitian(np.diag([2.0]), [4.0]), [2.0])
    for _ in range(30):
        n = int(rng.integers(2, 20))
        a = random_pd(rng, n)
        rhs = crandn(rng, n)
        x = solve_hermitian(a, rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
